package tensortee

import (
	"context"
	"errors"
	"testing"
)

// TestRunScenarioSentinels pins that spec rejections surface through the
// public API as the re-exported sentinels, before any simulation runs.
func TestRunScenarioSentinels(t *testing.T) {
	r := NewRunner()
	ctx := context.Background()

	cases := []struct {
		name     string
		spec     Scenario
		sentinel error
	}{
		{"unknown model", Scenario{
			Model:   ScenarioModel{Name: "GPT-9000"},
			Systems: []ScenarioSystem{{Kind: "tensortee"}},
		}, ErrUnknownModel},
		{"zero sweep bound", Scenario{
			Model:   ScenarioModel{Name: "GPT2-M"},
			Systems: []ScenarioSystem{{Kind: "tensortee"}},
			Sweep:   &ScenarioSweep{Axis: "hidden", Values: []float64{0}},
		}, ErrBadSweep},
		{"calibration-breaking override", Scenario{
			Model:   ScenarioModel{Name: "GPT2-M"},
			Systems: []ScenarioSystem{{Kind: "tensortee", Overrides: &ScenarioOverrides{RegionMB: 8}}},
		}, ErrUnsafeOverride},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := r.RunScenario(ctx, tc.spec)
			if err == nil {
				t.Fatal("RunScenario accepted an invalid spec")
			}
			if !errors.Is(err, ErrInvalidScenario) {
				t.Errorf("error %v does not match ErrInvalidScenario", err)
			}
			if !errors.Is(err, tc.sentinel) {
				t.Errorf("error %v does not match the specific sentinel", err)
			}
		})
	}
}

// TestScenarioReproducesFig16 pins the acceptance criterion: a scenario
// spec naming a Table-2 model and the paper's three default systems yields
// numbers identical to the registry's fig16 — same calibrated systems,
// same simulated durations, bit-for-bit equal cells. The shared
// goldenRunner keeps calibration to one pass for the whole test binary.
func TestScenarioReproducesFig16(t *testing.T) {
	if testing.Short() {
		t.Skip("calibrates end-to-end systems")
	}
	if raceEnabled {
		t.Skip("heavy under the race detector; the non-race CI job covers it")
	}
	fig16, err := goldenRunner.Cached(context.Background(), "fig16")
	if err != nil {
		t.Fatal(err)
	}
	table := fig16.Tables[0]

	for _, row := range table.Rows {
		model := row[0].Text
		t.Run(model, func(t *testing.T) {
			res, err := goldenRunner.RunScenario(context.Background(), Scenario{
				Name:    "fig16-" + model,
				Model:   ScenarioModel{Name: model},
				Systems: []ScenarioSystem{{Kind: "non-secure"}, {Kind: "sgx-mgx"}, {Kind: "tensortee"}},
				Metrics: []string{"total"},
			})
			if err != nil {
				t.Fatal(err)
			}
			st := res.Tables[0]
			// Scenario rows: (point, model, system, total). fig16 columns
			// 1..3 are the three systems' totals in the same order.
			if len(st.Rows) != 3 {
				t.Fatalf("scenario rows = %d, want 3", len(st.Rows))
			}
			for i := 0; i < 3; i++ {
				got := st.Rows[i][3].Number
				want := row[1+i].Number
				if got != want {
					t.Errorf("system %d total = %v, want fig16's %v", i, got, want)
				}
			}
		})
	}

	// The speedup convention (first listed system over this one) matches
	// fig16's baseline/TensorTEE ratio when the baseline is listed first.
	m := table.Rows[1][0].Text
	res, err := goldenRunner.RunScenario(context.Background(), Scenario{
		Model:   ScenarioModel{Name: m},
		Systems: []ScenarioSystem{{Kind: "sgx-mgx"}, {Kind: "tensortee"}},
		Metrics: []string{"speedup"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Tables[0].Rows[1][3].Number, table.Rows[1][4].Number; got != want {
		t.Errorf("speedup = %v, want fig16's %v", got, want)
	}
}

// TestScenarioSharesCalibration pins the cache key semantics: a scenario
// run with default systems must reuse the Runner's calibrated systems (no
// new entries), while an override fingerprint gets its own entry.
func TestScenarioSharesCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("calibrates a system")
	}
	r := NewRunner()
	spec := Scenario{
		Model:   ScenarioModel{Layers: 1, Hidden: 128, Heads: 2, Batch: 1, SeqLen: 64},
		Systems: []ScenarioSystem{{Kind: "non-secure"}},
	}
	if _, err := r.RunScenario(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if n := r.systems.Len(); n != 1 {
		t.Fatalf("cache entries after first run = %d, want 1", n)
	}
	// Same config (different model) → same calibration entry.
	spec.Model = ScenarioModel{Layers: 2, Hidden: 256, Heads: 4}
	if _, err := r.RunScenario(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if n := r.systems.Len(); n != 1 {
		t.Errorf("cache entries after same-config run = %d, want 1", n)
	}
	// Overridden config → its own entry.
	spec.Systems = []ScenarioSystem{{Kind: "non-secure", Overrides: &ScenarioOverrides{DRAMChannels: 4}}}
	if _, err := r.RunScenario(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if n := r.systems.Len(); n != 2 {
		t.Errorf("cache entries after override run = %d, want 2", n)
	}
}
