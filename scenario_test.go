package tensortee

import (
	"context"
	"errors"
	"reflect"
	"strings"
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

// TestKnobsNeverSlowAStep is a metamorphic check over every scenario
// override knob. No knob may be inert: each must move GPT2-M's step time
// on at least one of the three systems. Where the model guarantees a
// direction — more NPU AES engines, more link or staging bandwidth, or
// more host DRAM channels — a larger setting must also never make a step
// slower. The other knobs are left out of that half. The metadata cache,
// the MAC granularity and the protected region change what the MEE
// fetches and keeps, not only how fast, so the model promises no
// direction for them (a coarser MAC granularity trades fewer MACs for
// over-fetch, a larger region deepens the integrity tree). The NPU's DRAM
// bandwidth is held to its direction where it acts, by internal/core's
// TestNPUPhasesMonotoneInDRAMBandwidth.
func TestKnobsNeverSlowAStep(t *testing.T) {
	if testing.Short() {
		t.Skip("calibrates a system per CPU-side knob value")
	}
	if raceEnabled {
		t.Skip("heavy under the race detector; the non-race CI job covers it")
	}
	// Test values per knob, the Table-1 default among them. The knobs are
	// the JSON-tagged numeric ScenarioOverrides fields, which the scenario
	// package's structure test holds its knob table to.
	values := map[string][]float64{
		"meta_cache_kb":     {32, 256},
		"dram_channels":     {1, 2, 8},
		"npu_aes_engines":   {1, 4, 16},
		"npu_bandwidth_gbs": {32, 128},
		"link_gbs":          {4, 16, 64},
		"staging_gbs":       {4, 12, 32},
		"mac_gran_bytes":    {64, 4096},
		"region_mb":         {64, 1024},
	}
	monotone := map[string]bool{"npu_aes_engines": true, "link_gbs": true, "staging_gbs": true, "dram_channels": true}
	ot := reflect.TypeOf(ScenarioOverrides{})
	for i := 0; i < ot.NumField(); i++ {
		knob, _, _ := strings.Cut(ot.Field(i).Tag.Get("json"), ",")
		if knob == "" || knob == "mee_mode" {
			continue
		}
		sw := ScenarioSweep{Axis: knob, Values: values[knob]}
		t.Run(knob, func(t *testing.T) {
			if len(sw.Values) < 2 {
				t.Fatalf("no test values for knob %s", knob)
			}
			res, err := goldenRunner.RunScenario(context.Background(), Scenario{
				Model:   ScenarioModel{Name: "GPT2-M"},
				Systems: []ScenarioSystem{{Kind: "non-secure"}, {Kind: "sgx-mgx"}, {Kind: "tensortee"}},
				Sweep:   &sw,
				Metrics: []string{"total"},
			})
			if err != nil {
				t.Fatal(err)
			}
			// Rows: (point, model, system, total), points in sweep order.
			totals := make(map[string][]float64)
			for _, row := range res.Tables[0].Rows {
				totals[row[2].Text] = append(totals[row[2].Text], row[3].Number)
			}
			if len(totals) != 3 {
				t.Fatalf("got totals for %d systems, want 3", len(totals))
			}
			moved := false
			for system, ts := range totals {
				if len(ts) != len(sw.Values) {
					t.Fatalf("%s: %d points, want %d", system, len(ts), len(sw.Values))
				}
				for i := 1; i < len(ts); i++ {
					moved = moved || ts[i] != ts[0]
					if monotone[knob] && ts[i] > ts[i-1] {
						t.Errorf("%s: total rose from %v at %s=%v to %v at %v",
							system, ts[i-1], knob, sw.Values[i-1], ts[i], sw.Values[i])
					}
				}
			}
			if !moved {
				t.Errorf("%s is inert: no system's total moves over %v (%v)", knob, sw.Values, totals)
			}
		})
	}
}
