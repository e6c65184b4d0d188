package campaign

import (
	"errors"
	"strings"
	"testing"

	"tensortee/internal/scenario"
)

// tinyBase is a fast custom single-point scenario usable as a campaign
// base (non-secure avoids the heavier MEE calibration in unit tests).
func tinyBase() scenario.Spec {
	return scenario.Spec{
		Model:   scenario.ModelSpec{Layers: 2, Hidden: 256, Heads: 4, Vocab: 1000, SeqLen: 128},
		Systems: []scenario.SystemSpec{{Kind: "non-secure"}},
		Metrics: []string{"total"},
	}
}

func TestCompileCrossProduct(t *testing.T) {
	plan, err := Compile(Spec{
		Name: "  grid ",
		Base: tinyBase(),
		Axes: []Axis{
			{Axis: "Layers", Values: []float64{1, 2, 3}},
			{Axis: "seqlen", Values: []float64{128, 256}},
		},
	})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if plan.Spec.Name != "grid" {
		t.Fatalf("name = %q", plan.Spec.Name)
	}
	if plan.Total != 6 {
		t.Fatalf("total = %d, want 6", plan.Total)
	}
	if len(plan.ID) != 32 || strings.ToLower(plan.ID) != plan.ID {
		t.Fatalf("id = %q", plan.ID)
	}

	// Row-major: the last axis varies fastest.
	wantLabels := []string{
		"layers=1,seqlen=128", "layers=1,seqlen=256",
		"layers=2,seqlen=128", "layers=2,seqlen=256",
		"layers=3,seqlen=128", "layers=3,seqlen=256",
	}
	for i, want := range wantLabels {
		spec, label, err := plan.Point(i)
		if err != nil {
			t.Fatalf("Point(%d): %v", i, err)
		}
		if label != want {
			t.Fatalf("Point(%d) label = %q, want %q", i, label, want)
		}
		if spec.Model.Layers != i/2+1 {
			t.Fatalf("Point(%d) layers = %d", i, spec.Model.Layers)
		}
		if !strings.Contains(spec.Name, label) {
			t.Fatalf("Point(%d) spec name %q missing label", i, spec.Name)
		}
	}
	if _, _, err := plan.Point(6); err == nil {
		t.Fatal("Point(6) should be out of range")
	}

	// Identity is content-addressed: axis spelling and name whitespace
	// normalize away.
	again, err := Compile(Spec{
		Name: "grid",
		Base: tinyBase(),
		Axes: []Axis{
			{Axis: "layers", Values: []float64{1, 2, 3}},
			{Axis: " SEQLEN ", Values: []float64{128, 256}},
		},
	})
	if err != nil {
		t.Fatalf("Compile again: %v", err)
	}
	if again.ID != plan.ID {
		t.Fatalf("normalized specs hash differently: %q vs %q", again.ID, plan.ID)
	}

	// A one-axis campaign over an override knob keeps its exact id (stored
	// campaigns resume by id) and its %g point labels.
	base := tinyBase()
	base.Systems = []scenario.SystemSpec{{Kind: "sgx-mgx", Overrides: &scenario.Overrides{LinkGBs: 12.5, MACGranBytes: 64}}}
	one, err := Compile(Spec{Name: "mac", Base: base, Axes: []Axis{{Axis: "Mac_Gran_Bytes", Values: []float64{64, 1048576}}}})
	if err != nil {
		t.Fatalf("Compile one-axis: %v", err)
	}
	if want := "9e50ae6080ad1c3a1dbb1d02cb067077"; one.ID != want {
		t.Errorf("one-axis id = %s, want %s", one.ID, want)
	}
	for i, want := range []string{"mac_gran_bytes=64", "mac_gran_bytes=1.048576e+06"} {
		spec, label, err := one.Point(i)
		if err != nil || label != want || one.PointLabel(i) != want || spec.Name != "mac["+want+"]" {
			t.Errorf("one-axis point %d = %q, %q, %v; want label %q", i, spec.Name, label, err, want)
		}
	}
}

func TestCompileRejects(t *testing.T) {
	base := tinyBase()
	withSweep := base
	withSweep.Sweep = &scenario.Sweep{Axis: "layers", Values: []float64{1, 2}}
	cases := []struct {
		name string
		spec Spec
	}{
		{"no axes", Spec{Base: base}},
		{"base sweep", Spec{Base: withSweep, Axes: []Axis{{Axis: "layers", Values: []float64{1}}}}},
		{"unknown axis", Spec{Base: base, Axes: []Axis{{Axis: "nope", Values: []float64{1}}}}},
		{"duplicate axis", Spec{Base: base, Axes: []Axis{
			{Axis: "layers", Values: []float64{1}},
			{Axis: " Layers", Values: []float64{2}},
		}}},
		{"too many axes", Spec{Base: base, Axes: []Axis{
			{Axis: "layers", Values: []float64{1}},
			{Axis: "hidden", Values: []float64{256}},
			{Axis: "heads", Values: []float64{4}},
			{Axis: "seqlen", Values: []float64{128}},
			{Axis: "batch", Values: []float64{1}},
		}}},
		{"invalid base", Spec{Base: scenario.Spec{}, Axes: []Axis{{Axis: "layers", Values: []float64{1}}}}},
		// A value that compiles per-axis but produces an out-of-range
		// point must be rejected at submit time.
		{"point out of bounds", Spec{
			Base: scenario.Spec{
				Model:   tinyBase().Model,
				Systems: []scenario.SystemSpec{{Kind: "sgx-mgx"}},
				Metrics: []string{"total"},
			},
			Axes: []Axis{{Axis: "meta_cache_kb", Values: []float64{1 << 20}}},
		}},
	}
	for _, tc := range cases {
		if _, err := Compile(tc.spec); !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("%s: error = %v, want ErrInvalidSpec", tc.name, err)
		}
	}
}

func TestCompilePointCap(t *testing.T) {
	vals := make([]float64, 64)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	spec := Spec{
		Base: tinyBase(),
		Axes: []Axis{
			{Axis: "link_gbs", Values: vals},
			{Axis: "staging_gbs", Values: vals},
			{Axis: "npu_bandwidth_gbs", Values: vals}, // 64^3 = 262144 > cap
		},
	}
	if _, err := Compile(spec); !errors.Is(err, ErrInvalidSpec) {
		t.Fatalf("error = %v, want ErrInvalidSpec (point cap)", err)
	}
}
