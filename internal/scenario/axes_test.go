package scenario

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"tensortee/internal/config"
)

func TestNormalizeAxisMatchesSweepValidation(t *testing.T) {
	name, vals, err := NormalizeAxis("  Meta_Cache_KB ", []float64{64, 16})
	if err != nil {
		t.Fatalf("NormalizeAxis: %v", err)
	}
	if name != "meta_cache_kb" {
		t.Fatalf("canonical name = %q", name)
	}
	if len(vals) != 2 || vals[0] != 64 || vals[1] != 16 {
		t.Fatalf("values = %v", vals)
	}

	for _, tc := range []struct {
		axis   string
		values []float64
	}{
		{"no_such_axis", []float64{1}},
		{"layers", nil},
		{"layers", []float64{1.5}}, // model axes are integral
		{"meta_cache_kb", []float64{-3}},
		{"link_gbs", make([]float64, 65)}, // over the per-axis cap
	} {
		if tc.axis == "link_gbs" {
			for i := range tc.values {
				tc.values[i] = float64(i + 1)
			}
		}
		_, _, err := NormalizeAxis(tc.axis, tc.values)
		if !errors.Is(err, ErrInvalidSpec) || !errors.Is(err, ErrBadSweep) {
			t.Errorf("NormalizeAxis(%q, %v) error = %v, want ErrInvalidSpec+ErrBadSweep", tc.axis, tc.values, err)
		}
	}

	// A campaign axis value beyond the int range is rejected before any
	// conversion, naming the value sent.
	_, _, err = NormalizeAxis("meta_cache_kb", []float64{1e30})
	const want = "scenario: invalid spec: override meta_cache_kb 1000000000000000000000000000000 above the 262144 simulation bound"
	if err == nil || err.Error() != want {
		t.Errorf("NormalizeAxis(meta_cache_kb, 1e30) error = %v, want %s", err, want)
	}
}

func TestApplyAxisModelDimension(t *testing.T) {
	in := Spec{Model: ModelSpec{Layers: 2, Hidden: 256, Heads: 4}}
	out, err := ApplyAxis(in, "layers", 7)
	if err != nil {
		t.Fatalf("ApplyAxis: %v", err)
	}
	if out.Model.Layers != 7 || out.Model.Hidden != 256 {
		t.Fatalf("applied model = %+v", out.Model)
	}
	if in.Model.Layers != 2 {
		t.Fatalf("input mutated: %+v", in.Model)
	}
}

func TestApplyAxisOverrideDoesNotAliasInput(t *testing.T) {
	shared := &Overrides{MetaCacheKB: 16, DRAMChannels: 3}
	in := Spec{
		Model: ModelSpec{Layers: 2, Hidden: 256, Heads: 4},
		Systems: []SystemSpec{
			{Kind: "sgx-mgx", Overrides: shared},
			{Kind: "tensortee"},
		},
	}
	out, err := ApplyAxis(in, "meta_cache_kb", 64)
	if err != nil {
		t.Fatalf("ApplyAxis: %v", err)
	}
	// Axis value wins over the system's own override on every system.
	for i, sys := range out.Systems {
		if sys.Overrides == nil || sys.Overrides.MetaCacheKB != 64 {
			t.Fatalf("system %d overrides = %+v, want meta cache 64", i, sys.Overrides)
		}
	}
	// Other override fields survive the copy.
	if out.Systems[0].Overrides.DRAMChannels != 3 {
		t.Fatalf("dram channels lost: %+v", out.Systems[0].Overrides)
	}
	// The shared input override is untouched (deep copy, no aliasing).
	if shared.MetaCacheKB != 16 {
		t.Fatalf("input override mutated: %+v", shared)
	}

	if _, err := ApplyAxis(in, "bogus", 1); !errors.Is(err, ErrBadSweep) {
		t.Fatalf("unknown axis error = %v", err)
	}
}

// jsonFields returns the JSON names of v's struct fields, in order,
// keeping those for which keep holds.
func jsonFields(v any, keep func(reflect.Value) bool) []string {
	rv := reflect.ValueOf(v)
	var names []string
	for i := 0; i < rv.NumField(); i++ {
		if keep(rv.Field(i)) {
			name, _, _ := strings.Cut(rv.Type().Field(i).Tag.Get("json"), ",")
			names = append(names, name)
		}
	}
	return names
}

// TestKnobTableMatchesOverrides pins the axis tables to the structs they
// address: every JSON-tagged Overrides field except mee_mode has exactly
// one knobs entry, every ModelSpec dimension one dims entry, each in
// field order and addressing its own field; and only knobs carry a cost
// weight.
func TestKnobTableMatchesOverrides(t *testing.T) {
	numeric := func(f reflect.Value) bool { return f.Kind() != reflect.String }
	nonZero := func(f reflect.Value) bool { return !f.IsZero() }

	fields := jsonFields(Overrides{}, numeric)
	if len(fields) != len(knobs) {
		t.Fatalf("Overrides has numeric fields %v, knobs has %d entries", fields, len(knobs))
	}
	for i := range knobs {
		k := &knobs[i]
		if k.name != fields[i] {
			t.Errorf("knobs[%d] = %q, want %q (field order)", i, k.name, fields[i])
		}
		if (k.intField == nil) == (k.gbsField == nil) {
			t.Errorf("%s: want exactly one of intField and gbsField", k.name)
			continue
		}
		var o Overrides
		k.set(&o, 3)
		if set := jsonFields(o, nonZero); len(set) != 1 || set[0] != k.name || k.get(&o) != 3 {
			t.Errorf("%s: set 3 changed fields %v, get returns %v", k.name, set, k.get(&o))
		}
		for _, kind := range []config.SystemKind{config.NonSecure, config.BaselineSGXMGX, config.TensorTEE} {
			cfg := config.Default(kind)
			if k.write(&cfg, k.def); cfg != config.Default(kind) {
				t.Errorf("%s: default %v is not the Table-1 setting of kind %v", k.name, k.def, kind)
			}
			if k.write(&cfg, 3); cfg == config.Default(kind) {
				t.Errorf("%s: write leaves the kind %v config unchanged", k.name, kind)
			}
		}
		if k.cost <= 0 || CostWeight(k.name) != k.cost {
			t.Errorf("%s: cost weight %v, CostWeight %v", k.name, k.cost, CostWeight(k.name))
		}
	}

	dimFields := jsonFields(ModelSpec{}, numeric)
	if len(dimFields) != len(dims) {
		t.Fatalf("ModelSpec has dimensions %v, dims has %d entries", dimFields, len(dims))
	}
	for i, d := range dims {
		if d.name != dimFields[i] {
			t.Errorf("dims[%d] = %q, want %q (field order)", i, d.name, dimFields[i])
		}
		var m ModelSpec
		*d.field(&m) = 3
		if set := jsonFields(m, nonZero); len(set) != 1 || set[0] != d.name {
			t.Errorf("%s: field accessor set %v", d.name, set)
		}
		if CostWeight(d.name) != 0 {
			t.Errorf("model axis %s has cost weight %v", d.name, CostWeight(d.name))
		}
	}
	if CostWeight("no_such_axis") != 0 {
		t.Error("unknown axis has a cost weight")
	}
}
