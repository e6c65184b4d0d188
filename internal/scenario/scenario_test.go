package scenario

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"tensortee/internal/config"
	"tensortee/internal/core"
	"tensortee/internal/experiments"
)

// minimal returns a valid one-system spec to mutate per case.
func minimal() Spec {
	return Spec{
		Model:   ModelSpec{Name: "GPT2-M"},
		Systems: []SystemSpec{{Kind: "tensortee"}},
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name     string
		mutate   func(*Spec)
		sentinel error
	}{
		{"unknown model", func(s *Spec) { s.Model.Name = "GPT-9000" }, ErrUnknownModel},
		{"no systems", func(s *Spec) { s.Systems = nil }, nil},
		{"unknown kind", func(s *Spec) { s.Systems[0].Kind = "enclave9" }, nil},
		{"custom model missing dims", func(s *Spec) { s.Model = ModelSpec{Layers: 4} }, nil},
		{"negative model dim", func(s *Spec) { s.Model.Hidden = -1 }, nil},
		{"hidden not divisible by heads", func(s *Spec) { s.Model = ModelSpec{Layers: 2, Hidden: 100, Heads: 3} }, nil},
		{"unknown metric", func(s *Spec) { s.Metrics = []string{"total", "joules"} }, ErrUnknownMetric},
		{"unknown sweep axis", func(s *Spec) { s.Sweep = &Sweep{Axis: "voltage", Values: []float64{1}} }, ErrBadSweep},
		{"empty sweep values", func(s *Spec) { s.Sweep = &Sweep{Axis: "hidden"} }, ErrBadSweep},
		{"zero sweep bound", func(s *Spec) { s.Sweep = &Sweep{Axis: "hidden", Values: []float64{1024, 0}} }, ErrBadSweep},
		{"negative sweep bound", func(s *Spec) { s.Sweep = &Sweep{Axis: "meta_cache_kb", Values: []float64{-64}} }, ErrBadSweep},
		{"fractional integer axis", func(s *Spec) { s.Sweep = &Sweep{Axis: "dram_channels", Values: []float64{1.5}} }, ErrBadSweep},
		{"negative override", func(s *Spec) { s.Systems[0].Overrides = &Overrides{MetaCacheKB: -1} }, nil},
		{"unknown mee mode", func(s *Spec) { s.Systems[0].Overrides = &Overrides{MEEMode: "fhe"} }, nil},
		{"mee mode on non-secure", func(s *Spec) {
			s.Systems = []SystemSpec{{Kind: "non-secure", Overrides: &Overrides{MEEMode: "tensor"}}}
		}, nil},
		{"mee off on secure kind", func(s *Spec) { s.Systems[0].Overrides = &Overrides{MEEMode: "off"} }, nil},
		{"region below calibration window", func(s *Spec) { s.Systems[0].Overrides = &Overrides{RegionMB: 16} }, ErrUnsafeOverride},
		{"region swept below calibration window", func(s *Spec) {
			s.Sweep = &Sweep{Axis: "region_mb", Values: []float64{16}}
		}, ErrUnsafeOverride},
		{"region above bound", func(s *Spec) { s.Systems[0].Overrides = &Overrides{RegionMB: 1 << 20} }, nil},
		{"meta cache above bound", func(s *Spec) { s.Systems[0].Overrides = &Overrides{MetaCacheKB: maxMetaCacheKB + 1} }, nil},
		{"meta cache would overflow shift", func(s *Spec) { s.Systems[0].Overrides = &Overrides{MetaCacheKB: 1 << 54} }, nil},
		{"dram channels above bound", func(s *Spec) { s.Systems[0].Overrides = &Overrides{DRAMChannels: maxDRAMChannels + 1} }, nil},
		{"aes engines above bound", func(s *Spec) { s.Systems[0].Overrides = &Overrides{NPUAESEngines: maxAESEngines + 1} }, nil},
		{"mac granularity above bound", func(s *Spec) { s.Systems[0].Overrides = &Overrides{MACGranBytes: maxMACGranBytes + 1} }, nil},
		{"bandwidth above bound", func(s *Spec) { s.Systems[0].Overrides = &Overrides{LinkGBs: 1e12} }, nil},
		{"swept meta cache above bound", func(s *Spec) {
			s.Sweep = &Sweep{Axis: "meta_cache_kb", Values: []float64{1e18}}
		}, nil},
		{"region would wrap shift into valid window", func(s *Spec) {
			// (1<<44)+64 MB shifted <<20 wraps an int64 to exactly 64 MB.
			s.Systems[0].Overrides = &Overrides{RegionMB: 1<<44 + 64}
		}, nil},
		{"point-system product above bound", func(s *Spec) {
			for i := 1; i < maxSystems; i++ {
				s.Systems = append(s.Systems, SystemSpec{Kind: "tensortee"})
			}
			vals := make([]float64, maxSweepPoints)
			for i := range vals {
				vals[i] = float64(i + 1)
			}
			s.Sweep = &Sweep{Axis: "layers", Values: vals}
		}, nil},
		{"mac granularity below line size", func(s *Spec) { s.Systems[0].Overrides = &Overrides{MACGranBytes: 32} }, nil},
		{"absurd model dims", func(s *Spec) { s.Model = ModelSpec{Layers: 1_000_000_000, Hidden: 65536, Heads: 2} }, nil},
		{"absurd swept dim", func(s *Spec) { s.Sweep = &Sweep{Axis: "hidden", Values: []float64{1 << 30}} }, nil},
		{"too many sweep points", func(s *Spec) {
			vals := make([]float64, maxSweepPoints+1)
			for i := range vals {
				vals[i] = float64(i + 1)
			}
			s.Sweep = &Sweep{Axis: "hidden", Values: vals}
		}, ErrBadSweep},
		{"too many systems", func(s *Spec) {
			for i := 0; i <= maxSystems; i++ {
				s.Systems = append(s.Systems, SystemSpec{Kind: "tensortee"})
			}
		}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := minimal()
			tc.mutate(&spec)
			err := spec.Validate()
			if err == nil {
				t.Fatal("Validate accepted an invalid spec")
			}
			if !errors.Is(err, ErrInvalidSpec) {
				t.Errorf("error %v does not match ErrInvalidSpec", err)
			}
			if tc.sentinel != nil && !errors.Is(err, tc.sentinel) {
				t.Errorf("error %v does not match the specific sentinel", err)
			}
		})
	}
}

// TestValidateErrorIsStable pins that a spec with two bad fields gets
// the same error on every call, naming the first bad field in
// declaration order: the error is the 400 body of POST /v1/scenarios and
// /v1/campaigns.
func TestValidateErrorIsStable(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		field  string
	}{
		{"two bad bandwidths", func(s *Spec) {
			s.Systems[0].Overrides = &Overrides{NPUBandwidthGBs: -1, StagingGBs: -3}
		}, "npu_bandwidth_gbs"},
		{"two bad model dims", func(s *Spec) { s.Model.Hidden = -1; s.Model.Vocab = -2 }, "hidden"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := minimal()
			tc.mutate(&spec)
			messages := make(map[string]int)
			for i := 0; i < 50; i++ {
				err := spec.Validate()
				if err == nil {
					t.Fatal("Validate accepted an invalid spec")
				}
				messages[err.Error()]++
			}
			if len(messages) != 1 {
				t.Fatalf("Validate gave %d different errors: %v", len(messages), messages)
			}
			for msg := range messages {
				if !strings.Contains(msg, tc.field) {
					t.Errorf("error %q does not name %s", msg, tc.field)
				}
			}
		})
	}
}

func TestValidateAccepts(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"plain zoo model", func(s *Spec) {}},
		{"custom model defaults", func(s *Spec) { s.Model = ModelSpec{Layers: 2, Hidden: 256, Heads: 4} }},
		{"zoo model reshaped", func(s *Spec) { s.Model.Hidden = 2048; s.Model.Heads = 16 }},
		{"alternate kind spellings", func(s *Spec) {
			s.Systems = []SystemSpec{{Kind: "SGX+MGX"}, {Kind: "TensorTEE"}, {Kind: "NonSecure"}}
		}},
		{"overrides", func(s *Spec) {
			s.Systems[0].Overrides = &Overrides{MEEMode: "sgx", MetaCacheKB: 64, DRAMChannels: 4,
				NPUAESEngines: 2, LinkGBs: 32, StagingGBs: 16, MACGranBytes: 512, RegionMB: 128}
		}},
		{"model sweep", func(s *Spec) { s.Sweep = &Sweep{Axis: "hidden", Values: []float64{1024, 4096, 16384}} }},
		{"override sweep", func(s *Spec) { s.Sweep = &Sweep{Axis: "meta_cache_kb", Values: []float64{64, 128, 256}} }},
		{"explicit metrics", func(s *Spec) { s.Metrics = []string{"Total", "CPU", "speedup"} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := minimal()
			tc.mutate(&spec)
			if err := spec.Validate(); err != nil {
				t.Fatalf("Validate rejected a valid spec: %v", err)
			}
		})
	}
}

func TestCompileResolvesSweepAndOverrides(t *testing.T) {
	spec := Spec{
		Name:    "meta-sweep",
		Model:   ModelSpec{Name: "GPT2-M"},
		Systems: []SystemSpec{{Kind: "sgx-mgx"}, {Kind: "tensortee", Overrides: &Overrides{DRAMChannels: 4}}},
		Sweep:   &Sweep{Axis: "META_CACHE_KB", Values: []float64{64, 256}},
	}
	plan, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(plan.Points))
	}
	for i, wantKB := range []int{64, 256} {
		pt := plan.Points[i]
		if pt.Model.Name != "GPT2-M" {
			t.Errorf("point %d model = %q", i, pt.Model.Name)
		}
		for si, cfg := range pt.Configs {
			if cfg.CPU.MetaCacheSize != wantKB<<10 {
				t.Errorf("point %d system %d MetaCacheSize = %d, want %d KB", i, si, cfg.CPU.MetaCacheSize, wantKB)
			}
		}
		if ch := pt.Configs[1].HostDRAM.Channels; ch != 4 {
			t.Errorf("point %d override channels = %d, want 4", i, ch)
		}
		if ch := pt.Configs[0].HostDRAM.Channels; ch != 2 {
			t.Errorf("point %d baseline channels = %d, want default 2", i, ch)
		}
	}
	if plan.SystemLabels[1] != "tensortee[dram_channels=4]" {
		t.Errorf("system label = %q", plan.SystemLabels[1])
	}
	// Defaulted metrics include speedup with two systems.
	joined := strings.Join(plan.Metrics, ",")
	if !strings.Contains(joined, "speedup") {
		t.Errorf("metrics %v missing speedup", plan.Metrics)
	}
}

func TestCompileCustomModelDefaults(t *testing.T) {
	plan, err := Compile(Spec{
		Model:   ModelSpec{Layers: 2, Hidden: 256, Heads: 4},
		Systems: []SystemSpec{{Kind: "non-secure"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := plan.Spec.Model
	if m.FFNDim != 1024 || m.Vocab != 50257 || m.Batch != 1 || m.SeqLen != 1024 {
		t.Errorf("defaults not applied: %+v", m)
	}
	if got := plan.Points[0].Model.FFNDim; got != 1024 {
		t.Errorf("workload FFN = %d", got)
	}
}

func TestFingerprintNormalizes(t *testing.T) {
	// Equivalent specs spelled differently share a fingerprint.
	a := Spec{Model: ModelSpec{Name: "GPT2-M"}, Systems: []SystemSpec{{Kind: "TensorTEE"}}}
	var b Spec
	if err := json.Unmarshal([]byte(`{"name":"custom","model":{"name":"GPT2-M"},"systems":[{"kind":"tensortee"}]}`), &b); err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Errorf("equivalent specs fingerprint differently: %s vs %s", a.Fingerprint(), b.Fingerprint())
	}
	c := a
	c.Systems = []SystemSpec{{Kind: "sgx-mgx"}}
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("different specs share a fingerprint")
	}
	if a.Fingerprint() == "" {
		t.Error("empty fingerprint")
	}

	// Overrides that restate the kind's Table-1 default normalize away:
	// same fingerprint and same system label as the omitted form.
	d := a
	d.Systems = []SystemSpec{{Kind: "TensorTEE", Overrides: &Overrides{
		MEEMode: "tensor", MetaCacheKB: 32, DRAMChannels: 2, NPUAESEngines: 1,
		NPUBandwidthGBs: 128, LinkGBs: 26, StagingGBs: 12, MACGranBytes: 64,
	}}}
	if a.Fingerprint() != d.Fingerprint() {
		t.Errorf("default-restating overrides change the fingerprint: %s vs %s", a.Fingerprint(), d.Fingerprint())
	}
	plan, err := Compile(d)
	if err != nil {
		t.Fatal(err)
	}
	if plan.SystemLabels[0] != "tensortee" {
		t.Errorf("default-restating overrides change the label: %q", plan.SystemLabels[0])
	}
	// A genuinely non-default field survives normalization.
	e := a
	e.Systems = []SystemSpec{{Kind: "tensortee", Overrides: &Overrides{MetaCacheKB: 64}}}
	if a.Fingerprint() == e.Fingerprint() {
		t.Error("non-default override did not change the fingerprint")
	}
}

func TestRunSmallScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario run calibrates a system")
	}
	spec := Spec{
		Name:    "smoke",
		Model:   ModelSpec{Layers: 2, Hidden: 256, Heads: 4, Batch: 1, SeqLen: 128},
		Systems: []SystemSpec{{Kind: "non-secure"}, {Kind: "non-secure", Overrides: &Overrides{StagingGBs: 24}}},
		Metrics: []string{"total", "comm", "speedup"},
	}
	rep, err := Run(nil, spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "scenario:smoke" {
		t.Errorf("id = %q", rep.ID)
	}
	if len(rep.Tables) != 1 || len(rep.Tables[0].Cells) != 2 {
		t.Fatalf("unexpected table shape: %+v", rep.Tables)
	}
	// Doubling the staging bandwidth must not slow the step down.
	tot := rep.Tables[0].Cells[0][3].Num
	tot2 := rep.Tables[0].Cells[1][3].Num
	if tot2 > tot {
		t.Errorf("faster staging slowed the step: %g -> %g", tot, tot2)
	}
	if sp := rep.Tables[0].Cells[1][5].Num; sp < 1 {
		t.Errorf("speedup = %g, want >= 1", sp)
	}
	if rep.Scalars["points"] != 1 || rep.Scalars["systems"] != 2 {
		t.Errorf("scalars = %v", rep.Scalars)
	}
}

func TestRunThroughCachingEnv(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario run calibrates a system")
	}
	// A counting provider proves Run resolves every system through the
	// environment (the Runner's cache in production).
	calls := 0
	env := &experiments.Env{Configs: func(cfg config.Config) (*core.System, error) {
		calls++
		return core.NewSystemFromConfig(cfg)
	}}
	spec := Spec{
		Model:   ModelSpec{Layers: 1, Hidden: 128, Heads: 2, Batch: 1, SeqLen: 64},
		Systems: []SystemSpec{{Kind: "non-secure"}},
	}
	if _, err := Run(env, spec); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("provider calls = %d, want 1", calls)
	}
}
