package scenario

import (
	"encoding/json"
	"errors"
	"math"
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
		{"meta cache above bound", func(s *Spec) { s.Systems[0].Overrides = &Overrides{MetaCacheKB: 1<<18 + 1} }, nil},
		{"meta cache would overflow shift", func(s *Spec) { s.Systems[0].Overrides = &Overrides{MetaCacheKB: 1 << 54} }, nil},
		{"dram channels above bound", func(s *Spec) { s.Systems[0].Overrides = &Overrides{DRAMChannels: 65} }, nil},
		{"aes engines above bound", func(s *Spec) { s.Systems[0].Overrides = &Overrides{NPUAESEngines: 1025} }, nil},
		{"mac granularity above bound", func(s *Spec) { s.Systems[0].Overrides = &Overrides{MACGranBytes: 1<<20 + 1} }, nil},
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
		{"swept dim beyond int range", func(s *Spec) { s.Sweep = &Sweep{Axis: "layers", Values: []float64{1e30}} }, nil},
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

	// Exact error text, the 400 body of POST /v1/scenarios: every override
	// knob just below its minimum and just above its bound, set directly
	// and swept, plus every model dimension above its bound.
	ov := func(o Overrides) func(*Spec) { return func(s *Spec) { s.Systems[0].Overrides = &o } }
	sweep := func(axis string, v float64) func(*Spec) {
		return func(s *Spec) { s.Sweep = &Sweep{Axis: axis, Values: []float64{v}} }
	}
	const pre = "scenario: invalid spec: "
	exact := []struct {
		mutate func(*Spec)
		msg    string
	}{
		{ov(Overrides{MetaCacheKB: -1}), pre + "override meta_cache_kb must be positive, got -1"},
		{ov(Overrides{MetaCacheKB: 262145}), pre + "override meta_cache_kb 262145 above the 262144 simulation bound"},
		{ov(Overrides{DRAMChannels: -1}), pre + "override dram_channels must be positive, got -1"},
		{ov(Overrides{DRAMChannels: 65}), pre + "override dram_channels 65 above the 64 simulation bound"},
		{ov(Overrides{NPUAESEngines: -1}), pre + "override npu_aes_engines must be positive, got -1"},
		{ov(Overrides{NPUAESEngines: 1025}), pre + "override npu_aes_engines 1025 above the 1024 simulation bound"},
		{ov(Overrides{NPUBandwidthGBs: -1}), pre + "override npu_bandwidth_gbs must be a positive finite number, got -1"},
		{ov(Overrides{NPUBandwidthGBs: 1e6 + 1}), pre + "override npu_bandwidth_gbs 1.000001e+06 above the 1e+06 GB/s simulation bound"},
		{ov(Overrides{NPUBandwidthGBs: math.NaN()}), pre + "override npu_bandwidth_gbs must be a positive finite number, got NaN"},
		{ov(Overrides{LinkGBs: -0.5}), pre + "override link_gbs must be a positive finite number, got -0.5"},
		{ov(Overrides{LinkGBs: 1000000.5}), pre + "override link_gbs 1.0000005e+06 above the 1e+06 GB/s simulation bound"},
		{ov(Overrides{LinkGBs: math.Inf(1)}), pre + "override link_gbs must be a positive finite number, got +Inf"},
		{ov(Overrides{StagingGBs: -1}), pre + "override staging_gbs must be a positive finite number, got -1"},
		{ov(Overrides{StagingGBs: 1e6 + 1}), pre + "override staging_gbs 1.000001e+06 above the 1e+06 GB/s simulation bound"},
		{ov(Overrides{MACGranBytes: -1}), pre + "override mac_gran_bytes must be positive, got -1"},
		{ov(Overrides{MACGranBytes: 32}), pre + "system tensortee at GPT2-M: config: Protection.MACGranBytes 32 below line size 64"},
		{ov(Overrides{MACGranBytes: 1048577}), pre + "override mac_gran_bytes 1048577 above the 1048576 simulation bound"},
		{ov(Overrides{RegionMB: -1}), pre + "override region_mb must be positive, got -1"},
		{ov(Overrides{RegionMB: 63}), pre + "scenario: override would break calibration: region_mb 63 is below the 64 MB calibration window"},
		{ov(Overrides{RegionMB: 1025}), pre + "region_mb 1025 above the 1024 MB simulation bound"},
		{sweep("meta_cache_kb", 262145), pre + "override meta_cache_kb 262145 above the 262144 simulation bound"},
		{sweep("dram_channels", 65), pre + "override dram_channels 65 above the 64 simulation bound"},
		{sweep("npu_aes_engines", 1025), pre + "override npu_aes_engines 1025 above the 1024 simulation bound"},
		{sweep("npu_bandwidth_gbs", 1e6+1), pre + "override npu_bandwidth_gbs 1.000001e+06 above the 1e+06 GB/s simulation bound"},
		{sweep("link_gbs", 1000000.5), pre + "override link_gbs 1.0000005e+06 above the 1e+06 GB/s simulation bound"},
		{sweep("staging_gbs", 1e6+1), pre + "override staging_gbs 1.000001e+06 above the 1e+06 GB/s simulation bound"},
		{sweep("mac_gran_bytes", 32), pre + "system tensortee at mac_gran_bytes=32: config: Protection.MACGranBytes 32 below line size 64"},
		{sweep("mac_gran_bytes", 1048577), pre + "override mac_gran_bytes 1048577 above the 1048576 simulation bound"},
		{sweep("mac_gran_bytes", 64.5), pre + "scenario: invalid sweep: axis \"mac_gran_bytes\" takes integers, got 64.5"},
		{sweep("region_mb", 63), pre + "scenario: override would break calibration: region_mb 63 is below the 64 MB calibration window"},
		{sweep("region_mb", 1025), pre + "region_mb 1025 above the 1024 MB simulation bound"},
		{sweep("meta_cache_kb", 1e30), pre + "override meta_cache_kb 1000000000000000000000000000000 above the 262144 simulation bound"},
		{sweep("dram_channels", 1e19), pre + "override dram_channels 10000000000000000000 above the 64 simulation bound"},
		{sweep("region_mb", 1e30), pre + "region_mb 1000000000000000000000000000000 above the 1024 MB simulation bound"},
		{sweep("layers", 1e30), pre + "model layers 1000000000000000000000000000000 above the 10000 simulation bound"},
		{sweep("voltage", 1), pre + "scenario: invalid sweep: unknown axis \"voltage\" (want one of batch, dram_channels, ffn, heads, hidden, layers, link_gbs, mac_gran_bytes, meta_cache_kb, npu_aes_engines, npu_bandwidth_gbs, region_mb, seqlen, staging_gbs, vocab)"},
		{func(s *Spec) { s.Model.Heads = -1 }, pre + "model heads must be positive, got -1"},
		{func(s *Spec) { s.Model.SeqLen = -5 }, pre + "model seqlen must be positive, got -5"},
		{sweep("layers", 10001), pre + "model layers 10001 above the 10000 simulation bound"},
		{sweep("hidden", 1<<18+1), pre + "model hidden 262145 above the 262144 simulation bound"},
		{sweep("heads", 4097), pre + "model heads 4097 above the 4096 simulation bound"},
		{sweep("ffn", 1<<21+1), pre + "model ffn 2097153 above the 2097152 simulation bound"},
		{sweep("vocab", 4_000_001), pre + "model vocab 4000001 above the 4000000 simulation bound"},
		{sweep("batch", 65537), pre + "model batch 65537 above the 65536 simulation bound"},
		{sweep("seqlen", 1<<20+1), pre + "model seqlen 1048577 above the 1048576 simulation bound"},
	}
	for _, tc := range exact {
		spec := minimal()
		tc.mutate(&spec)
		if err := spec.Validate(); err == nil || err.Error() != tc.msg {
			t.Errorf("Validate error = %v\n                want %s", err, tc.msg)
		}
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

	// System labels: every knob at its minimum, restating its default
	// (which normalizes away), at its maximum, and fractional bandwidths.
	// Integral knobs keep integer formatting at any size.
	labelled, err := Compile(Spec{
		Model: ModelSpec{Name: "GPT2-M"},
		Systems: []SystemSpec{
			{Kind: "sgx-mgx", Overrides: &Overrides{MetaCacheKB: 1, DRAMChannels: 1, NPUAESEngines: 1,
				NPUBandwidthGBs: 0.001, LinkGBs: 0.25, StagingGBs: 1.5, MACGranBytes: 64, RegionMB: 64}},
			{Kind: "tensortee", Overrides: &Overrides{MEEMode: "tensor", MetaCacheKB: 32, DRAMChannels: 2,
				NPUAESEngines: 1, NPUBandwidthGBs: 128, LinkGBs: 26, StagingGBs: 12, MACGranBytes: 64}},
			{Kind: "tensortee", Overrides: &Overrides{MEEMode: "SGX", MetaCacheKB: 262144, DRAMChannels: 64,
				NPUAESEngines: 1024, NPUBandwidthGBs: 1e6, LinkGBs: 1e6, StagingGBs: 1e6,
				MACGranBytes: 1048576, RegionMB: 1024}},
			{Kind: "non-secure", Overrides: &Overrides{NPUBandwidthGBs: 96.5, LinkGBs: 12.5, StagingGBs: 0.125}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantLabels := []string{
		"sgx-mgx[meta_cache_kb=1,dram_channels=1,npu_bandwidth_gbs=0.001,link_gbs=0.25,staging_gbs=1.5,region_mb=64]",
		"tensortee",
		"tensortee[mee_mode=sgx,meta_cache_kb=262144,dram_channels=64,npu_aes_engines=1024,npu_bandwidth_gbs=1e+06,link_gbs=1e+06,staging_gbs=1e+06,mac_gran_bytes=1048576,region_mb=1024]",
		"non-secure[npu_bandwidth_gbs=96.5,link_gbs=12.5,staging_gbs=0.125]",
	}
	for i, want := range wantLabels {
		if got := labelled.SystemLabels[i]; got != want {
			t.Errorf("system %d label = %q, want %q", i, got, want)
		}
	}

	// A sweep on every axis: each value resolves into every system's
	// configuration (over the system's own override) or the model, and
	// labels its point with %g formatting.
	cpu := func(f func(config.Config) float64) func(Point, int) float64 {
		return func(p Point, i int) float64 { return f(p.Configs[i]) }
	}
	axes := []struct {
		axis   string
		values []float64
		labels []string
		got    func(Point, int) float64
	}{
		{"layers", []float64{1, 24, 10000}, []string{"layers=1", "layers=24", "layers=10000"},
			func(p Point, _ int) float64 { return float64(p.Model.Layers) }},
		{"hidden", []float64{16, 1024, 262144}, []string{"hidden=16", "hidden=1024", "hidden=262144"},
			func(p Point, _ int) float64 { return float64(p.Model.Hidden) }},
		{"heads", []float64{1, 16, 1024}, []string{"heads=1", "heads=16", "heads=1024"},
			func(p Point, _ int) float64 { return float64(p.Model.Heads) }},
		{"ffn", []float64{1, 4096, 2097152}, []string{"ffn=1", "ffn=4096", "ffn=2.097152e+06"},
			func(p Point, _ int) float64 { return float64(p.Model.FFNDim) }},
		{"vocab", []float64{1, 50257, 4e6}, []string{"vocab=1", "vocab=50257", "vocab=4e+06"},
			func(p Point, _ int) float64 { return float64(p.Model.Vocab) }},
		{"batch", []float64{1, 4, 65536}, []string{"batch=1", "batch=4", "batch=65536"},
			func(p Point, _ int) float64 { return float64(p.Model.BatchSize) }},
		{"seqlen", []float64{1, 1024, 1048576}, []string{"seqlen=1", "seqlen=1024", "seqlen=1.048576e+06"},
			func(p Point, _ int) float64 { return float64(p.Model.SeqLen) }},
		{"meta_cache_kb", []float64{1, 32, 262144}, []string{"meta_cache_kb=1", "meta_cache_kb=32", "meta_cache_kb=262144"},
			cpu(func(c config.Config) float64 { return float64(c.CPU.MetaCacheSize >> 10) })},
		{"dram_channels", []float64{1, 2, 64}, []string{"dram_channels=1", "dram_channels=2", "dram_channels=64"},
			cpu(func(c config.Config) float64 { return float64(c.HostDRAM.Channels) })},
		{"npu_aes_engines", []float64{1, 2, 1024}, []string{"npu_aes_engines=1", "npu_aes_engines=2", "npu_aes_engines=1024"},
			cpu(func(c config.Config) float64 { return float64(c.NPU.AESEngines) })},
		{"npu_bandwidth_gbs", []float64{0.5, 128, 1e6}, []string{"npu_bandwidth_gbs=0.5", "npu_bandwidth_gbs=128", "npu_bandwidth_gbs=1e+06"},
			cpu(func(c config.Config) float64 { return c.NPU.DRAMBandwidthBs / 1e9 })},
		{"link_gbs", []float64{0.25, 26, 1e6}, []string{"link_gbs=0.25", "link_gbs=26", "link_gbs=1e+06"},
			cpu(func(c config.Config) float64 { return c.Comm.LinkBandwidthBs / 1e9 })},
		{"staging_gbs", []float64{1.5, 12, 1e6}, []string{"staging_gbs=1.5", "staging_gbs=12", "staging_gbs=1e+06"},
			cpu(func(c config.Config) float64 { return c.Comm.StagingBandwidthBs / 1e9 })},
		{"mac_gran_bytes", []float64{64, 4096, 1048576}, []string{"mac_gran_bytes=64", "mac_gran_bytes=4096", "mac_gran_bytes=1.048576e+06"},
			cpu(func(c config.Config) float64 { return float64(c.Protection.MACGranBytes) })},
		{"region_mb", []float64{64, 256, 1024}, []string{"region_mb=64", "region_mb=256", "region_mb=1024"},
			cpu(func(c config.Config) float64 { return float64(c.CPU.ProtectedBytes >> 20) })},
	}
	own := &Overrides{MetaCacheKB: 64, DRAMChannels: 4, NPUAESEngines: 4, NPUBandwidthGBs: 64,
		LinkGBs: 8, StagingGBs: 8, MACGranBytes: 512, RegionMB: 128}
	for _, ax := range axes {
		plan, err := Compile(Spec{
			Model:   ModelSpec{Name: "GPT2-M"},
			Systems: []SystemSpec{{Kind: "sgx-mgx"}, {Kind: "tensortee", Overrides: own}},
			Sweep:   &Sweep{Axis: ax.axis, Values: ax.values},
		})
		if err != nil {
			t.Errorf("sweep %s: %v", ax.axis, err)
			continue
		}
		for pi, pt := range plan.Points {
			if pt.Label != ax.labels[pi] {
				t.Errorf("sweep %s point %d label = %q, want %q", ax.axis, pi, pt.Label, ax.labels[pi])
			}
			for si := range pt.Configs {
				if got := ax.got(pt, si); got != ax.values[pi] {
					t.Errorf("sweep %s point %d system %d resolved %v, want %v", ax.axis, pi, si, got, ax.values[pi])
				}
			}
		}
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

	// Exact fingerprints: they key the result cache and the store, so
	// equal specs must keep hashing to the same bytes across releases.
	// Each knob at its minimum, at its maximum, with fractional
	// bandwidths, restating the sgx-mgx defaults, and swept.
	fp := func(o *Overrides, sw *Sweep) string {
		s := Spec{Model: ModelSpec{Name: "GPT2-M"}, Systems: []SystemSpec{{Kind: "sgx-mgx", Overrides: o}}, Sweep: sw}
		return s.Fingerprint()
	}
	for _, tc := range []struct {
		name string
		got  string
		want string
	}{
		{"plain", a.Fingerprint(), "155771292aa92f10bdc7bdf6fdd8bfda"},
		{"minimum", fp(&Overrides{MetaCacheKB: 1, DRAMChannels: 1, NPUAESEngines: 1, NPUBandwidthGBs: 0.001,
			LinkGBs: 0.25, StagingGBs: 1.5, MACGranBytes: 64, RegionMB: 64}, nil), "93804aef693986d1c78ba07c41a5d51b"},
		{"maximum", fp(&Overrides{MEEMode: "tensor", MetaCacheKB: 262144, DRAMChannels: 64, NPUAESEngines: 1024,
			NPUBandwidthGBs: 1e6, LinkGBs: 1e6, StagingGBs: 1e6, MACGranBytes: 1048576, RegionMB: 1024}, nil), "968880378c02ed526918e0d6914f274e"},
		{"fractional", fp(&Overrides{NPUBandwidthGBs: 96.5, LinkGBs: 12.5, StagingGBs: 0.125}, nil), "5c25a801d92441ee7720f4a272c8e6e5"},
		{"defaults restated", fp(&Overrides{MEEMode: "sgx", MetaCacheKB: 32, DRAMChannels: 2, NPUAESEngines: 1,
			NPUBandwidthGBs: 128, LinkGBs: 26, StagingGBs: 12, MACGranBytes: 64}, nil), "05dc078df5eaee45ff3c5598d3b9dbd4"},
		{"swept", fp(&Overrides{LinkGBs: 12.5}, &Sweep{Axis: "MAC_GRAN_BYTES", Values: []float64{64, 1048576}}), "32c57f27e681bbe91c30a486bc1d2ba2"},
	} {
		if tc.got != tc.want {
			t.Errorf("%s fingerprint = %s, want %s", tc.name, tc.got, tc.want)
		}
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
