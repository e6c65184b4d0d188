// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per artifact; see DESIGN.md §3 for the experiment index
// and EXPERIMENTS.md for the paper-vs-measured record), plus ablation
// benches for the design choices.
//
// Headline numbers are surfaced as custom benchmark metrics, so
// `go test -bench . -benchmem` prints both the regeneration cost and the
// reproduced result.
package tensortee

import (
	"context"
	"testing"

	"tensortee/internal/config"
	"tensortee/internal/core"
	"tensortee/internal/experiments"
	"tensortee/internal/npumac"
	"tensortee/internal/npusim"
	"tensortee/internal/tenanalyzer"
	"tensortee/internal/workload"
)

// benchExperiment runs one experiment generator per iteration and reports
// the requested scalar metrics.
func benchExperiment(b *testing.B, id string, metrics ...string) {
	b.Helper()
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = experiments.Run(id)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, m := range metrics {
		if v, ok := rep.Scalars[m]; ok {
			b.ReportMetric(v, m)
		}
	}
}

// --- one benchmark per paper artifact ---------------------------------------

func BenchmarkTab1Config(b *testing.B)    { benchExperiment(b, "tab1") }
func BenchmarkTab2Workloads(b *testing.B) { benchExperiment(b, "tab2", "models") }

func BenchmarkFig3AdamThreads(b *testing.B) {
	benchExperiment(b, "fig3", "max_slowdown")
}

func BenchmarkFig4TensorStats(b *testing.B) {
	benchExperiment(b, "fig4", "max_tensor_count")
}

func BenchmarkFig5Breakdown(b *testing.B) {
	benchExperiment(b, "fig5", "baseline_comm_frac", "nonsecure_comm_frac")
}

func BenchmarkFig15Overlap(b *testing.B) {
	benchExperiment(b, "fig15", "overlap_gain")
}

func BenchmarkFig16Overall(b *testing.B) {
	benchExperiment(b, "fig16", "avg_speedup", "max_speedup", "avg_overhead_pct")
}

func BenchmarkFig17Breakdown(b *testing.B) {
	benchExperiment(b, "fig17")
}

func BenchmarkFig18HitRate(b *testing.B) {
	benchExperiment(b, "fig18", "final_hit_in", "final_hit_all")
}

func BenchmarkFig19CPUCompare(b *testing.B) {
	benchExperiment(b, "fig19", "sgx_8t", "tte_final_8t")
}

func BenchmarkFig20MACSweep(b *testing.B) {
	benchExperiment(b, "fig20", "norm_4096B", "norm_ours")
}

func BenchmarkFig21GradComm(b *testing.B) {
	benchExperiment(b, "fig21", "avg_raw_ratio")
}

func BenchmarkGEMMDetection(b *testing.B) {
	benchExperiment(b, "gemm", "hit_in")
}

func BenchmarkHWOverhead(b *testing.B) {
	benchExperiment(b, "hw", "total_kb")
}

// --- ablations (design choices DESIGN.md calls out) ---------------------------

// BenchmarkAblationMergeBudget sweeps the Meta Table merge bandwidth: with
// merging disabled, parallel chunk entries never consolidate.
func BenchmarkAblationMergeBudget(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, budget := range []int{1, 2, 4} {
			cfg := tenanalyzer.DefaultConfig()
			cfg.MergeBudget = budget
			store := tenanalyzer.NewArrayVNStore(0, 64*1<<16, 64)
			an := tenanalyzer.New(cfg, store)
			for c := 0; c < 8; c++ {
				base := uint64(c * 8192 * 64)
				for i := 0; i < 8192; i++ {
					an.Read(base + uint64(i*64))
				}
			}
			for c := 0; c < 8; c++ {
				base := uint64(c * 8192 * 64)
				for i := 0; i < 8192; i++ {
					an.Write(base + uint64(i*64))
				}
			}
			if budget == 2 {
				b.ReportMetric(float64(an.LiveEntries()), "live_entries_b2")
			}
		}
	}
}

// BenchmarkAblationBoundaryExtension contrasts detection with and without
// hit-boundary extension ("gradual coverage", Figure 10): without it the
// filter must detect every 4-line fragment at full metadata cost.
func BenchmarkAblationBoundaryExtension(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, disable := range []bool{false, true} {
			cfg := tenanalyzer.DefaultConfig()
			cfg.DisableBoundaryExt = disable
			store := tenanalyzer.NewArrayVNStore(0, 64*1<<15, 64)
			an := tenanalyzer.New(cfg, store)
			for i := 0; i < 1<<15; i++ {
				an.Read(uint64(i * 64))
			}
			if disable {
				b.ReportMetric(float64(an.Stats().Miss), "misses_noext")
			} else {
				b.ReportMetric(float64(an.Stats().Miss), "misses_ext")
			}
		}
	}
}

// BenchmarkAblationFilterDepth sweeps the Tensor Filter collection depth
// (4 in the paper): deeper filters detect later but more conservatively.
func BenchmarkAblationFilterDepth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, depth := range []int{2, 4, 8} {
			cfg := tenanalyzer.DefaultConfig()
			cfg.FilterDepth = depth
			store := tenanalyzer.NewArrayVNStore(0, 64*1<<14, 64)
			an := tenanalyzer.New(cfg, store)
			for i := 0; i < 1<<14; i++ {
				an.Read(uint64(i * 64))
			}
			if depth == 4 {
				b.ReportMetric(an.Stats().HitAllRate(), "hit_all_d4")
			}
		}
	}
}

// BenchmarkAblationMetaTableCapacity runs the over-capacity regime of the
// Section 6.2 scalability note: more tensors than Meta Table entries.
func BenchmarkAblationMetaTableCapacity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, entries := range []int{128, 512, 2048} {
			cfg := tenanalyzer.DefaultConfig()
			cfg.Entries = entries
			store := tenanalyzer.NewArrayVNStore(0, 64*1<<18, 64)
			an := tenanalyzer.New(cfg, store)
			// 1024 small tensors of 64 lines each: exceeds 512 entries.
			for t := 0; t < 1024; t++ {
				base := uint64(t * 64 * 64)
				for i := 0; i < 64; i++ {
					an.Read(base + uint64(i*64))
				}
			}
			an.ResetStats()
			for t := 0; t < 1024; t++ {
				base := uint64(t * 64 * 64)
				for i := 0; i < 64; i++ {
					an.Read(base + uint64(i*64))
				}
			}
			if entries == 512 {
				b.ReportMetric(an.Stats().HitInRate(), "hit_in_512e")
			}
			if entries == 2048 {
				b.ReportMetric(an.Stats().HitInRate(), "hit_in_2048e")
			}
		}
	}
}

// BenchmarkAblationDelayedVerificationCap sweeps the unverified-tensor cap
// of Section 4.3.
func BenchmarkAblationDelayedVerificationCap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, cap := range []int{1, 16, 64} {
			v := npumac.NewVerifier(cap)
			stalls := 0
			for t := 0; t < 256; t++ {
				if v.AtCapacity() {
					stalls++
					// drain one
					v.AccumulateLine(npumac.TensorID(t-cap), 0)
					v.CompleteRead(npumac.TensorID(t - cap))
				}
				v.BeginRead(npumac.TensorID(t), 0)
			}
			if cap == 1 {
				b.ReportMetric(float64(stalls), "stalls_cap1")
			}
		}
	}
}

// BenchmarkAblationDataflow contrasts the output-stationary mapping
// (paper's TPUv3 configuration) with a weight-stationary alternative on
// the GPT2-M forward layers.
func BenchmarkAblationDataflow(b *testing.B) {
	cfgSys := config.Default(config.BaselineSGXMGX)
	m, err := workload.ModelByName("GPT2-M")
	if err != nil {
		b.Fatal(err)
	}
	layers := m.ForwardGEMMs()
	for i := 0; i < b.N; i++ {
		osCfg := npusim.FromSystem(&cfgSys, npumac.SchemeCacheline, 64)
		osCfg.Secure = false
		osTotal := npusim.New(osCfg).RunLayers(layers).Total

		wsCfg := osCfg
		wsCfg.Dataflow = npusim.WeightStationary
		wsTotal := npusim.New(wsCfg).RunLayers(layers).Total

		b.ReportMetric(float64(wsTotal)/float64(osTotal), "ws_over_os")
	}
}

// BenchmarkAblationNPUGranularityFine contrasts the NPU MAC schemes on a
// single large layer (isolating the stall model from the sweep harness).
func BenchmarkAblationNPUGranularityFine(b *testing.B) {
	cfgSys := config.Default(config.BaselineSGXMGX)
	layer := npusim.GEMM{Name: "ffn", M: 1 << 14, K: 4096, N: 4096}
	for i := 0; i < b.N; i++ {
		base := npusim.FromSystem(&cfgSys, npumac.SchemeCacheline, 64)
		base.Secure = false
		ns := npusim.New(base).RunGEMM(layer).Total

		sec := npusim.FromSystem(&cfgSys, npumac.SchemeCoarse, 4096)
		sec.Secure = true
		coarse := npusim.New(sec).RunGEMM(layer).Total

		del := npusim.FromSystem(&cfgSys, npumac.SchemeTensorDelayed, 64)
		del.Secure = true
		delayed := npusim.New(del).RunGEMM(layer).Total

		b.ReportMetric(float64(coarse)/float64(ns), "coarse4k_norm")
		b.ReportMetric(float64(delayed)/float64(ns), "delayed_norm")
	}
}

// BenchmarkAblationCPUCalibration measures the cost of building a
// calibrated system (the CPU-simulation sample).
func BenchmarkAblationCPUCalibration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.NewSystem(config.TensorTEE); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainStepAllModels times the full 12-model x 3-system sweep
// (the fig16 workload without report rendering).
func BenchmarkTrainStepAllModels(b *testing.B) {
	systems := make([]*core.System, 0, 3)
	for _, k := range []config.SystemKind{config.NonSecure, config.BaselineSGXMGX, config.TensorTEE} {
		s, err := core.NewSystem(k)
		if err != nil {
			b.Fatal(err)
		}
		systems = append(systems, s)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range systems {
			for _, m := range workload.Models() {
				s.TrainStep(m)
			}
		}
	}
}

// BenchmarkScenarioFill times one uncached custom-scenario fill on the
// three default systems (calibrations already cached, no store): the
// model compile plus three TrainSteps and the report, as a daemon
// scenario POST computes it.
func BenchmarkScenarioFill(b *testing.B) {
	r := NewRunner()
	spec := Scenario{
		Name:    "bench-fill",
		Model:   ScenarioModel{Layers: 24, Hidden: 1024, Heads: 16, FFNDim: 4096, Vocab: 50257, Batch: 4, SeqLen: 1024},
		Systems: []ScenarioSystem{{Kind: "non-secure"}, {Kind: "sgx-mgx"}, {Kind: "tensortee"}},
	}
	ctx := context.Background()
	if _, err := r.RunScenario(ctx, spec); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.RunScenario(ctx, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFunctionalTransfer measures the functional direct-transfer path
// (real crypto) per megabyte.
func BenchmarkFunctionalTransfer(b *testing.B) {
	p, err := NewPlatform(WithRegionBytes(4 << 20))
	if err != nil {
		b.Fatal(err)
	}
	vals := make([]float32, 1<<18) // 1 MB
	if _, err := p.CreateTensor(NPUSide, "t", vals); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Transfer(NPUSide, "t"); err != nil {
			b.Fatal(err)
		}
		if err := p.VerifyBarrier("t"); err != nil {
			b.Fatal(err)
		}
	}
}

// sanity guard so the bench file also runs under plain `go test`.
func TestBenchHarnessSmoke(t *testing.T) {
	if _, err := experiments.Run("tab2"); err != nil {
		t.Fatal(err)
	}
}
