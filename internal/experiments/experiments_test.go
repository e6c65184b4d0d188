package experiments

import (
	"strings"
	"testing"

	"tensortee/internal/mee"
	"tensortee/internal/workload"
)

// Fast experiments run in every test invocation; the heavy sweeps
// (fig3/16/17/18/19/21, which calibrate or iterate CPU simulations) are
// covered by TestHeavyExperimentsBands below unless -short is set.

func TestRegistryComplete(t *testing.T) {
	want := []string{"tab1", "tab2", "fig3", "fig4", "fig5", "fig15", "fig16",
		"fig17", "fig18", "fig19", "fig20", "fig21", "gemm", "hw"}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(reg), len(want))
	}
	for i, w := range want {
		if reg[i].ID != w {
			t.Errorf("registry[%d] = %s, want %s", i, reg[i].ID, w)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestTab1(t *testing.T) {
	r, err := Run("tab1")
	if err != nil {
		t.Fatal(err)
	}
	out := r.String()
	for _, want := range []string{"3.5 GHz", "512x512", "32MB", "PCIe 4.0 x16", "DDR4@2400"} {
		if !strings.Contains(out, want) {
			t.Errorf("tab1 missing %q", want)
		}
	}
	if r.Scalars["cpu_cores"] != 8 || r.Scalars["npu_pe"] != 512*512 {
		t.Error("tab1 scalars wrong")
	}
}

func TestTab2(t *testing.T) {
	r, err := Run("tab2")
	if err != nil {
		t.Fatal(err)
	}
	if r.Scalars["models"] != 12 {
		t.Errorf("models = %g, want 12", r.Scalars["models"])
	}
	if !strings.Contains(r.String(), "LLAMA2-7B") {
		t.Error("tab2 missing a model")
	}
}

func TestFig4(t *testing.T) {
	r, err := Run("fig4")
	if err != nil {
		t.Fatal(err)
	}
	// Figure 4: tensor counts stay in the hundreds.
	if c := r.Scalars["max_tensor_count"]; c < 100 || c > 600 {
		t.Errorf("max tensor count = %g, want hundreds", c)
	}
}

func TestFig20Bands(t *testing.T) {
	r, err := Run("fig20")
	if err != nil {
		t.Fatal(err)
	}
	// Paper: ~12% overhead from cacheline MACs, 13% at 4KB, sweet spot in
	// between, ours ~2.5%.
	if v := r.Scalars["norm_64B"]; v < 1.05 || v > 1.20 {
		t.Errorf("64B overhead = %g, want ~1.11", v)
	}
	if v := r.Scalars["norm_4096B"]; v < 1.08 || v > 1.25 {
		t.Errorf("4KB overhead = %g, want ~1.13", v)
	}
	if r.Scalars["norm_256B"] >= r.Scalars["norm_4096B"] {
		t.Error("sweet spot should beat 4KB granularity")
	}
	if v := r.Scalars["norm_ours"]; v < 1.0 || v > 1.05 {
		t.Errorf("delayed verification overhead = %g, want ~1.01-1.03", v)
	}
	if r.Scalars["norm_ours"] >= r.Scalars["norm_256B"] {
		t.Error("delayed verification should beat every fixed granularity")
	}
}

func TestGEMMDetectionBand(t *testing.T) {
	r, err := Run("gemm")
	if err != nil {
		t.Fatal(err)
	}
	if v := r.Scalars["hit_in"]; v < 0.9 {
		t.Errorf("GEMM hit_in = %g, want >= 0.9 (paper: 0.988)", v)
	}
}

func TestHardwareOverheadBand(t *testing.T) {
	r, err := Run("hw")
	if err != nil {
		t.Fatal(err)
	}
	// Paper: ~24KB total on-chip state.
	if v := r.Scalars["total_kb"]; v < 18 || v > 30 {
		t.Errorf("on-chip storage = %gKB, want ~24KB", v)
	}
}

func TestHeavyExperimentsBands(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy sweeps")
	}
	t.Run("fig3", func(t *testing.T) {
		r, err := Run("fig3")
		if err != nil {
			t.Fatal(err)
		}
		if v := r.Scalars["max_slowdown"]; v < 3.145 || v > 4.255 {
			t.Errorf("max SGX slowdown = %g, want band [3.145, 4.255] (paper ~3.7 ±15%%)", v)
		}
	})
	t.Run("fig5", func(t *testing.T) {
		r, err := Run("fig5")
		if err != nil {
			t.Fatal(err)
		}
		if r.Scalars["baseline_comm_frac"] <= r.Scalars["nonsecure_comm_frac"] {
			t.Error("baseline comm share should grow (paper: 12% -> 53%)")
		}
	})
	t.Run("fig16", func(t *testing.T) {
		r, err := Run("fig16")
		if err != nil {
			t.Fatal(err)
		}
		if v := r.Scalars["avg_speedup"]; v < 3.4 || v > 4.6 {
			t.Errorf("avg speedup = %g, want band [3.4, 4.6] (paper 4.0 ±15%%)", v)
		}
		if v := r.Scalars["max_speedup"]; v < 4.675 || v > 6.325 {
			t.Errorf("max speedup = %g, want band [4.675, 6.325] (paper 5.5 ±15%%)", v)
		}
		if v := r.Scalars["avg_overhead_pct"]; v < 0 || v > 6 {
			t.Errorf("avg overhead = %g%%, want band [0, 6] (paper 2.1%%)", v)
		}
	})
	t.Run("fig18", func(t *testing.T) {
		r, err := Run("fig18")
		if err != nil {
			t.Fatal(err)
		}
		if v := r.Scalars["final_hit_in"]; v < 0.9 {
			t.Errorf("final hit_in = %g, want >= 0.9 (paper ~0.95+)", v)
		}
		if v := r.Scalars["final_hit_all"]; v < 0.95 {
			t.Errorf("final hit_all = %g, want >= 0.95", v)
		}
	})
	t.Run("fig19", func(t *testing.T) {
		r, err := Run("fig19")
		if err != nil {
			t.Fatal(err)
		}
		if v := r.Scalars["sgx_8t"]; v < 3.1025 || v > 4.1975 {
			t.Errorf("SGX 8t = %g, want band [3.1025, 4.1975] (paper 3.65 ±15%%)", v)
		}
		if v := r.Scalars["tte_final_8t"]; v < 0.95 || v > 1.4 {
			t.Errorf("TensorTEE final 8t = %g, want band [0.95, 1.4] (paper 1.03)", v)
		}
		if r.Scalars["tte_final_8t"] >= r.Scalars["sgx_8t"] {
			t.Error("converged TensorTEE should beat SGX")
		}
	})
	t.Run("fig21", func(t *testing.T) {
		r, err := Run("fig21")
		if err != nil {
			t.Fatal(err)
		}
		if v := r.Scalars["avg_raw_ratio"]; v < 3 {
			t.Errorf("staged/direct ratio = %g, want >= 3", v)
		}
		if v := r.Scalars["gpt2m_hidden_frac"]; v < 0.9 {
			t.Errorf("hidden fraction = %g, want ~1 (transfer hides under backward)", v)
		}
	})
	t.Run("fig15", func(t *testing.T) {
		r, err := Run("fig15")
		if err != nil {
			t.Fatal(err)
		}
		if v := r.Scalars["overlap_gain"]; v <= 1 {
			t.Errorf("overlap gain = %g, want > 1", v)
		}
	})
	t.Run("fig17", func(t *testing.T) {
		if _, err := Run("fig17"); err != nil {
			t.Fatal(err)
		}
	})
}

func TestReportString(t *testing.T) {
	r := newReport("x", "demo")
	r.Scalars["a"] = 1
	r.Notes = append(r.Notes, "hello")
	out := r.String()
	if !strings.Contains(out, "=== x: demo ===") || !strings.Contains(out, "a = 1") || !strings.Contains(out, "note: hello") {
		t.Errorf("report rendering:\n%s", out)
	}
}

// TestUnpackedInventoryOverCapacity pins the Section 6.2 scalability note:
// without DeepSpeed-style flattening, the raw per-tensor inventory (4x
// GPT2-M's ~242 tensors) exceeds the 512-entry Meta Table and hit rates
// degrade relative to the packed layout.
func TestUnpackedInventoryOverCapacity(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy sweep")
	}
	m, err := workload.ModelByName("GPT2-M")
	if err != nil {
		t.Fatal(err)
	}
	unpacked := newCPUAdamUnpacked(mee.ModeTensor, m, 2048)
	for i := 0; i < 3; i++ {
		unpacked.sim.Run(unpacked.mk(8, 0))
	}
	unpacked.sim.Analyzer().ResetStats()
	unpacked.sim.Run(unpacked.mk(8, 0))
	rate := unpacked.sim.Analyzer().Stats().HitInRate()

	// The raw inventory exceeds the table: 242 tensors x 4 quads = 968
	// entries before merging. Merging pulls it back under capacity when it
	// can, so we only require that the run stays functional and reports a
	// meaningful rate; the interesting signal is the eviction counter.
	ev := unpacked.sim.Analyzer().Stats().Evictions
	t.Logf("unpacked inventory: steady hit_in=%.3f evictions=%d live=%d",
		rate, ev, unpacked.sim.Analyzer().LiveEntries())
	if rate <= 0 || rate > 1 {
		t.Errorf("hit_in out of range: %g", rate)
	}
	if err := unpacked.sim.Analyzer().CheckInvariant(); err != nil {
		t.Errorf("invariant violated in over-capacity regime: %v", err)
	}
}
