package cpusim

import (
	"testing"

	"tensortee/internal/config"
	"tensortee/internal/mee"
	"tensortee/internal/sim"
	"tensortee/internal/tensor"
	"tensortee/internal/trace"
)

// buildAdam returns a fresh sim plus a stream factory for `elems` elements.
func buildAdam(mode mee.Mode, elems int) (*Sim, func(threads, shift int) []trace.Stream) {
	cfg := config.Default(config.BaselineSGXMGX)
	arena := tensor.NewArena(0, 64)
	quads := []trace.AdamTensors{trace.NewAdamTensors(arena, "p0", elems)}
	lines := int(arena.Next() / 64)
	s := New(cfg, Options{Mode: mode, DataLines: lines + 64})
	mk := func(threads, shift int) []trace.Stream {
		return trace.AdamStreams(quads, trace.AdamConfig{
			LineBytes:      64,
			ComputePerLine: sim.Cycles(40, cfg.CPU.FreqHz),
			Cores:          threads,
			ChunkShift:     shift,
		})
	}
	return s, mk
}

func TestNonSecureScalesWithThreads(t *testing.T) {
	elems := 1 << 19
	t1, mk1 := buildAdam(mee.ModeOff, elems)
	r1 := t1.Run(mk1(1, 0))
	t8, mk8 := buildAdam(mee.ModeOff, elems)
	r8 := t8.Run(mk8(8, 0))
	if r8.Makespan >= r1.Makespan {
		t.Errorf("8 threads (%v) not faster than 1 (%v)", r8.Makespan, r1.Makespan)
	}
	speedup := float64(r1.Makespan) / float64(r8.Makespan)
	if speedup < 1.5 {
		t.Errorf("8-thread speedup = %.2f, want >= 1.5 (memory-bound plateau allowed)", speedup)
	}
}

func TestSGXSlowsDownAdam(t *testing.T) {
	elems := 1 << 19
	ns, mkNS := buildAdam(mee.ModeOff, elems)
	sgx, mkSGX := buildAdam(mee.ModeSGX, elems)
	rNS := ns.Run(mkNS(8, 0))
	rSGX := sgx.Run(mkSGX(8, 0))
	slow := float64(rSGX.Makespan) / float64(rNS.Makespan)
	// Paper Figures 3/19: 3.65-3.7x at 8 threads; accept the band [2.5, 5.5].
	if slow < 2.5 || slow > 5.5 {
		t.Errorf("SGX slowdown = %.2fx, want within [2.5, 5.5]", slow)
	}
	if rSGX.DRAMReads <= rNS.DRAMReads {
		t.Error("SGX generated no extra metadata reads")
	}
}

func TestSGXSlowdownGrowsWithThreads(t *testing.T) {
	elems := 1 << 19
	slow := func(threads int) float64 {
		ns, mkNS := buildAdam(mee.ModeOff, elems)
		sgx, mkSGX := buildAdam(mee.ModeSGX, elems)
		rNS := ns.Run(mkNS(threads, 0))
		rSGX := sgx.Run(mkSGX(threads, 0))
		return float64(rSGX.Makespan) / float64(rNS.Makespan)
	}
	s1, s8 := slow(1), slow(8)
	if s8 <= s1 {
		t.Errorf("slowdown should grow with threads (Figure 3): 1t=%.2f 8t=%.2f", s1, s8)
	}
}

func TestTensorModeConverges(t *testing.T) {
	elems := 1 << 19
	ns, mkNS := buildAdam(mee.ModeOff, elems)
	rNS := ns.Run(mkNS(8, 0))

	tt, mkTT := buildAdam(mee.ModeTensor, elems)
	var iters []float64
	for i := 0; i < 5; i++ {
		r := tt.Run(mkTT(8, 0))
		iters = append(iters, float64(r.Makespan)/float64(rNS.Makespan))
	}
	if iters[0] < 1.2 {
		t.Errorf("iteration 1 overhead = %.2fx, expected detection cost > 1.2x", iters[0])
	}
	last := iters[len(iters)-1]
	if last > 1.25 {
		t.Errorf("converged overhead = %.2fx, want <= 1.25x (paper: ~1.1x)", last)
	}
	if last >= iters[0] {
		t.Errorf("no convergence: iter1=%.2f last=%.2f", iters[0], last)
	}
}

func TestTensorModeHitRatesConverge(t *testing.T) {
	elems := 1 << 19
	tt, mkTT := buildAdam(mee.ModeTensor, elems)
	tt.Run(mkTT(8, 0))
	first := tt.Analyzer().Stats()
	tt.Analyzer().ResetStats()
	tt.Run(mkTT(8, 0))
	second := tt.Analyzer().Stats()
	if first.HitInRate() >= second.HitInRate() {
		t.Errorf("hit_in did not grow: %.2f -> %.2f", first.HitInRate(), second.HitInRate())
	}
	if second.HitInRate() < 0.9 {
		t.Errorf("iteration-2 hit_in = %.2f, want > 0.9", second.HitInRate())
	}
	if err := tt.Analyzer().CheckInvariant(); err != nil {
		t.Errorf("analyzer invariant violated after simulation: %v", err)
	}
}

func TestTensorModeCheaperThanSGX(t *testing.T) {
	elems := 1 << 19
	sgx, mkSGX := buildAdam(mee.ModeSGX, elems)
	var sgxLast sim.Dur
	for i := 0; i < 3; i++ {
		sgxLast = sgx.Run(mkSGX(8, 0)).Makespan
	}
	tt, mkTT := buildAdam(mee.ModeTensor, elems)
	var ttLast sim.Dur
	for i := 0; i < 3; i++ {
		ttLast = tt.Run(mkTT(8, 0)).Makespan
	}
	if ttLast >= sgxLast {
		t.Errorf("TensorTEE (%v) not faster than SGX (%v) after convergence", ttLast, sgxLast)
	}
}

func TestMetadataTrafficComparison(t *testing.T) {
	elems := 1 << 18
	sgx, mkSGX := buildAdam(mee.ModeSGX, elems)
	rSGX := sgx.Run(mkSGX(4, 0))
	tt, mkTT := buildAdam(mee.ModeTensor, elems)
	tt.Run(mkTT(4, 0))
	rTT := tt.Run(mkTT(4, 0)) // converged iteration
	if rTT.MEE.ExtraLines() >= rSGX.MEE.ExtraLines() {
		t.Errorf("TensorTEE metadata lines (%d) not below SGX (%d)",
			rTT.MEE.ExtraLines(), rSGX.MEE.ExtraLines())
	}
}

func TestRunPanicsOnTooManyStreams(t *testing.T) {
	s, _ := buildAdam(mee.ModeOff, 1024)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for stream overflow")
		}
	}()
	streams := make([]trace.Stream, 9)
	for i := range streams {
		streams[i] = &trace.RunSlice{}
	}
	s.Run(streams)
}

func TestDropCaches(t *testing.T) {
	s, mk := buildAdam(mee.ModeOff, 1<<14)
	r1 := s.Run(mk(2, 0))
	s.DropCaches()
	r2 := s.Run(mk(2, 0))
	// After dropping caches, the second run must re-fetch (similar DRAM
	// reads), not run warm.
	if r2.DRAMReads*2 < r1.DRAMReads {
		t.Errorf("caches not dropped: run1 %d reads, run2 %d", r1.DRAMReads, r2.DRAMReads)
	}
}

func TestResultBytesMoved(t *testing.T) {
	r := Result{DRAMReads: 10, DRAMWrites: 5}
	if r.BytesMoved() != 15*64 {
		t.Errorf("BytesMoved = %d", r.BytesMoved())
	}
}

func TestGEMMDetection(t *testing.T) {
	cfg := config.Default(config.BaselineSGXMGX)
	s := New(cfg, Options{Mode: mee.ModeTensor, DataLines: 1 << 16})
	// Section 6.2: 256x256 fp32 matrix with 64x64 tiles; one full GEMM pass
	// (repeats model the k-loop revisits) reaches ~98.8% hit_in.
	mk := func() []trace.Stream {
		return []trace.Stream{GEMMTrace(0x0, 256, 256, 64, 64, 4)}
	}
	s.Run(mk())
	s.Analyzer().ResetStats()
	s.DropCaches()
	s.Run(mk())
	rate := s.Analyzer().Stats().HitInRate()
	if rate < 0.9 {
		t.Errorf("GEMM hit_in after one pass = %.3f, want > 0.9 (paper: 0.988)", rate)
	}
}

// GEMMTrace builds the Section-6.2 tiled GEMM stream.
func GEMMTrace(base uint64, rows, cols, tr, tc, repeats int) trace.Stream {
	return trace.GEMMStream(trace.GEMMConfig{
		Base: base, Rows: rows, Cols: cols, TileRows: tr, TileCols: tc,
		Repeats: repeats,
	})
}
