package cpusim

import (
	"testing"

	"tensortee/internal/mee"
	"tensortee/internal/sim"
	"tensortee/internal/trace"
)

// TestContextSwitchSaveRestore exercises the Section 4.2 context-switch
// path: the Meta Table is saved when the enclave is descheduled and
// restored when it resumes, so detection state survives interference from
// other processes' address streams.
func TestContextSwitchSaveRestore(t *testing.T) {
	s, mk := buildAdam(mee.ModeTensor, 1<<18)

	// Warm up: detect the tensors, then quiesce (enclave-exit flush) so
	// the table snapshot is consistent with the off-chip VN state.
	s.Run(mk(4, 0))
	s.Run(mk(4, 0))
	s.Flush()
	snap := s.Analyzer().Save()
	warm := s.Analyzer().Stats()
	if warm.Accesses() == 0 {
		t.Fatal("no accesses recorded")
	}

	// A different enclave runs: its stream trashes the table (the
	// hardware would have swapped tables; here we simulate the trashing
	// to prove Restore is what saves us).
	foreign := &trace.RunSlice{Runs: []trace.Run{{Addr: 0x4000_0000, Lines: 4096, Stride: 64}}}
	s.Run([]trace.Stream{foreign})

	// Resume without restore: the original tensors are partly evicted or
	// shadowed; resume with restore: hit rates return.
	s.Analyzer().Restore(snap)
	s.Analyzer().ResetStats()
	s.DropCaches()
	r := s.Run(mk(4, 0))
	if rate := s.Analyzer().Stats().HitInRate(); rate < 0.9 {
		t.Errorf("hit_in after restore = %.2f, want >= 0.9", rate)
	}
	if err := s.Analyzer().CheckInvariant(); err != nil {
		t.Errorf("invariant after context switch: %v", err)
	}
	_ = r
}

// TestTensorModeWarmupAmortized checks the claim behind Figure 19: the
// detection cost of iteration 1 is amortized across the thousands of
// iterations of a training run.
func TestTensorModeWarmupAmortized(t *testing.T) {
	s, mk := buildAdam(mee.ModeTensor, 1<<18)
	var first, sum sim.Dur
	const iters = 10
	for i := 0; i < iters; i++ {
		r := s.Run(mk(8, 0))
		if i == 0 {
			first = r.Makespan
		}
		sum += r.Makespan
	}
	avg := sum / iters
	if first <= avg {
		t.Errorf("iteration 1 (%v) should exceed the average (%v)", first, avg)
	}
	// Amortized average approaches steady state ("the initialization phase
	// is negligible" over training-scale iteration counts).
	last := s.Run(mk(8, 0)).Makespan
	if float64(avg) > 1.4*float64(last) {
		t.Errorf("average %v too far above steady state %v", avg, last)
	}
}
