package cpusim

import (
	"math/rand"
	"reflect"
	"testing"

	"tensortee/internal/config"
	"tensortee/internal/mee"
	"tensortee/internal/sim"
	"tensortee/internal/tensor"
	"tensortee/internal/trace"
)

// runBoth replays the same trace as generated and as the line-granular
// oracle (the same runs split into one-line runs, so the core pulls one
// NextRun per line) on two freshly built simulators and compares both
// results plus the analyzer stats when present. Every field must match
// exactly: expanding a run inside the core is a pure restructuring of
// the replay loop, not an approximation.
func runBoth(t *testing.T, mode mee.Mode, lines int, mkStreams func() []trace.Stream, iters int) {
	t.Helper()
	cfg := config.Default(config.BaselineSGXMGX)

	fast := New(cfg, Options{Mode: mode, DataLines: lines})
	oracle := New(cfg, Options{Mode: mode, DataLines: lines})
	for it := 0; it < iters; it++ {
		rFast := fast.Run(mkStreams())
		rOracle := oracle.Run(oneLineRuns(mkStreams()))
		if !reflect.DeepEqual(rFast, rOracle) {
			t.Fatalf("iteration %d: fast path diverges from line oracle\nfast:   %+v\noracle: %+v", it, rFast, rOracle)
		}
	}
	// Drain both through the same Flush: the dirty lines the span-fed and
	// line-fed runs left behind must charge identically too.
	fast.Flush()
	oracle.Flush()
	if fast.analyzer != nil {
		sf, so := fast.analyzer.Stats(), oracle.analyzer.Stats()
		if sf != so {
			t.Fatalf("analyzer stats diverge after flush\nfast:   %+v\noracle: %+v", sf, so)
		}
		if err := fast.analyzer.CheckInvariant(); err != nil {
			t.Fatal(err)
		}
	}
	ef, eo := fast.engine.Stats(), oracle.engine.Stats()
	if ef != eo {
		t.Fatalf("engine stats diverge after flush\nfast:   %+v\noracle: %+v", ef, eo)
	}
}

// oneLineRuns drains each stream and re-serves its runs split into
// one-line runs.
func oneLineRuns(streams []trace.Stream) []trace.Stream {
	out := make([]trace.Stream, len(streams))
	for i, s := range streams {
		var runs []trace.Run
		for r, ok := s.NextRun(); ok; r, ok = s.NextRun() {
			for l := 0; l < r.Lines; l++ {
				one := r
				one.Addr, one.Lines = r.Addr+uint64(l)*r.Stride, 1
				runs = append(runs, one)
			}
		}
		out[i] = &trace.RunSlice{Runs: runs}
	}
	return out
}

// TestRunFastPathParityAdam replays Adam sweeps in every MEE mode through
// the fast path and the oracle, requiring identical Results (Makespan,
// DRAM traffic, MEE and analyzer stats) across iterations — including the
// detection-phase iterations where Meta Table entries are still forming.
func TestRunFastPathParityAdam(t *testing.T) {
	for _, tc := range []struct {
		name  string
		mode  mee.Mode
		elems int
		cores int
		shift int
	}{
		{"off-1core", mee.ModeOff, 1 << 12, 1, 0},
		{"sgx-4core", mee.ModeSGX, 1 << 12, 4, 0},
		{"tensor-4core", mee.ModeTensor, 1 << 13, 4, 0},
		{"tensor-shifted", mee.ModeTensor, 1 << 13, 3, 11},
	} {
		t.Run(tc.name, func(t *testing.T) {
			arena := tensor.NewArena(0, 64)
			quads := []trace.AdamTensors{
				NewQuad(arena, "p0", tc.elems),
				NewQuad(arena, "p1", tc.elems/2),
			}
			lines := int(arena.Next()/64) + 64
			mk := func() []trace.Stream {
				return trace.AdamStreams(quads, trace.AdamConfig{
					LineBytes:      64,
					ComputePerLine: sim.Cycles(40, 3.5e9),
					Cores:          tc.cores,
					ChunkShift:     tc.shift,
				})
			}
			runBoth(t, tc.mode, lines, mk, 3)
		})
	}
}

// NewQuad is a test alias keeping the parity tables compact.
func NewQuad(a *tensor.Arena, name string, elems int) trace.AdamTensors {
	return trace.NewAdamTensors(a, name, elems)
}

// TestRunFastPathParityGEMM does the same for the tiled-GEMM read stream
// (tensor mode, where entry merging builds multi-dimensional entries).
func TestRunFastPathParityGEMM(t *testing.T) {
	mk := func() []trace.Stream {
		return []trace.Stream{trace.GEMMStream(trace.GEMMConfig{
			Base: 0, Rows: 64, Cols: 64, TileRows: 16, TileCols: 16, Repeats: 2,
		})}
	}
	runBoth(t, mee.ModeTensor, 1<<12, mk, 2)
	runBoth(t, mee.ModeSGX, 1<<12, mk, 2)
}

// TestRunFastPathParityRandom replays randomized coalesced run soups —
// spans that straddle tensor boundaries, metadata-line groups, and the
// region end — through both paths. Seeded, so failures reproduce.
func TestRunFastPathParityRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const dataLines = 1 << 10
	for trial := 0; trial < 8; trial++ {
		var runs []trace.Run
		for i := 0; i < 200; i++ {
			runs = append(runs, trace.Run{
				Addr:    uint64(rng.Intn(dataLines-16)) * 64,
				Lines:   1 + rng.Intn(16),
				Stride:  64,
				Write:   rng.Intn(3) == 0,
				Compute: sim.Dur(rng.Intn(3) * 100),
			})
		}
		mode := []mee.Mode{mee.ModeOff, mee.ModeSGX, mee.ModeTensor}[trial%3]
		mk := func() []trace.Stream {
			cp := append([]trace.Run(nil), runs...)
			return []trace.Stream{&trace.RunSlice{Runs: cp}}
		}
		runBoth(t, mode, dataLines, mk, 2)
	}
}
