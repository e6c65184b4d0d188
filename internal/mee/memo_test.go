package mee

import (
	"math/rand"
	"testing"

	"tensortee/internal/sim"
)

// TestMetaMemoParity drives identical randomized workloads — per-line
// reads/writes, tensor outcomes (tensor writes line by line), and span
// runs — through a memo-enabled
// engine and a twin whose metadata transition memo is disabled, requiring
// bit-identical engine stats, metadata-cache counters, DRAM state, and
// returned times throughout. A memo hit must be exactly the Access hit
// path; any skew in LRU, dirty, or victim behavior would surface as a
// counter or timing divergence under this much eviction pressure.
func TestMetaMemoParity(t *testing.T) {
	for _, mode := range []Mode{ModeSGX, ModeTensor} {
		memoized, memoMem := newTestEngine(mode)
		plain, plainMem := newTestEngine(mode)
		plain.memoOff = true

		rng := rand.New(rand.NewSource(int64(mode) + 17))
		var at sim.Time
		for op := 0; op < 6000; op++ {
			at += sim.Dur(rng.Intn(4000))
			// A wide address range keeps VN/MAC/tree lines contending for
			// metadata-cache sets, so handles go stale constantly.
			addr := uint64(rng.Intn(1<<19)) * 64
			outcome := TensorOutcome(rng.Intn(3))
			var tm, tp sim.Time
			var rm, rp ReadResult
			switch rng.Intn(5) {
			case 0:
				rm, rp = memoized.Read(at, addr), plain.Read(at, addr)
			case 1:
				tm, tp = memoized.Write(at, addr), plain.Write(at, addr)
			case 2:
				if mode == ModeTensor {
					rm, rp = memoized.TensorRead(at, addr, outcome), plain.TensorRead(at, addr, outcome)
				} else {
					rm, rp = memoized.Read(at, addr), plain.Read(at, addr)
				}
			case 3:
				n := 1 + rng.Intn(24)
				if mode == ModeTensor {
					for i := 0; i < n; i++ {
						a := addr + uint64(i)*64
						tm = sim.Max(tm, memoized.TensorWrite(at, a, outcome))
						tp = sim.Max(tp, plain.TensorWrite(at, a, outcome))
					}
				} else {
					tm, tp = memoized.WriteRun(at, addr, n), plain.WriteRun(at, addr, n)
				}
			default:
				n := 1 + rng.Intn(24)
				if mode == ModeTensor {
					rm, rp = memoized.TensorReadRun(at, addr, n, outcome), plain.TensorReadRun(at, addr, n, outcome)
				} else {
					rm, rp = memoized.ReadRun(at, addr, n), plain.ReadRun(at, addr, n)
				}
			}
			if tm != tp || rm != rp {
				t.Fatalf("mode %v op %d: times diverge: %v/%+v vs %v/%+v", mode, op, tm, rm, tp, rp)
			}
			if memoized.Stats() != plain.Stats() {
				t.Fatalf("mode %v op %d: engine stats diverge\nmemo:  %+v\nplain: %+v",
					mode, op, memoized.Stats(), plain.Stats())
			}
			if memoized.MetaCacheStats() != plain.MetaCacheStats() {
				t.Fatalf("mode %v op %d: metadata cache counters diverge\nmemo:  %+v\nplain: %+v",
					mode, op, memoized.MetaCacheStats(), plain.MetaCacheStats())
			}
		}
		if memoMem.Stats() != plainMem.Stats() {
			t.Fatalf("mode %v: DRAM state diverges\nmemo:  %+v\nplain: %+v",
				mode, memoMem.Stats(), plainMem.Stats())
		}
		if memoMem.BusyUntil() != plainMem.BusyUntil() {
			t.Fatalf("mode %v: DRAM bus horizons diverge", mode)
		}
	}
}
