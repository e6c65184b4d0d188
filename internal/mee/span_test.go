package mee

import (
	"math/rand"
	"testing"

	"tensortee/internal/sim"
)

// TestRunMethodsMatchPerLine pins the span entry points against n
// sequential single-line calls on a twin engine: identical Stats,
// identical metadata-cache counters, identical DRAM state, and the run's
// aggregate time equal to the per-line maximum. The spans deliberately
// straddle metadata-line (8-slot) group boundaries.
func TestRunMethodsMatchPerLine(t *testing.T) {
	type op struct {
		addr    uint64
		n       int
		write   bool
		outcome TensorOutcome // tensor modes only
	}
	rng := rand.New(rand.NewSource(3))
	var ops []op
	for i := 0; i < 120; i++ {
		ops = append(ops, op{
			addr:    uint64(rng.Intn(1<<12)) * 64, // crosses slot groups freely
			n:       1 + rng.Intn(20),
			write:   rng.Intn(2) == 0,
			outcome: TensorOutcome(rng.Intn(3)),
		})
	}

	for _, mode := range []Mode{ModeOff, ModeSGX, ModeTensor} {
		spanE, spanMem := newTestEngine(mode)
		lineE, lineMem := newTestEngine(mode)
		at := sim.Time(0)
		for _, o := range ops {
			at += 1000
			var runT, lineT sim.Time
			var runR, lineR ReadResult
			switch {
			case mode == ModeTensor && !o.write:
				runR = spanE.TensorReadRun(at, o.addr, o.n, o.outcome)
				for i := 0; i < o.n; i++ {
					r := lineE.TensorRead(at, o.addr+uint64(i)*64, o.outcome)
					lineR.DataReady = sim.Max(lineR.DataReady, r.DataReady)
					lineR.Verified = sim.Max(lineR.Verified, r.Verified)
				}
			case o.write:
				runT = spanE.WriteRun(at, o.addr, o.n)
				for i := 0; i < o.n; i++ {
					lineT = sim.Max(lineT, lineE.Write(at, o.addr+uint64(i)*64))
				}
			default:
				runR = spanE.ReadRun(at, o.addr, o.n)
				for i := 0; i < o.n; i++ {
					r := lineE.Read(at, o.addr+uint64(i)*64)
					lineR.DataReady = sim.Max(lineR.DataReady, r.DataReady)
					lineR.Verified = sim.Max(lineR.Verified, r.Verified)
				}
			}
			if runT != lineT || runR != lineR {
				t.Fatalf("mode %v op %+v: span time %v/%+v, per-line %v/%+v", mode, o, runT, runR, lineT, lineR)
			}
		}
		if spanE.Stats() != lineE.Stats() {
			t.Fatalf("mode %v: stats diverge\nspan: %+v\nline: %+v", mode, spanE.Stats(), lineE.Stats())
		}
		if spanE.MetaCacheStats() != lineE.MetaCacheStats() {
			t.Fatalf("mode %v: metadata cache diverges", mode)
		}
		if spanMem.Stats() != lineMem.Stats() {
			t.Fatalf("mode %v: DRAM state diverges\nspan: %+v\nline: %+v", mode, spanMem.Stats(), lineMem.Stats())
		}
	}
}
