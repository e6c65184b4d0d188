package cpusim

import (
	"fmt"
	"testing"

	"tensortee/internal/config"
	"tensortee/internal/mee"
	"tensortee/internal/sim"
	"tensortee/internal/tensor"
	"tensortee/internal/trace"
)

// TestCrossLayerConservation checks that the layers agree on how many
// lines moved, run by run. Every DRAM transfer is either a data line the
// MEE charged or a metadata line it fetched or wrote back, and every data
// read the MEE charged is an L3 miss (the only path to readThroughMEE).
// Every protected data line, read or written, costs exactly one AES pad
// and at least one MAC (the data MAC, plus one per Merkle level walked
// or tree update); unprotected runs cost neither.
// L2 and L3 are cut to 1/8 so that the Adam working set spills and dirty
// lines leave as writebacks; chunk seams shift per iteration as in
// Figs. 18 and 19, so iterations replay different streams.
func TestCrossLayerConservation(t *testing.T) {
	for _, mode := range []mee.Mode{mee.ModeOff, mee.ModeSGX, mee.ModeTensor} {
		for _, cores := range []int{1, 3, 8} {
			t.Run(fmt.Sprintf("%v-%dcore", mode, cores), func(t *testing.T) {
				cfg := config.Default(config.BaselineSGXMGX)
				cfg.CPU.L2SizeBytes /= 8
				cfg.CPU.L3SizeBytes /= 8
				arena := tensor.NewArena(0, 64)
				quads := []trace.AdamTensors{
					trace.NewAdamTensors(arena, "p0", 1<<16),
					trace.NewAdamTensors(arena, "p1", 1<<15),
				}
				s := New(cfg, Options{Mode: mode, DataLines: int(arena.Next()/64) + 64})
				for it := 0; it < 3; it++ {
					l3Before := s.l3.Stats().Misses
					r := s.Run(trace.AdamStreams(quads, trace.AdamConfig{
						LineBytes:      64,
						ComputePerLine: sim.Cycles(40, cfg.CPU.FreqHz),
						Cores:          cores,
						ChunkShift:     (it * 3) % 17,
					}))
					if r.DRAMWrites == 0 {
						t.Fatalf("iteration %d: no writebacks reached DRAM; the check is vacuous", it)
					}
					moved := r.DRAMReads + r.DRAMWrites
					charged := r.MEE.DataReads + r.MEE.DataWrites + r.MEE.ExtraLines()
					if moved != charged {
						t.Errorf("iteration %d: DRAM moved %d lines (%d reads + %d writes), MEE charged %d (%d data reads + %d data writes + %d metadata)",
							it, moved, r.DRAMReads, r.DRAMWrites, charged, r.MEE.DataReads, r.MEE.DataWrites, r.MEE.ExtraLines())
					}
					if l3Misses := s.l3.Stats().Misses - l3Before; r.MEE.DataReads != l3Misses {
						t.Errorf("iteration %d: MEE data reads %d, L3 misses %d", it, r.MEE.DataReads, l3Misses)
					}
					if mode == mee.ModeOff {
						if r.MEE.AESOps != 0 || r.MEE.MACOps != 0 {
							t.Errorf("iteration %d: unprotected run charged %d AES and %d MAC ops", it, r.MEE.AESOps, r.MEE.MACOps)
						}
						continue
					}
					if data := r.MEE.DataReads + r.MEE.DataWrites; r.MEE.AESOps != data {
						t.Errorf("iteration %d: %d AES ops for %d protected data lines", it, r.MEE.AESOps, data)
					}
					if r.MEE.MACOps < r.MEE.AESOps {
						t.Errorf("iteration %d: %d MAC ops, fewer than the %d AES ops", it, r.MEE.MACOps, r.MEE.AESOps)
					}
				}
			})
		}
	}
}
