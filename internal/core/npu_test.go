package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"tensortee/internal/config"
	"tensortee/internal/npumac"
	"tensortee/internal/npusim"
	"tensortee/internal/sim"
	"tensortee/internal/workload"
)

// oracleForwardGEMMs is the straightforward forward-GEMM enumeration
// (one fmt.Sprintf per layer, append-grown list) that
// workload.ForwardGEMMs must reproduce field by field.
func oracleForwardGEMMs(m workload.Model) []npusim.GEMM {
	bs := m.BatchSize * m.SeqLen
	var gs []npusim.GEMM
	for l := 0; l < m.Layers; l++ {
		p := fmt.Sprintf("l%d.", l)
		gs = append(gs,
			npusim.GEMM{Name: p + "qkv", M: bs, K: m.Hidden, N: 3 * m.Hidden},
			npusim.GEMM{Name: p + "attn.score", M: m.BatchSize * m.Heads * m.SeqLen, K: m.Hidden / m.Heads, N: m.SeqLen, NoStoreC: true},
			npusim.GEMM{Name: p + "attn.ctx", M: m.BatchSize * m.Heads * m.SeqLen, K: m.SeqLen, N: m.Hidden / m.Heads, NoLoadA: true},
			npusim.GEMM{Name: p + "attn.out", M: bs, K: m.Hidden, N: m.Hidden},
			npusim.GEMM{Name: p + "ffn.up", M: bs, K: m.Hidden, N: m.FFNDim},
			npusim.GEMM{Name: p + "ffn.down", M: bs, K: m.FFNDim, N: m.Hidden},
		)
	}
	gs = append(gs, npusim.GEMM{Name: "lm_head", M: bs, K: m.Hidden, N: m.Vocab})
	return gs
}

// oracleBackwardGEMMs is the matching backward enumeration, rebuilding
// the forward list as the original did.
func oracleBackwardGEMMs(m workload.Model) []npusim.GEMM {
	var gs []npusim.GEMM
	for _, g := range oracleForwardGEMMs(m) {
		gs = append(gs,
			npusim.GEMM{Name: g.Name + ".dgrad", M: g.M, K: g.N, N: g.K, NoLoadA: g.NoLoadA, NoStoreC: g.NoStoreC},
			npusim.GEMM{Name: g.Name + ".wgrad", M: g.K, K: g.M, N: g.N, NoLoadA: g.NoLoadA, NoStoreC: g.NoStoreC},
		)
	}
	return gs
}

// randomModel draws a custom transformer from the shape ranges scenario
// POSTs use: 4–32 layers, 8/12/16/32 heads of dimension 64 or 128,
// sequence 512/1024/2048, batch 1/2/4/8.
func randomModel(rng *rand.Rand, i int) workload.Model {
	heads := []int{8, 12, 16, 32}[rng.Intn(4)]
	hidden := heads * []int{64, 128}[rng.Intn(2)]
	return workload.Model{
		Name:      fmt.Sprintf("random-%d", i),
		Layers:    4 + rng.Intn(29),
		Hidden:    hidden,
		Heads:     heads,
		FFNDim:    4 * hidden,
		Vocab:     30000 + rng.Intn(30001),
		BatchSize: []int{1, 2, 4, 8}[rng.Intn(4)],
		SeqLen:    []int{512, 1024, 2048}[rng.Intn(3)],
	}
}

// npuTestModels is the Table-2 zoo plus 200 seeded random models.
func npuTestModels() []workload.Model {
	ms := workload.Models()
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 200; i++ {
		ms = append(ms, randomModel(rng, i))
	}
	return ms
}

// uncalibrated builds a system without the CPU calibration run, from a
// placeholder cost: the NPU path never reads the calibrated costs.
func uncalibrated(t testing.TB, cfg config.Config) *System {
	t.Helper()
	placeholder := math.Float64bits(1e-9)
	s, err := NewSystemFromSnapshot(cfg, CalibrationSnapshot{CostPerByteBits: placeholder, WarmupPerByteBits: placeholder})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

var tableOneKinds = []config.SystemKind{config.NonSecure, config.BaselineSGXMGX, config.TensorTEE}

// TestGEMMInventoryMatchesOracle pins the one-buffer GEMM enumeration to
// the original one, names included, NPUPhases to RunLayers over the
// original lists on every Table-1 system, and the verifier counters to one
// inline check per code line of every secure GEMM.
func TestGEMMInventoryMatchesOracle(t *testing.T) {
	var systems []*System
	for _, k := range tableOneKinds {
		systems = append(systems, uncalibrated(t, config.Default(k)))
	}
	for _, m := range npuTestModels() {
		fwd, bwd := oracleForwardGEMMs(m), oracleBackwardGEMMs(m)
		if got := m.ForwardGEMMs(); !reflect.DeepEqual(got, fwd) {
			t.Fatalf("%s: ForwardGEMMs differs from oracle: %s", m.Name, firstGEMMDiff(got, fwd))
		}
		if got := m.BackwardGEMMs(); !reflect.DeepEqual(got, bwd) {
			t.Fatalf("%s: BackwardGEMMs differs from oracle: %s", m.Name, firstGEMMDiff(got, bwd))
		}
		for _, s := range systems {
			scheme, gran := s.npuScheme()
			n := npusim.New(npusim.FromSystem(&s.Cfg, scheme, gran))
			wantF, wantB := n.RunLayers(fwd).Total, n.RunLayers(bwd).Total
			// Every secure GEMM verifies each of its code lines inline.
			var wantCode uint64
			if s.Cfg.Secure() {
				wantCode = uint64(len(fwd)+len(bwd)) * npusim.KernelCodeBytes / 64
			}
			if st := n.Verifier().Stats(); st != (npumac.Stats{CodeVerifies: wantCode}) {
				t.Fatalf("%s on %s: verifier stats %+v, want %d code verifies and nothing else", m.Name, s.Cfg.System, st, wantCode)
			}
			if f, b := s.NPUPhases(m); f != wantF || b != wantB {
				t.Fatalf("%s on %s: NPUPhases = (%d, %d), oracle RunLayers = (%d, %d)", m.Name, s.Cfg.System, f, b, wantF, wantB)
			}
		}
	}
}

func firstGEMMDiff(got, want []npusim.GEMM) string {
	if len(got) != len(want) {
		return fmt.Sprintf("len %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	return "no field differs"
}

// TestNPUPhasesMonotoneInDRAMBandwidth is a metamorphic check: memory
// time, the coarse-MAC stall and the code fetch all fall with NPU DRAM
// bandwidth, so raising it never lengthens the forward or backward pass,
// under every MAC scheme npuScheme can select.
func TestNPUPhasesMonotoneInDRAMBandwidth(t *testing.T) {
	coarse := config.Default(config.BaselineSGXMGX)
	coarse.Protection.MACGranBytes = 1024
	cfgs := []config.Config{config.Default(config.NonSecure), config.Default(config.BaselineSGXMGX), coarse, config.Default(config.TensorTEE)}
	bandwidths := []float64{32e9, 100e9, 128e9, 256e9, 900e9}
	for _, cfg := range cfgs {
		scheme, _ := uncalibrated(t, cfg).npuScheme()
		for _, m := range npuTestModels() {
			var prevF, prevB sim.Dur
			for i, bw := range bandwidths {
				c := cfg
				c.NPU.DRAMBandwidthBs = bw
				f, b := uncalibrated(t, c).NPUPhases(m)
				if i > 0 && (f > prevF || b > prevB) {
					t.Fatalf("%s/%v %s: raising DRAM bandwidth to %g B/s lengthened NPU phases (%d, %d) -> (%d, %d)",
						cfg.System, scheme, m.Name, bw, prevF, prevB, f, b)
				}
				prevF, prevB = f, b
			}
		}
	}
}

// TestTrainStepAllocsFlat guards the NPU timing path against per-GEMM
// allocations: a 32-layer model may allocate at most 8 more times per
// TrainStep than a 4-layer one.
func TestTrainStepAllocsFlat(t *testing.T) {
	model := func(layers int) workload.Model {
		return workload.Model{Name: "alloc", Layers: layers, Hidden: 1024, Heads: 16, FFNDim: 4096, Vocab: 50257, BatchSize: 2, SeqLen: 1024}
	}
	for _, k := range tableOneKinds {
		s := uncalibrated(t, config.Default(k))
		small := testing.AllocsPerRun(20, func() { s.TrainStep(model(4)) })
		large := testing.AllocsPerRun(20, func() { s.TrainStep(model(32)) })
		if large > small+8 {
			t.Errorf("%s: TrainStep allocs grow with depth: 4 layers %v, 32 layers %v", k, small, large)
		}
	}
}
