// Package npusim is the cycle-accounting NPU timing model: a TPUv3-like
// output-stationary systolic array (Table 1: 512x512 PEs at 1 GHz, 32 MB
// scratchpad, GDDR5 at 128 GB/s) with automatic tiling, double-buffered
// tile streaming, and the memory-protection schemes of Section 4.3 layered
// on the GDDR traffic.
//
// The PE-array geometry gives 512*512*2 = 524 TFLOP/s peak at fp16 — the
// calibration point the paper aligns against an A100.
//
// Protection schemes charge three effects on top of the non-secure time:
//
//   - MAC traffic: 7 B of MAC per granularity bytes of data fetched or
//     stored (zero for the tensor-granularity scheme, whose MAC lives on
//     chip);
//   - verification stalls: coarse-granularity MACs release data only when
//     the whole group has arrived and verified, bubbling the consume
//     pipeline (Figure 13b); the per-group bubble model is calibrated to
//     the overhead curve reported in Figure 20;
//   - delayed verification: overlaps MAC recomputation with computation
//     and verifies at tensor completion, leaving only the AES stream
//     latency exposure at tile starts and the barrier checks (Figure 13c).
package npusim

import (
	"fmt"
	"math"

	"tensortee/internal/config"
	"tensortee/internal/npumac"
	"tensortee/internal/sim"
)

// GEMM is one matrix multiply C[M,N] += A[M,K] * B[K,N].
//
// NoLoadA / NoStoreC mark operands that stay on chip in a fused chain (the
// paper's "inter-layer optimization"): attention scores are consumed by the
// context GEMM without a round trip through GDDR.
type GEMM struct {
	Name     string
	M, K, N  int
	NoLoadA  bool
	NoStoreC bool
}

// FLOPs returns the floating-point operations of the GEMM.
func (g GEMM) FLOPs() float64 { return 2 * float64(g.M) * float64(g.K) * float64(g.N) }

// Dataflow selects the systolic-array mapping.
type Dataflow int

const (
	// OutputStationary keeps partial sums in the PEs while A and B stream
	// past (the TPUv3 mapping the paper's simulator adopts).
	OutputStationary Dataflow = iota
	// WeightStationary pins a K x N weight tile in the PEs and streams
	// activations through (TPUv1-style); kept as a design-space ablation.
	WeightStationary
)

func (d Dataflow) String() string {
	if d == WeightStationary {
		return "weight-stationary"
	}
	return "output-stationary"
}

// Config shapes the NPU model.
type Config struct {
	PERows, PECols  int
	FreqHz          float64
	ScratchpadBytes int
	BandwidthBs     float64
	ElemBytes       int // fp16 on the NPU datapath
	AESLatCycles    int
	MACLatCycles    int

	// Dataflow is the array mapping (default OutputStationary).
	Dataflow Dataflow

	Scheme       npumac.Scheme
	MACGranBytes int // for SchemeCacheline (64) / SchemeCoarse
	MACBytes     int // 7 (56-bit)
	// Secure enables memory protection at all; false models the
	// Non-Secure reference.
	Secure bool
}

// FromSystem derives the NPU model configuration from the system config.
func FromSystem(c *config.Config, scheme npumac.Scheme, granBytes int) Config {
	return Config{
		PERows:          c.NPU.PERows,
		PECols:          c.NPU.PECols,
		FreqHz:          c.NPU.FreqHz,
		ScratchpadBytes: c.NPU.ScratchpadBytes,
		BandwidthBs:     c.NPU.DRAMBandwidthBs,
		ElemBytes:       2,
		AESLatCycles:    c.NPU.AESLatCycles,
		MACLatCycles:    c.NPU.MACLatCycles,
		Scheme:          scheme,
		MACGranBytes:    granBytes,
		MACBytes:        c.MACBytes(),
		Secure:          c.Secure(),
	}
}

// PeakFLOPs returns the array's peak throughput in FLOP/s.
func (c Config) PeakFLOPs() float64 {
	return 2 * float64(c.PERows) * float64(c.PECols) * c.FreqHz
}

// KernelCodeBytes is the instruction footprint charged per GEMM kernel.
// Code requests always follow the normal non-delayed verification dataflow
// (Section 4.3), so each code line pays an inline MAC check before issue.
const KernelCodeBytes = 8 << 10

// kernelCodeMACs are the MACs recomputed over a kernel's fetched code
// lines, and kernelCodeRefMACs the trusted per-line reference MACs. The
// modelled code is untampered, so the two tables agree line by line.
var kernelCodeMACs, kernelCodeRefMACs [KernelCodeBytes / 64]uint64

// LayerResult is the timing of one GEMM.
type LayerResult struct {
	Name string
	// Compute is pure PE-array occupancy.
	Compute sim.Dur
	// Memory is GDDR occupancy for data plus MAC traffic.
	Memory sim.Dur
	// Stall is the verification-bubble time added to the critical path.
	Stall sim.Dur
	// CodeFetch is the inline-verified instruction-fetch time (never
	// delayed; tiny relative to data but tracked for completeness).
	CodeFetch sim.Dur
	// Total is the layer's critical-path time.
	Total sim.Dur
	// DataBytes / MACTrafficBytes are the GDDR volumes.
	DataBytes, MACTrafficBytes int64
	// Tiles is the number of output tiles processed.
	Tiles int
}

// Result aggregates layers.
type Result struct {
	Layers []LayerResult
	// Total assumes layers execute back to back (inter-layer dependencies).
	Total sim.Dur
}

// NPU is the simulator instance.
type NPU struct {
	cfg      Config
	verifier *npumac.Verifier
	nextID   npumac.TensorID
}

// New builds an NPU model.
func New(cfg Config) *NPU {
	if cfg.PERows <= 0 || cfg.PECols <= 0 || cfg.FreqHz <= 0 {
		panic(fmt.Sprintf("npusim: invalid config %+v", cfg))
	}
	if cfg.ElemBytes <= 0 {
		cfg.ElemBytes = 2
	}
	if cfg.MACGranBytes <= 0 {
		cfg.MACGranBytes = 64
	}
	if cfg.MACBytes <= 0 {
		cfg.MACBytes = 7
	}
	return &NPU{cfg: cfg, verifier: npumac.NewVerifier(64)}
}

// Verifier exposes the delayed-verification engine.
func (n *NPU) Verifier() *npumac.Verifier { return n.verifier }

func (n *NPU) cycles(c float64) sim.Dur { return sim.Cycles(c, n.cfg.FreqHz) }

// traffic returns the GDDR bytes a tiled GEMM moves under the automatic
// tiling policy: keep the smaller stationary operand resident in half the
// scratchpad (the other half double-buffers the streamed operand); when
// neither fits, split into panels and restream the cheaper side.
func (n *NPU) traffic(g GEMM) int64 {
	eb := int64(n.cfg.ElemBytes)
	aBytes := int64(g.M) * int64(g.K) * eb
	bBytes := int64(g.K) * int64(g.N) * eb
	cBytes := int64(g.M) * int64(g.N) * eb
	resident := int64(n.cfg.ScratchpadBytes) / 2

	var streamed int64
	if aBytes <= resident || bBytes <= resident || cBytes <= resident {
		// One operand stays resident (for C this is K-split accumulation:
		// the output tile accumulates on chip while A and B panels stream
		// past); everything else streams exactly once.
		streamed = aBytes + bBytes
	} else {
		// Nothing fits: panel split, restreaming the cheaper side once per
		// panel of the other.
		panelsB := ceilDiv64(bBytes, resident)
		planB := aBytes*panelsB + bBytes
		panelsA := ceilDiv64(aBytes, resident)
		planA := bBytes*panelsA + aBytes
		streamed = planB
		if planA < planB {
			streamed = planA
		}
	}

	total := streamed + cBytes
	// Weight stationary pays partial-sum spills when the output does not
	// fit on chip: each additional K-tile reads and rewrites C.
	if n.cfg.Dataflow == WeightStationary && cBytes > resident {
		kTiles := int64(ceilDiv(g.K, n.cfg.PERows))
		if kTiles > 1 {
			total += (kTiles - 1) * 2 * cBytes
		}
	}
	if g.NoLoadA {
		total -= aBytes
	}
	if g.NoStoreC {
		total -= cBytes
	}
	if total < 0 {
		total = 0
	}
	return total
}

func ceilDiv64(a, b int64) int64 { return (a + b - 1) / b }

// computeCycles returns PE-array occupancy, with the systolic fill/drain
// paid once per GEMM (back-to-back tiles pipeline through the array
// without draining it).
//
// Output stationary: K beats per 512x512 output tile. Weight stationary:
// M beats per 512x512 weight tile (the weights sit still, every activation
// row streams through each weight tile).
func (n *NPU) computeCycles(g GEMM) float64 {
	fill := float64(n.cfg.PERows + n.cfg.PECols)
	if n.cfg.Dataflow == WeightStationary {
		kTiles := float64(ceilDiv(g.K, n.cfg.PERows))
		nTiles := float64(ceilDiv(g.N, n.cfg.PECols))
		return kTiles*nTiles*float64(g.M) + fill
	}
	mTiles := float64(ceilDiv(g.M, n.cfg.PERows))
	nTiles := float64(ceilDiv(g.N, n.cfg.PECols))
	return mTiles*nTiles*float64(g.K) + fill
}

// stallFraction is the verification-bubble fraction of memory time for a
// coarse MAC granularity, calibrated to Figure 20's overhead curve: the
// consume pipeline's skid buffer hides verification up to ~128 B groups;
// beyond that each doubling of the group size exposes ~3% more of the
// stream time (13% at 4 KB, matching the paper's report).
func stallFraction(granBytes int) float64 {
	if granBytes <= 128 {
		return 0
	}
	return 0.03 * math.Log2(float64(granBytes)/128)
}

// RunGEMM times one GEMM under the configured scheme.
func (n *NPU) RunGEMM(g GEMM) LayerResult {
	cfg := n.cfg
	res := LayerResult{Name: g.Name}
	res.Tiles = ceilDiv(g.M, cfg.PERows) * ceilDiv(g.N, cfg.PECols)
	res.DataBytes = n.traffic(g)
	res.Compute = n.cycles(n.computeCycles(g))

	memBytes := res.DataBytes
	var stall sim.Dur
	if cfg.Secure {
		switch cfg.Scheme {
		case npumac.SchemeCacheline:
			res.MACTrafficBytes = res.DataBytes / 64 * int64(cfg.MACBytes)
		case npumac.SchemeCoarse:
			res.MACTrafficBytes = res.DataBytes / int64(cfg.MACGranBytes) * int64(cfg.MACBytes)
			memTime := sim.BytesAt(memBytes+res.MACTrafficBytes, cfg.BandwidthBs)
			stall = sim.Dur(float64(memTime) * stallFraction(cfg.MACGranBytes))
		case npumac.SchemeTensorDelayed:
			// Tensor MAC lives on chip: no MAC traffic. The residual cost
			// is the AES/MAC latency exposure when each tile stream starts
			// (the first fill of the double buffer cannot be hidden) plus
			// the verification barrier per tensor (a compare, few cycles).
			perTile := float64(cfg.AESLatCycles + cfg.MACLatCycles)
			stall = n.cycles(perTile * float64(res.Tiles))
		}
		memBytes += res.MACTrafficBytes
	}
	res.Memory = sim.BytesAt(memBytes, cfg.BandwidthBs)

	// Kernel code fetch: always inline-verified (non-delayed), stream +
	// one MAC latency per code line before the first instruction issues.
	if cfg.Secure {
		res.CodeFetch = sim.BytesAt(KernelCodeBytes, cfg.BandwidthBs) +
			n.cycles(float64(cfg.MACLatCycles))
		// Functional check: every line of untampered code verifies.
		if err := n.verifier.VerifyCodeLines(kernelCodeMACs[:], kernelCodeRefMACs[:]); err != nil {
			panic("npusim: clean code failed verification")
		}
	}

	// Double-buffered execution: compute and memory overlap; the layer is
	// bound by the slower of the two, plus exposed verification bubbles
	// and the serial code fetch at kernel launch.
	res.Stall = stall
	res.Total = sim.Max(res.Compute, res.Memory) + stall + res.CodeFetch

	// Functional delayed-verification bookkeeping: the layer's operand
	// tensors stream through the verifier; its output propagates poison
	// until inputs verify (Figure 14).
	if cfg.Secure && cfg.Scheme == npumac.SchemeTensorDelayed {
		a, b, c := n.nextID, n.nextID+1, n.nextID+2
		n.nextID += 3
		n.verifier.BeginRead(a, 0)
		n.verifier.BeginRead(b, 0)
		n.verifier.CompleteRead(a)
		n.verifier.CompleteRead(b)
		n.verifier.Propagate(c, a, b)
	}
	return res
}

// RunLayers times a sequence of dependent GEMMs.
func (n *NPU) RunLayers(gs []GEMM) Result {
	r := Result{Layers: make([]LayerResult, 0, len(gs))}
	if n.cfg.Secure && n.cfg.Scheme == npumac.SchemeTensorDelayed {
		// RunGEMM's delayed-verification bookkeeping takes three tensor
		// IDs per GEMM.
		n.verifier.Reserve(3 * len(gs))
	}
	for _, g := range gs {
		l := n.RunGEMM(g)
		r.Layers = append(r.Layers, l)
		r.Total += l.Total
	}
	return r
}

// EffectiveFLOPs reports achieved FLOP/s for a result.
func (n *NPU) EffectiveFLOPs(gs []GEMM, r Result) float64 {
	var fl float64
	for _, g := range gs {
		fl += g.FLOPs()
	}
	if r.Total == 0 {
		return 0
	}
	return fl / r.Total.Seconds()
}

// StorageOverheadBytes reports the off-chip MAC storage for protecting
// capacity bytes under the configured scheme (Figure 20 right axis).
func (n *NPU) StorageOverheadBytes(capacity int64) int64 {
	if !n.cfg.Secure {
		return 0
	}
	switch n.cfg.Scheme {
	case npumac.SchemeCacheline:
		return capacity / 64 * int64(n.cfg.MACBytes)
	case npumac.SchemeCoarse:
		return capacity / int64(n.cfg.MACGranBytes) * int64(n.cfg.MACBytes)
	default:
		return 0
	}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
