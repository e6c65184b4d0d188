// Package core wires the CPU simulator, the NPU simulator, and the
// communication model into the three systems the paper evaluates
// (Section 5.2): Non-Secure, the SGX+MGX baseline, and TensorTEE. Its
// TrainStep composes one ZeRO-Offload iteration (Figure 1) and reports the
// visible time breakdown that Figures 5, 16, and 17 plot.
package core

import (
	"fmt"
	"math"

	"tensortee/internal/comm"
	"tensortee/internal/config"
	"tensortee/internal/cpusim"
	"tensortee/internal/mee"
	"tensortee/internal/npumac"
	"tensortee/internal/npusim"
	"tensortee/internal/sim"
	"tensortee/internal/tensor"
	"tensortee/internal/trace"
	"tensortee/internal/workload"
)

// StepBreakdown is the visible per-phase time of one training step: the
// NPU forward+backward, the CPU optimizer, and the two transfers (weights
// CPU->NPU, gradients NPU->CPU) after overlap with computation.
type StepBreakdown struct {
	NPU   sim.Dur
	CPU   sim.Dur
	CommW sim.Dur
	CommG sim.Dur
}

// Total is the step's critical-path time.
func (b StepBreakdown) Total() sim.Dur { return b.NPU + b.CPU + b.CommW + b.CommG }

// Fractions returns each phase's share of the total.
func (b StepBreakdown) Fractions() (npu, cpu, commW, commG float64) {
	t := float64(b.Total())
	if t == 0 {
		return 0, 0, 0, 0
	}
	return float64(b.NPU) / t, float64(b.CPU) / t, float64(b.CommW) / t, float64(b.CommG) / t
}

// System is one configured end-to-end system.
type System struct {
	Cfg  config.Config
	Link comm.LinkModel

	// cpuCostPerByte is the calibrated steady-state CPU Adam time per byte
	// of optimizer-state traffic, measured once by simulation (the sweep is
	// streaming, so time is linear in footprint).
	cpuCostPerByte float64
	// cpuWarmupPerByte is the iteration-1 (detection) cost per byte, kept
	// for warmup-sensitive experiments.
	cpuWarmupPerByte float64
}

// SampledElems is the optimizer-sweep window the CPU calibration
// simulates; large models scale linearly from it.
const SampledElems = 1 << 21

// adamTrafficBytesPerElem is the DRAM traffic per fp32 element of a fused
// Adam sweep: read w,g,m,v and write back w,m,v.
const adamTrafficBytesPerElem = 28

// NewSystem builds and calibrates a system of the given kind with the
// Table-1 default configuration.
func NewSystem(kind config.SystemKind) (*System, error) {
	return NewSystemFromConfig(config.Default(kind))
}

// NewSystemFromConfig builds and calibrates a system from an explicit
// configuration — the entry point for custom scenarios that override
// Table-1 knobs (metadata-cache size, DRAM channels, link bandwidth, ...).
// The protection behavior (MEE mode, NPU MAC scheme, transfer protocol) is
// derived from the Protection flags, not from the SystemKind label, so a
// config may mix, say, the SGX-like CPU MEE with the direct transfer
// protocol.
func NewSystemFromConfig(cfg config.Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{Cfg: cfg, Link: comm.FromSystem(&cfg)}
	s.calibrateCPU()
	return s, nil
}

// CalibrationSnapshot is the serializable product of calibrateCPU: the
// two measured cost-per-byte figures, carried as raw IEEE-754 bits so a
// snapshot round-trips bit-exactly through any text encoding. Everything
// else in a System is derived from its Config, so (config fingerprint,
// snapshot) fully reconstructs a calibrated system — which is what makes
// cold-start calibration O(disk read) for the persistent store.
type CalibrationSnapshot struct {
	CostPerByteBits   uint64 `json:"cost_per_byte_bits"`
	WarmupPerByteBits uint64 `json:"warmup_per_byte_bits"`
}

// Snapshot captures this system's calibrated state.
func (s *System) Snapshot() CalibrationSnapshot {
	return CalibrationSnapshot{
		CostPerByteBits:   math.Float64bits(s.cpuCostPerByte),
		WarmupPerByteBits: math.Float64bits(s.cpuWarmupPerByte),
	}
}

// NewSystemFromSnapshot rebuilds a calibrated system from a stored
// snapshot without re-running the calibration simulation. The snapshot
// must come from a system calibrated with an identical configuration
// (callers key snapshots by config content fingerprint); implausible
// snapshot values (non-finite or non-positive costs) are rejected so a
// stale or hand-edited snapshot degrades to an error — and thence to a
// fresh calibration — rather than to silently wrong numbers.
func NewSystemFromSnapshot(cfg config.Config, snap CalibrationSnapshot) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cost := math.Float64frombits(snap.CostPerByteBits)
	warm := math.Float64frombits(snap.WarmupPerByteBits)
	if !(cost > 0) || !(warm > 0) || math.IsInf(cost, 0) || math.IsInf(warm, 0) {
		return nil, fmt.Errorf("core: implausible calibration snapshot (cost=%g warmup=%g)", cost, warm)
	}
	s := &System{Cfg: cfg, Link: comm.FromSystem(&cfg)}
	s.cpuCostPerByte = cost
	s.cpuWarmupPerByte = warm
	return s, nil
}

// cpuMode derives the MEE mode from the protection configuration: no
// protection at all for non-secure systems, the tensor-granularity path
// when TenAnalyzer runs in the memory controller, the SGX-like
// per-cacheline path otherwise. For the three Table-1 defaults this maps
// exactly to the historical kind-based selection.
func (s *System) cpuMode() mee.Mode {
	switch {
	case !s.Cfg.Secure():
		return mee.ModeOff
	case s.Cfg.Protection.TensorWiseCPU:
		return mee.ModeTensor
	default:
		return mee.ModeSGX
	}
}

// npuScheme derives the NPU MAC scheme and granularity from the protection
// configuration: delayed tensor-granularity verification when enabled,
// else cacheline MACs at the configured granularity (coarse grouping when
// the granularity exceeds a line).
func (s *System) npuScheme() (npumac.Scheme, int) {
	gran := s.Cfg.Protection.MACGranBytes
	switch {
	case s.Cfg.Protection.DelayedVerification:
		return npumac.SchemeTensorDelayed, gran
	case gran > s.Cfg.NPU.LineBytes:
		return npumac.SchemeCoarse, gran
	default:
		return npumac.SchemeCacheline, gran
	}
}

// calibrateCPU measures the Adam sweep cost per byte by simulating a
// representative window at full thread count, one iteration for warmup
// (Meta Table detection in tensor mode) and one for steady state.
func (s *System) calibrateCPU() {
	arena := tensor.NewArena(0, 64)
	quads := []trace.AdamTensors{trace.NewAdamTensors(arena, "calib", SampledElems)}
	lines := int(arena.Next()/64) + 64
	// An explicit protected-region span deepens the Merkle tree and grows
	// the metadata footprint beyond what the calibration window implies.
	if pb := s.Cfg.CPU.ProtectedBytes; pb > 0 {
		if rl := int(pb / int64(s.Cfg.CPU.LineBytes)); rl > lines {
			lines = rl
		}
	}

	csim := cpusim.New(s.Cfg, cpusim.Options{Mode: s.cpuMode(), DataLines: lines})
	mk := func() []trace.Stream {
		return trace.AdamStreams(quads, trace.AdamConfig{
			LineBytes:      s.Cfg.CPU.LineBytes,
			ComputePerLine: sim.Cycles(40, s.Cfg.CPU.FreqHz),
			Cores:          s.Cfg.CPU.Cores,
		})
	}
	bytes := float64(SampledElems) * adamTrafficBytesPerElem
	warm := csim.Run(mk())
	s.cpuWarmupPerByte = warm.Makespan.Seconds() / bytes
	steady := csim.Run(mk())
	s.cpuCostPerByte = steady.Makespan.Seconds() / bytes
}

// CPUAdamTime returns the steady-state optimizer-step time for a model.
func (s *System) CPUAdamTime(m workload.Model) sim.Dur {
	bytes := float64(m.Params()) * adamTrafficBytesPerElem
	return sim.FromSeconds(bytes * s.cpuCostPerByte)
}

// CPUAdamWarmupTime returns the first-iteration (detection) time.
func (s *System) CPUAdamWarmupTime(m workload.Model) sim.Dur {
	bytes := float64(m.Params()) * adamTrafficBytesPerElem
	return sim.FromSeconds(bytes * s.cpuWarmupPerByte)
}

// NPUPhases times the forward and backward passes, deriving the backward
// GEMMs from the one forward list.
func (s *System) NPUPhases(m workload.Model) (fwd, bwd sim.Dur) {
	scheme, gran := s.npuScheme()
	n := npusim.New(npusim.FromSystem(&s.Cfg, scheme, gran))
	gs := m.ForwardGEMMs()
	fwd = n.RunLayers(gs).Total
	bwd = n.RunLayers(workload.BackwardOf(gs)).Total
	return fwd, bwd
}

// TrainStep composes one ZeRO-Offload training iteration.
//
// Scheduling per system (Sections 3.3 and 4.4):
//   - Non-Secure: gradients stream to the CPU during the backward pass
//     (overlapped); the weight transfer is a staged copy after the
//     optimizer step (not overlapped — standard memcpy semantics).
//   - SGX+MGX baseline: both transfers pay re-encryption through
//     non-secure staging and serialize with computation (AES-engine and
//     DRAM-bandwidth contention, Figure 7).
//   - TensorTEE: both transfers are direct ciphertext DMAs; gradients
//     overlap the backward pass and weights overlap the optimizer sweep
//     (per-tensor pipelining over quiesced Meta Table entries, Figure 15).
func (s *System) TrainStep(m workload.Model) StepBreakdown {
	fwd, bwd := s.NPUPhases(m)
	cpu := s.CPUAdamTime(m)
	gradBytes, weightBytes := m.CommBytes()

	var b StepBreakdown
	b.NPU = fwd + bwd
	b.CPU = cpu

	switch {
	case !s.Cfg.Secure():
		b.CommG = comm.Visible(s.Link.NonSecure(gradBytes), bwd, true)
		b.CommW = comm.Visible(s.Link.NonSecure(weightBytes), 0, false)
	case s.Cfg.Protection.DirectTransfer:
		// Same schedule as Non-Secure (gradients overlap backward, the
		// weight stage is sequential): the protocol removes the crypto
		// passes, it does not change the ZeRO-Offload schedule.
		b.CommG = comm.Visible(s.Link.Direct(gradBytes), bwd, true)
		b.CommW = comm.Visible(s.Link.Direct(weightBytes), 0, false)
	default:
		b.CommG = comm.Visible(s.Link.StagedSecure(gradBytes), 0, false)
		b.CommW = comm.Visible(s.Link.StagedSecure(weightBytes), 0, false)
	}
	return b
}

// GradTransferBreakdown exposes the Figure-21 decomposition of a gradient
// transfer under this system's protocol.
func (s *System) GradTransferBreakdown(m workload.Model) comm.Breakdown {
	gradBytes, _ := m.CommBytes()
	switch {
	case !s.Cfg.Secure():
		return s.Link.NonSecure(gradBytes)
	case s.Cfg.Protection.DirectTransfer:
		return s.Link.Direct(gradBytes)
	default:
		return s.Link.StagedSecure(gradBytes)
	}
}

// Describe summarizes the system for logs.
func (s *System) Describe() string {
	scheme, _ := s.npuScheme()
	return fmt.Sprintf("%s (cpu=%v, npu=%v, direct=%v)",
		s.Cfg.System, s.cpuMode(), scheme, s.Cfg.Protection.DirectTransfer)
}
