// Package tensortee is a library-scale reproduction of "TensorTEE: Unifying
// Heterogeneous TEE Granularity for Efficient Secure Collaborative Tensor
// Computing" (ASPLOS 2024).
//
// It provides two things:
//
//   - A simulation API that times ZeRO-Offload LLM training steps on three
//     end-to-end systems — a Non-Secure reference, the paper's SGX+MGX
//     baseline, and TensorTEE — over a gem5-lite CPU model, a TPU-like NPU
//     model, and a PCIe transfer model. Every table and figure of the
//     paper's evaluation regenerates through a Runner:
//
//     r := tensortee.NewRunner(tensortee.WithParallelism(4))
//     res, err := r.Run(ctx, "fig16")         // one experiment
//     all, err := r.RunAll(ctx)               // everything, concurrently
//
//     Results come back typed (Result: tables, scalars, notes) with
//     Text/JSON/CSV renderers, and a shared calibration cache means each
//     system kind calibrates once per Runner, not once per experiment.
//     See cmd/tensorteesim and EXPERIMENTS.md for the experiment index.
//     Single steps can still be timed directly through System/TrainStep.
//
//   - A functional API (Platform) that actually runs the security
//     protocols: AES-CTR protected memory with per-tensor version numbers,
//     XOR tensor MACs with delayed verification and poison tracking,
//     remote attestation with Diffie–Hellman key exchange, and the direct
//     (no re-encryption) tensor transfer protocol between the CPU and NPU
//     enclaves. NewPlatform takes functional options (WithRegionBytes,
//     WithSeed, WithLineSize); CreateTensor returns a *TensorHandle whose
//     Write/Read/Transfer/Verify methods drive the protocol. Tampering
//     with the simulated off-chip memory or buses is detected and surfaced
//     as typed sentinel errors (ErrTampered, ErrPoisoned, ...) matchable
//     with errors.Is.
package tensortee

import (
	"time"

	"tensortee/internal/config"
	"tensortee/internal/core"
	"tensortee/internal/experiments"
	"tensortee/internal/scenario"
	"tensortee/internal/sim"
	"tensortee/internal/workload"
)

// Kind selects one of the three evaluated systems.
type Kind int

const (
	// NonSecure disables all protection (the performance reference).
	NonSecure Kind = iota
	// BaselineSGXMGX is the paper's baseline: SGX-like CPU TEE, MGX-like
	// NPU TEE, Graviton-like staged communication.
	BaselineSGXMGX
	// TensorTEE is the unified tensor-granularity system.
	TensorTEE
)

// String names the system kind the way the paper does.
func (k Kind) String() string { return k.kind().String() }

func (k Kind) kind() config.SystemKind {
	switch k {
	case NonSecure:
		return config.NonSecure
	case BaselineSGXMGX:
		return config.BaselineSGXMGX
	default:
		return config.TensorTEE
	}
}

// Breakdown is the visible time of one training step per phase.
type Breakdown struct {
	// NPU, CPU, CommWeights and CommGrads are the per-phase visible
	// times: accelerator compute, host optimizer, weight upload, and
	// gradient offload.
	NPU, CPU, CommWeights, CommGrads time.Duration
	// Total is the step time: the sum of the visible phase times.
	Total time.Duration
}

func toDuration(t sim.Dur) time.Duration {
	// sim time is picoseconds; time.Duration is nanoseconds.
	return time.Duration(t / 1000)
}

// System is a calibrated end-to-end system simulator.
type System struct {
	inner *core.System
}

// NewSystem builds and calibrates a system of the given kind. Calibration
// runs a short CPU-simulation sample, so construction takes a moment.
func NewSystem(kind Kind) (*System, error) {
	s, err := core.NewSystem(kind.kind())
	if err != nil {
		return nil, err
	}
	return &System{inner: s}, nil
}

// TrainStep simulates one ZeRO-Offload training iteration for the named
// model (see ModelNames) and returns the visible time breakdown.
func (s *System) TrainStep(model string) (Breakdown, error) {
	m, err := workload.ModelByName(model)
	if err != nil {
		return Breakdown{}, err
	}
	b := s.inner.TrainStep(m)
	out := Breakdown{
		NPU:         toDuration(b.NPU),
		CPU:         toDuration(b.CPU),
		CommWeights: toDuration(b.CommW),
		CommGrads:   toDuration(b.CommG),
	}
	out.Total = out.NPU + out.CPU + out.CommWeights + out.CommGrads
	return out, nil
}

// Describe summarizes the system configuration.
func (s *System) Describe() string { return s.inner.Describe() }

// ModelInfo describes one Table-2 workload.
type ModelInfo struct {
	// Name is the workload's Table-2 name (e.g. "LLAMA2-7B").
	Name string
	// Params is the parameter count; ParamsLabel is its Table-2 rendering
	// (e.g. "7B").
	Params      int64
	ParamsLabel string
	// BatchSize, Layers and Hidden are the Table-2 training shape.
	BatchSize int
	Layers    int
	Hidden    int
	// TensorCount is the number of distinct tensors one step touches.
	TensorCount int
}

// ModelNames lists the Table-2 workloads in the paper's order.
func ModelNames() []string {
	var out []string
	for _, m := range workload.Models() {
		out = append(out, m.Name)
	}
	return out
}

// Model returns the named workload's description.
func Model(name string) (ModelInfo, error) {
	m, err := workload.ModelByName(name)
	if err != nil {
		return ModelInfo{}, err
	}
	return ModelInfo{
		Name:        m.Name,
		Params:      m.Params(),
		ParamsLabel: m.ParamsStr,
		BatchSize:   m.BatchSize,
		Layers:      m.Layers,
		Hidden:      m.Hidden,
		TensorCount: m.Stats().Count,
	}, nil
}

// ExperimentInfo describes one entry of the experiment index: the stable
// id plus the paper-artifact metadata shared by every index consumer (the
// CLI's -list, the tensorteed daemon's /v1/experiments, EXPERIMENTS.md).
type ExperimentInfo struct {
	// ID is the stable experiment id (e.g. "fig16").
	ID string `json:"id"`
	// Artifact names the paper artifact reproduced (e.g. "Figure 16").
	Artifact string `json:"artifact"`
	// About is a one-line description of what regenerates.
	About string `json:"about"`
	// Heavy marks experiments that calibrate end-to-end systems or run
	// long iteration sweeps.
	Heavy bool `json:"heavy"`
}

// Experiments lists the reproducible tables and figures with their
// paper-artifact metadata, in the paper's order.
func Experiments() []ExperimentInfo {
	var out []ExperimentInfo
	for _, e := range experiments.Registry() {
		out = append(out, ExperimentInfo{ID: e.ID, Artifact: e.Artifact, About: e.About, Heavy: e.Heavy})
	}
	return out
}

// ExperimentIDs lists the reproducible tables and figures.
func ExperimentIDs() []string {
	var out []string
	for _, e := range experiments.Registry() {
		out = append(out, e.ID)
	}
	return out
}

// Scenario is a declarative custom experiment: a workload model (zoo name
// or custom transformer dims), a set of systems with structured Table-1
// overrides, a metric set, and an optional one-axis sweep. Build one in Go
// or decode it from JSON, then execute it with Runner.RunScenario:
//
//	spec := tensortee.Scenario{
//		Model:   tensortee.ScenarioModel{Name: "LLAMA2-7B"},
//		Systems: []tensortee.ScenarioSystem{{Kind: "sgx-mgx"}, {Kind: "tensortee"}},
//		Sweep:   &tensortee.ScenarioSweep{Axis: "meta_cache_kb", Values: []float64{64, 128, 256}},
//	}
//	res, err := tensortee.NewRunner().RunScenario(ctx, spec)
//
// The same JSON form drives `tensorteesim -scenario spec.json` and
// tensorteed's POST /v1/scenarios.
type Scenario = scenario.Spec

// ScenarioModel selects the scenario workload (see scenario.ModelSpec).
type ScenarioModel = scenario.ModelSpec

// ScenarioSystem is one evaluated system of a scenario.
type ScenarioSystem = scenario.SystemSpec

// ScenarioOverrides adjusts Table-1 knobs for one scenario system.
type ScenarioOverrides = scenario.Overrides

// ScenarioSweep is a scenario's one-axis parameter sweep.
type ScenarioSweep = scenario.Sweep

// Scenario validation sentinels, matchable with errors.Is. Every
// rejection matches ErrInvalidScenario; the specific causes additionally
// match their own sentinel.
var (
	// ErrInvalidScenario reports any scenario spec the engine refuses.
	ErrInvalidScenario = scenario.ErrInvalidSpec
	// ErrUnknownModel reports a scenario model name outside the Table-2 zoo.
	ErrUnknownModel = scenario.ErrUnknownModel
	// ErrBadSweep reports a malformed scenario sweep (unknown axis,
	// zero/negative bounds, non-integral values on integer axes).
	ErrBadSweep = scenario.ErrBadSweep
	// ErrUnsafeOverride reports a scenario override that would invalidate
	// system calibration (e.g. a protected region below the calibration
	// window).
	ErrUnsafeOverride = scenario.ErrUnsafeOverride
	// ErrUnknownMetric reports a scenario metric name outside
	// ScenarioMetrics().
	ErrUnknownMetric = scenario.ErrUnknownMetric
)

// ScenarioMetrics lists the valid scenario metric names.
func ScenarioMetrics() []string { return scenario.Metrics() }

// ScenarioSweepAxes lists the valid scenario sweep axis names.
func ScenarioSweepAxes() []string { return scenario.SweepAxes() }
