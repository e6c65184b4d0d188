// Package scenario turns declarative experiment specifications into runs
// of the calibrated simulation pipeline. A Spec names a workload model
// (one of the Table-2 zoo or a custom transformer shape), a set of systems
// with structured overrides of the Table-1 configuration, a metric set,
// and an optional one-axis sweep — everything the paper's fixed fig/tab
// registry hard-codes, opened up to user-defined (model x system x
// protection x sweep-axis) experiments.
//
// Specs are plain JSON-settable structs:
//
//	{
//	  "name": "llama-meta-cache",
//	  "model": {"layers": 32, "hidden": 4096, "heads": 32, "ffn": 11008,
//	            "vocab": 32000, "batch": 2, "seqlen": 1024},
//	  "systems": [{"kind": "tensortee"}],
//	  "metrics": ["total", "cpu"],
//	  "sweep": {"axis": "meta_cache_kb", "values": [64, 128, 256]}
//	}
//
// Validation failures are typed: every error matches ErrInvalidSpec with
// errors.Is, and the specific causes (ErrUnknownModel, ErrBadSweep,
// ErrUnsafeOverride, ...) match too, so callers can map them to exit codes
// or HTTP statuses without string matching.
package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"tensortee/internal/config"
)

// Sentinel errors. Wrapped failures match both ErrInvalidSpec and the
// specific sentinel with errors.Is.
var (
	// ErrInvalidSpec reports any specification the engine refuses to run.
	ErrInvalidSpec = errors.New("scenario: invalid spec")
	// ErrUnknownModel reports a model name outside the Table-2 zoo.
	ErrUnknownModel = errors.New("scenario: unknown model")
	// ErrBadSweep reports a malformed sweep: unknown axis, no values,
	// zero/negative bounds, or non-integral values on an integer axis.
	ErrBadSweep = errors.New("scenario: invalid sweep")
	// ErrUnsafeOverride reports an override that would invalidate system
	// calibration (e.g. a protected region smaller than the calibration
	// window), so the measured cost-per-byte would be meaningless.
	ErrUnsafeOverride = errors.New("scenario: override would break calibration")
	// ErrUnknownMetric reports a metric name outside Metrics().
	ErrUnknownMetric = errors.New("scenario: unknown metric")
)

func invalid(sentinel error, format string, args ...any) error {
	detail := fmt.Sprintf(format, args...)
	if sentinel == nil || sentinel == ErrInvalidSpec {
		return fmt.Errorf("%w: %s", ErrInvalidSpec, detail)
	}
	return fmt.Errorf("%w: %w: %s", ErrInvalidSpec, sentinel, detail)
}

// ModelSpec selects the workload: either Name (one of workload.Models())
// or a custom transformer shape. Non-zero dimension fields override the
// named model's dimensions, so a zoo model can be reshaped ("LLAMA2-7B but
// hidden 8192"). For fully custom models, Layers, Hidden and Heads are
// required; FFN defaults to 4*Hidden, Vocab to 50257, Batch to 1 and
// SeqLen to 1024.
type ModelSpec struct {
	// Name selects a zoo model (one of workload.Models()); empty means a
	// fully custom shape.
	Name string `json:"name,omitempty"`
	// Layers is the transformer block count.
	Layers int `json:"layers,omitempty"`
	// Hidden is the model (embedding) dimension.
	Hidden int `json:"hidden,omitempty"`
	// Heads is the attention head count (must divide Hidden).
	Heads int `json:"heads,omitempty"`
	// FFNDim is the feed-forward inner dimension (default 4*Hidden).
	FFNDim int `json:"ffn,omitempty"`
	// Vocab is the vocabulary size (default 50257).
	Vocab int `json:"vocab,omitempty"`
	// Batch is the training batch size (default 1).
	Batch int `json:"batch,omitempty"`
	// SeqLen is the sequence length (default 1024).
	SeqLen int `json:"seqlen,omitempty"`
}

// Overrides adjusts Table-1 knobs for one system. Zero values leave the
// default untouched; negative values are rejected.
type Overrides struct {
	// MEEMode forces the CPU protection path: "sgx" (per-cacheline
	// VN+MAC+Merkle) or "tensor" (TenAnalyzer in the memory controller).
	// "off" is only valid on the non-secure kind.
	MEEMode string `json:"mee_mode,omitempty"`
	// MetaCacheKB sizes the MEE metadata cache (default 32).
	MetaCacheKB int `json:"meta_cache_kb,omitempty"`
	// DRAMChannels sets the host DDR4 channel count (default 2).
	DRAMChannels int `json:"dram_channels,omitempty"`
	// NPUAESEngines sets the NPU communication-path AES engine count
	// (default 1; Section 3.3 sizes one engine at ~8 GB/s).
	NPUAESEngines int `json:"npu_aes_engines,omitempty"`
	// NPUBandwidthGBs sets the NPU GDDR bandwidth in GB/s (default 128).
	NPUBandwidthGBs float64 `json:"npu_bandwidth_gbs,omitempty"`
	// LinkGBs sets the PCIe effective DMA bandwidth in GB/s (default 26).
	// Transfers cross the wire at the lower of LinkGBs and StagingGBs.
	LinkGBs float64 `json:"link_gbs,omitempty"`
	// StagingGBs sets the staged-copy bandwidth in GB/s (default 12).
	StagingGBs float64 `json:"staging_gbs,omitempty"`
	// MACGranBytes sets the NPU MAC granularity in bytes (default 64; must
	// be at least the cacheline size; >64 selects coarse grouping).
	MACGranBytes int `json:"mac_gran_bytes,omitempty"`
	// RegionMB sets the MEE protected-region span in MB. Values below the
	// calibration window (64 MB) are rejected with ErrUnsafeOverride.
	RegionMB int `json:"region_mb,omitempty"`
}

// SystemSpec is one evaluated system: a base kind plus overrides.
type SystemSpec struct {
	// Kind is "non-secure", "sgx-mgx" or "tensortee" (the paper's three
	// systems; common spellings like "sgx+mgx" are accepted).
	Kind string `json:"kind"`
	// Overrides adjusts the kind's Table-1 defaults; nil keeps them all.
	Overrides *Overrides `json:"overrides,omitempty"`
}

// Sweep is the optional one-axis parameter sweep. The axis is either a
// ModelSpec dimension or a numeric Overrides field, named by its JSON key
// (see SweepAxes). Model axes reshape the workload per point; override
// axes apply to every system in the spec on top of its own overrides.
type Sweep struct {
	// Axis names the swept dimension.
	Axis string `json:"axis"`
	// Values are the settings to evaluate, one point each, in order.
	Values []float64 `json:"values"`
}

// Spec is one declarative experiment.
type Spec struct {
	// Name labels the scenario (default "custom"); it becomes part of the
	// result id ("scenario:<name>").
	Name string `json:"name,omitempty"`
	// Model is the workload to simulate.
	Model ModelSpec `json:"model"`
	// Systems are the configurations to evaluate, baseline first.
	Systems []SystemSpec `json:"systems"`
	// Metrics selects the reported columns (see Metrics()); empty selects
	// all of them (speedup only when at least two systems are listed).
	Metrics []string `json:"metrics,omitempty"`
	// Sweep, when present, evaluates the spec once per axis value.
	Sweep *Sweep `json:"sweep,omitempty"`
}

// Metrics lists the valid metric names: per-phase visible times of one
// ZeRO-Offload training step in seconds, plus "speedup" — the ratio of the
// first listed system's total to this system's total (list the baseline
// first to reproduce the paper's speedup convention).
func Metrics() []string {
	return []string{"total", "npu", "cpu", "comm_w", "comm_g", "comm", "speedup"}
}

// parseKind normalizes a system-kind spelling.
func parseKind(s string) (config.SystemKind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "non-secure", "nonsecure", "ns":
		return config.NonSecure, nil
	case "sgx-mgx", "sgx+mgx", "sgxmgx", "baseline":
		return config.BaselineSGXMGX, nil
	case "tensortee", "tensor-tee":
		return config.TensorTEE, nil
	default:
		return 0, invalid(nil, "unknown system kind %q (want non-secure, sgx-mgx or tensortee)", s)
	}
}

// kindLabel renders the canonical spelling for fingerprints and tables.
func kindLabel(k config.SystemKind) string {
	switch k {
	case config.NonSecure:
		return "non-secure"
	case config.BaselineSGXMGX:
		return "sgx-mgx"
	default:
		return "tensortee"
	}
}

// Validate checks the spec without running anything. Every returned error
// matches ErrInvalidSpec with errors.Is; specific causes additionally
// match ErrUnknownModel, ErrBadSweep, ErrUnsafeOverride or
// ErrUnknownMetric.
func (s *Spec) Validate() error {
	_, err := Compile(*s)
	return err
}

// Fingerprint returns a stable hex content hash of the normalized spec.
// Two specs that differ only in spelling (JSON key order, kind casing,
// omitted defaults) share a fingerprint, so caches keyed on it deduplicate
// equivalent requests. Invalid specs fingerprint over their raw form.
func (s *Spec) Fingerprint() string {
	var doc any
	if p, err := Compile(*s); err == nil {
		doc = p.Spec
	} else {
		doc = s
	}
	b, err := json.Marshal(doc)
	if err != nil {
		b = []byte(fmt.Sprintf("unmarshalable:%v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}
