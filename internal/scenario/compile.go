package scenario

import (
	"fmt"
	"math"
	"strings"

	"tensortee/internal/config"
	"tensortee/internal/workload"
)

// Point is one sweep point: the resolved workload model plus one compiled
// configuration per system in the spec.
type Point struct {
	// Label names the point in tables ("hidden=4096"; the model name when
	// there is no sweep).
	Label string
	// Model is the resolved workload shape for this point.
	Model workload.Model
	// Configs holds one validated configuration per spec system, in spec
	// order.
	Configs []config.Config
}

// Plan is a compiled, validated spec: everything Run needs, resolved.
type Plan struct {
	// Spec is the normalized spec (defaults applied, kinds canonicalized);
	// its JSON form is what Fingerprint hashes.
	Spec Spec
	// SystemLabels names the spec's systems in order ("tensortee",
	// "sgx-mgx[meta_cache_kb=64]", ...).
	SystemLabels []string
	// Metrics is the resolved metric list.
	Metrics []string
	// Points holds the sweep points in value order (a single point when
	// the spec has no sweep).
	Points []Point
}

// Compile validates the spec and resolves it into a Plan. Every returned
// error matches ErrInvalidSpec.
func Compile(s Spec) (*Plan, error) {
	norm := Spec{Name: strings.TrimSpace(s.Name)}
	if norm.Name == "" {
		norm.Name = "custom"
	}

	if len(s.Systems) == 0 {
		return nil, invalid(nil, "spec lists no systems")
	}
	if len(s.Systems) > maxSystems {
		return nil, invalid(nil, "spec lists %d systems, max %d", len(s.Systems), maxSystems)
	}
	kinds := make([]config.SystemKind, len(s.Systems))
	for i, sys := range s.Systems {
		k, err := parseKind(sys.Kind)
		if err != nil {
			return nil, err
		}
		kinds[i] = k
		ns := SystemSpec{Kind: kindLabel(k)}
		if sys.Overrides != nil {
			if err := sys.Overrides.check(k); err != nil {
				return nil, err
			}
			ns.Overrides = sys.Overrides.normalize(k)
		}
		norm.Systems = append(norm.Systems, ns)
	}

	metrics, err := resolveMetrics(s.Metrics, len(s.Systems))
	if err != nil {
		return nil, err
	}
	norm.Metrics = metrics

	model, err := resolveModel(s.Model)
	if err != nil {
		return nil, err
	}
	norm.Model = model

	sweepPoints, err := resolveSweep(s.Sweep)
	if err != nil {
		return nil, err
	}
	if s.Sweep != nil {
		norm.Sweep = &Sweep{Axis: strings.ToLower(strings.TrimSpace(s.Sweep.Axis)), Values: sweepPoints}
	}

	plan := &Plan{Spec: norm, Metrics: metrics}
	for i, sys := range norm.Systems {
		plan.SystemLabels = append(plan.SystemLabels, systemLabel(sys, kinds[i]))
	}

	points := []float64{0} // one point when there is no sweep
	if norm.Sweep != nil {
		points = norm.Sweep.Values
	}
	if n := len(points) * len(norm.Systems); n > maxPointSystems {
		return nil, invalid(nil, "spec compiles to %d point-system runs (%d points x %d systems), max %d", n, len(points), len(norm.Systems), maxPointSystems)
	}
	for _, v := range points {
		p, err := compilePoint(norm, kinds, v)
		if err != nil {
			return nil, err
		}
		plan.Points = append(plan.Points, p)
	}
	return plan, nil
}

// resolveMetrics expands and validates the metric list.
func resolveMetrics(requested []string, systems int) ([]string, error) {
	if len(requested) == 0 {
		all := []string{"total", "npu", "cpu", "comm_w", "comm_g"}
		if systems > 1 {
			all = append(all, "speedup")
		}
		return all, nil
	}
	known := make(map[string]bool, len(Metrics()))
	for _, m := range Metrics() {
		known[m] = true
	}
	var out []string
	seen := make(map[string]bool)
	for _, m := range requested {
		m = strings.ToLower(strings.TrimSpace(m))
		if !known[m] {
			return nil, invalid(ErrUnknownMetric, "%q (want one of %s)", m, strings.Join(Metrics(), ", "))
		}
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out, nil
}

// resolveModel normalizes the model spec: named models resolve against the
// zoo (with optional dimension overrides), custom models get defaults and
// required-field checks. The returned spec is fully resolved — every
// dimension explicit — so normalization is idempotent and fingerprints of
// equivalent specs agree. Fields are checked in declaration order, so a
// spec with several bad fields always gets the same error.
func resolveModel(m ModelSpec) (ModelSpec, error) {
	for _, f := range []struct {
		name string
		val  int
	}{
		{"layers", m.Layers}, {"hidden", m.Hidden}, {"heads", m.Heads},
		{"ffn", m.FFNDim}, {"vocab", m.Vocab}, {"batch", m.Batch}, {"seqlen", m.SeqLen},
	} {
		if f.val < 0 {
			return ModelSpec{}, invalid(nil, "model %s must be positive, got %d", f.name, f.val)
		}
	}
	if m.Name != "" {
		zoo, err := workload.ModelByName(m.Name)
		if err != nil {
			return ModelSpec{}, invalid(ErrUnknownModel, "%q (see tensorteesim -models)", m.Name)
		}
		base := ModelSpec{
			Name: zoo.Name, Layers: zoo.Layers, Hidden: zoo.Hidden, Heads: zoo.Heads,
			FFNDim: zoo.FFNDim, Vocab: zoo.Vocab, Batch: zoo.BatchSize, SeqLen: zoo.SeqLen,
		}
		overlay(&base, m)
		return base, nil
	}
	if m.Layers == 0 || m.Hidden == 0 || m.Heads == 0 {
		return ModelSpec{}, invalid(nil, "custom model needs layers, hidden and heads (got %d/%d/%d)", m.Layers, m.Hidden, m.Heads)
	}
	if m.FFNDim == 0 {
		m.FFNDim = 4 * m.Hidden
	}
	if m.Vocab == 0 {
		m.Vocab = 50257
	}
	if m.Batch == 0 {
		m.Batch = 1
	}
	if m.SeqLen == 0 {
		m.SeqLen = 1024
	}
	return m, nil
}

// overlay applies non-zero dimension fields of src over dst.
func overlay(dst *ModelSpec, src ModelSpec) {
	if src.Layers != 0 {
		dst.Layers = src.Layers
	}
	if src.Hidden != 0 {
		dst.Hidden = src.Hidden
	}
	if src.Heads != 0 {
		dst.Heads = src.Heads
	}
	if src.FFNDim != 0 {
		dst.FFNDim = src.FFNDim
	}
	if src.Vocab != 0 {
		dst.Vocab = src.Vocab
	}
	if src.Batch != 0 {
		dst.Batch = src.Batch
	}
	if src.SeqLen != 0 {
		dst.SeqLen = src.SeqLen
	}
}

// resolveSweep validates the sweep shape (axis and value bounds); the
// per-point semantic checks happen at compilePoint.
func resolveSweep(sw *Sweep) ([]float64, error) {
	if sw == nil {
		return nil, nil
	}
	axis := strings.ToLower(strings.TrimSpace(sw.Axis))
	_, isModel := modelAxes[axis]
	ov, isOverride := overrideAxes[axis]
	if !isModel && !isOverride {
		return nil, invalid(ErrBadSweep, "unknown axis %q (want one of %s)", sw.Axis, strings.Join(SweepAxes(), ", "))
	}
	if len(sw.Values) == 0 {
		return nil, invalid(ErrBadSweep, "axis %q has no values", axis)
	}
	if len(sw.Values) > maxSweepPoints {
		return nil, invalid(ErrBadSweep, "axis %q has %d values, max %d", axis, len(sw.Values), maxSweepPoints)
	}
	integral := isModel || ov.integral
	out := make([]float64, len(sw.Values))
	for i, v := range sw.Values {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, invalid(ErrBadSweep, "axis %q value %v must be a positive finite number", axis, v)
		}
		if integral && v != math.Trunc(v) {
			return nil, invalid(ErrBadSweep, "axis %q takes integers, got %v", axis, v)
		}
		out[i] = v
	}
	return out, nil
}

// check validates override field ranges against the base kind. Range
// errors that would silently invalidate the calibration sample map to
// ErrUnsafeOverride; the rest are plain ErrInvalidSpec. Fields are checked
// in a fixed order, so a spec with several bad fields always gets the
// same error.
func (o *Overrides) check(kind config.SystemKind) error {
	for _, b := range []struct {
		name     string
		val, max int
	}{
		{"meta_cache_kb", o.MetaCacheKB, maxMetaCacheKB},
		{"dram_channels", o.DRAMChannels, maxDRAMChannels},
		{"npu_aes_engines", o.NPUAESEngines, maxAESEngines},
		{"mac_gran_bytes", o.MACGranBytes, maxMACGranBytes},
	} {
		if b.val < 0 {
			return invalid(nil, "override %s must be positive, got %d", b.name, b.val)
		}
		if b.val > b.max {
			return invalid(nil, "override %s %d above the %d simulation bound", b.name, b.val, b.max)
		}
	}
	if o.RegionMB < 0 {
		return invalid(nil, "override region_mb must be positive, got %d", o.RegionMB)
	}
	for _, b := range []struct {
		name string
		val  float64
	}{
		{"npu_bandwidth_gbs", o.NPUBandwidthGBs}, {"link_gbs", o.LinkGBs}, {"staging_gbs", o.StagingGBs},
	} {
		if b.val < 0 || math.IsNaN(b.val) || math.IsInf(b.val, 0) {
			return invalid(nil, "override %s must be a positive finite number, got %v", b.name, b.val)
		}
		if b.val > maxBandwidthGBs {
			return invalid(nil, "override %s %g above the %g GB/s simulation bound", b.name, b.val, float64(maxBandwidthGBs))
		}
	}
	switch strings.ToLower(strings.TrimSpace(o.MEEMode)) {
	case "":
	case "off":
		if kind != config.NonSecure {
			return invalid(nil, "mee_mode \"off\" is only valid on the non-secure kind")
		}
	case "sgx", "tensor":
		if kind == config.NonSecure {
			return invalid(nil, "mee_mode %q conflicts with the non-secure kind", o.MEEMode)
		}
	default:
		return invalid(nil, "unknown mee_mode %q (want off, sgx or tensor)", o.MEEMode)
	}
	if o.RegionMB > 0 {
		// Compare in MB, before the <<20 shift: region_mb values >= 2^44
		// would wrap the shifted int64, and a wrapped product landing back
		// inside the valid window would silently simulate a region far
		// smaller than the one the result is labeled with.
		if o.RegionMB > int(config.MaxProtectedBytes>>20) {
			return invalid(nil, "region_mb %d above the %d MB simulation bound", o.RegionMB, config.MaxProtectedBytes>>20)
		}
		if int64(o.RegionMB)<<20 < config.MinProtectedBytes {
			return invalid(ErrUnsafeOverride, "region_mb %d is below the %d MB calibration window", o.RegionMB, config.MinProtectedBytes>>20)
		}
	}
	return nil
}

// normalize canonicalizes an override set against the kind's Table-1
// defaults: fields that restate the default are zeroed (so a spec
// spelling out "meta_cache_kb": 32 fingerprints — and labels — the same
// as one omitting it), and an override set with nothing left collapses to
// nil. The returned value is a copy; the input is not mutated.
func (o *Overrides) normalize(kind config.SystemKind) *Overrides {
	def := config.Default(kind)
	n := *o
	n.MEEMode = strings.ToLower(strings.TrimSpace(n.MEEMode))
	defMode := "off"
	if def.Secure() {
		defMode = "sgx"
		if def.Protection.TensorWiseCPU {
			defMode = "tensor"
		}
	}
	if n.MEEMode == defMode {
		n.MEEMode = ""
	}
	if n.MetaCacheKB == def.CPU.MetaCacheSize>>10 {
		n.MetaCacheKB = 0
	}
	if n.DRAMChannels == def.HostDRAM.Channels {
		n.DRAMChannels = 0
	}
	if n.NPUAESEngines == def.NPU.AESEngines {
		n.NPUAESEngines = 0
	}
	if n.NPUBandwidthGBs == def.NPU.DRAMBandwidthBs/1e9 {
		n.NPUBandwidthGBs = 0
	}
	if n.LinkGBs == def.Comm.LinkBandwidthBs/1e9 {
		n.LinkGBs = 0
	}
	if n.StagingGBs == def.Comm.StagingBandwidthBs/1e9 {
		n.StagingGBs = 0
	}
	if n.MACGranBytes == def.Protection.MACGranBytes {
		n.MACGranBytes = 0
	}
	// ProtectedBytes has no non-zero default, so RegionMB passes through.
	if n == (Overrides{}) {
		return nil
	}
	return &n
}

// apply mutates cfg with the override fields.
func (o *Overrides) apply(cfg *config.Config) {
	if o == nil {
		return
	}
	switch strings.ToLower(strings.TrimSpace(o.MEEMode)) {
	case "sgx":
		cfg.Protection.TensorWiseCPU = false
	case "tensor":
		cfg.Protection.TensorWiseCPU = true
	}
	if o.MetaCacheKB > 0 {
		cfg.CPU.MetaCacheSize = o.MetaCacheKB << 10
	}
	if o.DRAMChannels > 0 {
		cfg.HostDRAM.Channels = o.DRAMChannels
	}
	if o.NPUAESEngines > 0 {
		cfg.NPU.AESEngines = o.NPUAESEngines
	}
	if o.NPUBandwidthGBs > 0 {
		cfg.NPU.DRAMBandwidthBs = o.NPUBandwidthGBs * 1e9
	}
	if o.LinkGBs > 0 {
		cfg.Comm.LinkBandwidthBs = o.LinkGBs * 1e9
	}
	if o.StagingGBs > 0 {
		cfg.Comm.StagingBandwidthBs = o.StagingGBs * 1e9
	}
	if o.MACGranBytes > 0 {
		cfg.Protection.MACGranBytes = o.MACGranBytes
	}
	if o.RegionMB > 0 {
		cfg.CPU.ProtectedBytes = int64(o.RegionMB) << 20
	}
}

// compilePoint resolves one sweep point into a workload model and one
// validated configuration per system.
func compilePoint(norm Spec, kinds []config.SystemKind, value float64) (Point, error) {
	ms := norm.Model
	axisOverride := Overrides{}
	label := ms.Name
	if label == "" {
		label = fmt.Sprintf("custom-%dL-%dh", ms.Layers, ms.Hidden)
	}
	if norm.Sweep != nil {
		axis := norm.Sweep.Axis
		label = fmt.Sprintf("%s=%g", axis, value)
		if set, ok := modelAxes[axis]; ok {
			set(&ms, int(value))
		} else {
			overrideAxes[axis].set(&axisOverride, value)
			if err := axisOverride.check(0); err != nil { // kind-independent range checks
				return Point{}, err
			}
		}
	}

	m, err := buildModel(ms)
	if err != nil {
		return Point{}, err
	}

	p := Point{Label: label, Model: m}
	for i, sys := range norm.Systems {
		cfg := config.Default(kinds[i])
		sys.Overrides.apply(&cfg)
		axisOverride.apply(&cfg)
		if err := cfg.Validate(); err != nil {
			return Point{}, invalid(nil, "system %s at %s: %v", kindLabel(kinds[i]), label, err)
		}
		p.Configs = append(p.Configs, cfg)
	}
	return p, nil
}

// Resource bounds. Scenarios run arbitrary user input through an
// unauthenticated HTTP endpoint, so every dimension that scales the
// simulation's memory or time is capped — generously beyond the Table-2
// zoo (whose largest entries sit around 48 layers / 4096 hidden / 256k
// vocab), but far below anything that could wedge a worker.
const (
	maxSystems     = 16
	maxSweepPoints = 64
	// maxPointSystems caps the sweep-points x systems cross product. Each
	// (point, system) pair with a non-default configuration is a fresh
	// ~1 s calibration, and a scenario fill runs detached and uncancelable
	// once started — without this cap one request could combine both
	// per-axis maxima into 64x16 = 1024 calibrations (~17 min) that
	// monopolize a scenario slot for the duration.
	maxPointSystems = 256
	maxLayers       = 10_000
	maxHidden       = 1 << 18 // 262144
	maxHeads        = 4096
	maxFFN          = 1 << 21
	maxVocab        = 4_000_000
	maxBatch        = 65_536
	maxSeqLen       = 1 << 20

	// Override caps. The integer knobs drive real per-system allocations
	// (the metadata-cache slab scales with meta_cache_kb, the DRAM model
	// allocates per-channel bank state), so unbounded values would let one
	// POST /v1/scenarios allocate arbitrary daemon memory — and
	// meta_cache_kb values near 2^53 would overflow the <<10 shift into a
	// zero or negative cache size. Bandwidths are rates, not allocations,
	// but are capped anyway so scaled configs stay finite.
	maxMetaCacheKB  = 1 << 18 // 256 MB metadata cache, 8192x Table 1
	maxDRAMChannels = 64
	maxAESEngines   = 1024
	maxMACGranBytes = 1 << 20
	maxBandwidthGBs = 1e6 // 1 PB/s
)

// checkDims bounds a fully-resolved model shape. It runs per sweep point,
// so swept dimensions are bounded too.
func checkDims(ms ModelSpec) error {
	for _, d := range []struct {
		name     string
		val, max int
	}{
		{"layers", ms.Layers, maxLayers},
		{"hidden", ms.Hidden, maxHidden},
		{"heads", ms.Heads, maxHeads},
		{"ffn", ms.FFNDim, maxFFN},
		{"vocab", ms.Vocab, maxVocab},
		{"batch", ms.Batch, maxBatch},
		{"seqlen", ms.SeqLen, maxSeqLen},
	} {
		if d.val > d.max {
			return invalid(nil, "model %s %d above the %d simulation bound", d.name, d.val, d.max)
		}
	}
	return nil
}

// buildModel turns a fully-resolved ModelSpec into a workload.Model,
// checking the cross-dimension constraints the GEMM enumeration needs.
func buildModel(ms ModelSpec) (workload.Model, error) {
	if err := checkDims(ms); err != nil {
		return workload.Model{}, err
	}
	if ms.Hidden%ms.Heads != 0 {
		return workload.Model{}, invalid(nil, "hidden %d must be divisible by heads %d", ms.Hidden, ms.Heads)
	}
	name := ms.Name
	if name == "" {
		name = fmt.Sprintf("custom-%dL-%dh", ms.Layers, ms.Hidden)
	}
	m := workload.Model{
		Name:      name,
		ParamsStr: "custom",
		BatchSize: ms.Batch,
		Layers:    ms.Layers,
		Hidden:    ms.Hidden,
		Heads:     ms.Heads,
		FFNDim:    ms.FFNDim,
		Vocab:     ms.Vocab,
		SeqLen:    ms.SeqLen,
	}
	if ms.Name != "" {
		if zoo, err := workload.ModelByName(ms.Name); err == nil {
			m.ParamsStr = zoo.ParamsStr
		}
	}
	return m, nil
}

// systemLabel renders one system column label: the kind plus any
// overridden fields, so two entries of the same kind stay tellable apart.
func systemLabel(sys SystemSpec, kind config.SystemKind) string {
	if sys.Overrides == nil {
		return kindLabel(kind)
	}
	var parts []string
	o := sys.Overrides
	add := func(f string, v any, set bool) {
		if set {
			parts = append(parts, fmt.Sprintf("%s=%v", f, v))
		}
	}
	add("mee_mode", o.MEEMode, o.MEEMode != "")
	add("meta_cache_kb", o.MetaCacheKB, o.MetaCacheKB > 0)
	add("dram_channels", o.DRAMChannels, o.DRAMChannels > 0)
	add("npu_aes_engines", o.NPUAESEngines, o.NPUAESEngines > 0)
	add("npu_bandwidth_gbs", o.NPUBandwidthGBs, o.NPUBandwidthGBs > 0)
	add("link_gbs", o.LinkGBs, o.LinkGBs > 0)
	add("staging_gbs", o.StagingGBs, o.StagingGBs > 0)
	add("mac_gran_bytes", o.MACGranBytes, o.MACGranBytes > 0)
	add("region_mb", o.RegionMB, o.RegionMB > 0)
	if len(parts) == 0 {
		return kindLabel(kind)
	}
	return kindLabel(kind) + "[" + strings.Join(parts, ",") + "]"
}
