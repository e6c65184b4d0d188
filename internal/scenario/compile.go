package scenario

import (
	"fmt"
	"math"
	"strconv"
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

	if norm.Sweep, err = resolveSweep(s.Sweep); err != nil {
		return nil, err
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
	for _, d := range dims {
		if v := *d.field(&m); v < 0 {
			return ModelSpec{}, invalid(nil, "model %s must be positive, got %d", d.name, v)
		}
	}
	base := ModelSpec{FFNDim: 4 * m.Hidden, Vocab: 50257, Batch: 1, SeqLen: 1024} // custom-model defaults
	if m.Name != "" {
		zoo, err := workload.ModelByName(m.Name)
		if err != nil {
			return ModelSpec{}, invalid(ErrUnknownModel, "%q (see tensorteesim -models)", m.Name)
		}
		base = ModelSpec{
			Name: zoo.Name, Layers: zoo.Layers, Hidden: zoo.Hidden, Heads: zoo.Heads,
			FFNDim: zoo.FFNDim, Vocab: zoo.Vocab, Batch: zoo.BatchSize, SeqLen: zoo.SeqLen,
		}
	} else if m.Layers == 0 || m.Hidden == 0 || m.Heads == 0 {
		return ModelSpec{}, invalid(nil, "custom model needs layers, hidden and heads (got %d/%d/%d)", m.Layers, m.Hidden, m.Heads)
	}
	// Non-zero dimensions of m override the base.
	for _, d := range dims {
		if v := *d.field(&m); v != 0 {
			*d.field(&base) = v
		}
	}
	return base, nil
}

// resolveSweep validates the sweep shape (axis and value bounds) and
// returns it with the canonical axis spelling; the per-point semantic
// checks happen at compilePoint.
func resolveSweep(sw *Sweep) (*Sweep, error) {
	if sw == nil {
		return nil, nil
	}
	axis := strings.ToLower(strings.TrimSpace(sw.Axis))
	d, k := lookupAxis(axis)
	if d == nil && k == nil {
		return nil, invalid(ErrBadSweep, "unknown axis %q (want one of %s)", sw.Axis, strings.Join(SweepAxes(), ", "))
	}
	if len(sw.Values) == 0 {
		return nil, invalid(ErrBadSweep, "axis %q has no values", axis)
	}
	if len(sw.Values) > maxSweepPoints {
		return nil, invalid(ErrBadSweep, "axis %q has %d values, max %d", axis, len(sw.Values), maxSweepPoints)
	}
	integral := d != nil || k.integral()
	out := make([]float64, len(sw.Values))
	for i, v := range sw.Values {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, invalid(ErrBadSweep, "axis %q value %v must be a positive finite number", axis, v)
		}
		if integral && v != math.Trunc(v) {
			return nil, invalid(ErrBadSweep, "axis %q takes integers, got %v", axis, v)
		}
		if integral {
			if err := checkSweepBound(d, k, v); err != nil {
				return nil, err
			}
		}
		out[i] = v
	}
	return &Sweep{Axis: axis, Values: out}, nil
}

// checkSweepBound range-checks an integral sweep value against its axis
// bound while it is still a float64: a value beyond the int range would
// wrap in ApplyAxis's int conversion, and the per-point checks would then
// name a number the user never sent. The wording is those checks'.
func checkSweepBound(d *dim, k *knob, v float64) error {
	sent := strconv.FormatFloat(v, 'f', -1, 64)
	switch {
	case d != nil:
		if v > float64(d.max) {
			return invalid(nil, "model %s %s above the %d simulation bound", d.name, sent, d.max)
		}
	case k.name == "region_mb": // bounded in MB by check, not by its knob
		if v > float64(config.MaxProtectedBytes>>20) {
			return invalid(nil, "region_mb %s above the %d MB simulation bound", sent, config.MaxProtectedBytes>>20)
		}
	case v > k.max:
		return invalid(nil, "override %s %s above the %d simulation bound", k.name, sent, int(k.max))
	}
	return nil
}

// check validates override field ranges against the base kind. Range
// errors that would silently invalidate the calibration sample map to
// ErrUnsafeOverride; the rest are plain ErrInvalidSpec. Knobs are checked
// in field-declaration order, so a spec with several bad fields always
// gets the same error.
func (o *Overrides) check(kind config.SystemKind) error {
	for i := range knobs {
		k := &knobs[i]
		if k.integral() {
			v := *k.intField(o)
			if v < 0 {
				return invalid(nil, "override %s must be positive, got %d", k.name, v)
			}
			if float64(v) > k.max {
				return invalid(nil, "override %s %d above the %d simulation bound", k.name, v, int(k.max))
			}
			continue
		}
		v := *k.gbsField(o)
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return invalid(nil, "override %s must be a positive finite number, got %v", k.name, v)
		}
		if v > k.max {
			return invalid(nil, "override %s %g above the %g GB/s simulation bound", k.name, v, k.max)
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
// defaults: knobs that restate the default are zeroed (so a spec spelling
// out a default fingerprints — and labels — the same as one omitting it),
// and an override set with nothing left collapses to nil. The returned
// value is a copy; the input is not mutated.
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
	for i := range knobs {
		if k := &knobs[i]; k.get(&n) == k.def {
			k.set(&n, 0)
		}
	}
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
	for i := range knobs {
		if v := knobs[i].get(o); v > 0 {
			knobs[i].write(cfg, v)
		}
	}
}

// compilePoint resolves one sweep point into a workload model and one
// validated configuration per system. A swept value is applied with
// ApplyAxis, as a campaign applies its point values, and a swept override
// is range-checked like the system's own.
func compilePoint(norm Spec, kinds []config.SystemKind, value float64) (Point, error) {
	spec, label := norm, ""
	if norm.Sweep != nil {
		label = fmt.Sprintf("%s=%g", norm.Sweep.Axis, value)
		var err error
		if spec, err = ApplyAxis(norm, norm.Sweep.Axis, value); err != nil {
			return Point{}, err
		}
		for i, sys := range spec.Systems {
			if sys.Overrides == nil {
				continue
			}
			if err := sys.Overrides.check(kinds[i]); err != nil {
				return Point{}, err
			}
		}
	}

	m, err := buildModel(spec.Model)
	if err != nil {
		return Point{}, err
	}
	if label == "" {
		label = m.Name
	}

	p := Point{Label: label, Model: m, Configs: make([]config.Config, len(spec.Systems))}
	for i, sys := range spec.Systems {
		cfg := &p.Configs[i]
		*cfg = config.Default(kinds[i])
		sys.Overrides.apply(cfg)
		if err := cfg.Validate(); err != nil {
			return Point{}, invalid(nil, "system %s at %s: %v", kindLabel(kinds[i]), label, err)
		}
	}
	return p, nil
}

// Resource bounds. Scenarios run arbitrary user input through an
// unauthenticated HTTP endpoint, so every dimension that scales the
// simulation's memory or time is capped: these here, and each model
// dimension and override knob at its dims or knobs entry.
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
)

// checkDims bounds a fully-resolved model shape. It runs per sweep point,
// so swept dimensions are bounded too.
func checkDims(ms ModelSpec) error {
	for _, d := range dims {
		switch v := *d.field(&ms); {
		case v < 1:
			return invalid(nil, "model %s must be positive, got %d", d.name, v)
		case v > d.max:
			return invalid(nil, "model %s %d above the %d simulation bound", d.name, v, d.max)
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
	o := sys.Overrides
	if o == nil {
		return kindLabel(kind)
	}
	var parts []string
	if o.MEEMode != "" {
		parts = append(parts, "mee_mode="+o.MEEMode)
	}
	for i := range knobs {
		if v := knobs[i].get(o); v > 0 {
			parts = append(parts, knobs[i].name+"="+knobs[i].format(v))
		}
	}
	if len(parts) == 0 {
		return kindLabel(kind)
	}
	return kindLabel(kind) + "[" + strings.Join(parts, ",") + "]"
}
