package scenario

import (
	"math"
	"sort"
	"strconv"
	"strings"

	"tensortee/internal/config"
)

// This file declares the sweep-axis vocabulary once: dims for the model
// dimensions and knobs for the numeric override fields. Validation,
// normalization, the config mapping, system labels, sweep axes and the
// campaign tier's cost weights all derive from these two tables, so
// adding, capping or deleting an axis is a one-entry edit. Spec-level
// sweeps and campaign points both apply their values with ApplyAxis.

// dim is one ModelSpec dimension and sweep axis.
type dim struct {
	name  string
	field func(*ModelSpec) *int
	max   int // simulation bound
}

// dims lists the model dimensions in ModelSpec field order. The bounds sit
// generously beyond the Table-2 zoo (whose largest entries are around 48
// layers / 4096 hidden / 256k vocab), but far below anything that could
// wedge a worker.
var dims = [...]dim{
	{"layers", func(m *ModelSpec) *int { return &m.Layers }, 10_000},
	{"hidden", func(m *ModelSpec) *int { return &m.Hidden }, 1 << 18},
	{"heads", func(m *ModelSpec) *int { return &m.Heads }, 4096},
	{"ffn", func(m *ModelSpec) *int { return &m.FFNDim }, 1 << 21},
	{"vocab", func(m *ModelSpec) *int { return &m.Vocab }, 4_000_000},
	{"batch", func(m *ModelSpec) *int { return &m.Batch }, 65_536},
	{"seqlen", func(m *ModelSpec) *int { return &m.SeqLen }, 1 << 20},
}

// knob is one numeric Overrides field and sweep axis. A zero setting keeps
// the kind's Table-1 default.
type knob struct {
	name string
	// Exactly one of intField and gbsField addresses the field in an
	// Overrides: integral knobs take integers, the others are bandwidths
	// in GB/s.
	intField func(*Overrides) *int
	gbsField func(*Overrides) *float64
	max      float64                       // simulation bound, in override units
	def      float64                       // Table-1 default, in override units
	write    func(*config.Config, float64) // stores a setting into a config
	cost     float64                       // area-proxy weight per unit (campaign.DefaultCostWeight)
}

// knobs lists the override knobs in Overrides field order, the order
// check reports errors and systemLabel prints settings in. The protected
// region's default, 0, sizes the span to the calibration workload.
//
// Bounds: the integral knobs drive per-system allocations (the metadata
// cache slab, per-channel DRAM bank state), so unbounded values would let
// one POST /v1/scenarios allocate arbitrary daemon memory, and metadata
// cache sizes near 2^53 KB would overflow the <<10 shift. Bandwidths are
// capped at 1 PB/s so scaled configs stay finite. check bounds the
// protected region in MB.
//
// Cost weights are in KB of on-die SRAM equivalents: the metadata cache is
// SRAM (1 per KB), an AES engine a fixed pipeline (Section 3.3 sizes one
// at ~8 GB/s; 16), a DRAM channel a PHY plus controller (64); bandwidth
// and granularity get small nominal weights so that, absent explicit
// weights, cheaper always means "less hardware".
var knobs = [...]knob{
	{name: "meta_cache_kb", max: 1 << 18, def: 32, cost: 1, // 256 MB, 8192x Table 1
		intField: func(o *Overrides) *int { return &o.MetaCacheKB },
		write:    func(c *config.Config, v float64) { c.CPU.MetaCacheSize = int(v) << 10 }},
	{name: "dram_channels", max: 64, def: 2, cost: 64,
		intField: func(o *Overrides) *int { return &o.DRAMChannels },
		write:    func(c *config.Config, v float64) { c.HostDRAM.Channels = int(v) }},
	{name: "npu_aes_engines", max: 1024, def: 1, cost: 16,
		intField: func(o *Overrides) *int { return &o.NPUAESEngines },
		write:    func(c *config.Config, v float64) { c.NPU.AESEngines = int(v) }},
	{name: "npu_bandwidth_gbs", max: 1e6, def: 128, cost: 0.5,
		gbsField: func(o *Overrides) *float64 { return &o.NPUBandwidthGBs },
		write:    func(c *config.Config, v float64) { c.NPU.DRAMBandwidthBs = v * 1e9 }},
	{name: "link_gbs", max: 1e6, def: 26, cost: 0.5,
		gbsField: func(o *Overrides) *float64 { return &o.LinkGBs },
		write:    func(c *config.Config, v float64) { c.Comm.LinkBandwidthBs = v * 1e9 }},
	{name: "staging_gbs", max: 1e6, def: 12, cost: 0.5,
		gbsField: func(o *Overrides) *float64 { return &o.StagingGBs },
		write:    func(c *config.Config, v float64) { c.Comm.StagingBandwidthBs = v * 1e9 }},
	{name: "mac_gran_bytes", max: 1 << 20, def: 64, cost: 0.05,
		intField: func(o *Overrides) *int { return &o.MACGranBytes },
		write:    func(c *config.Config, v float64) { c.Protection.MACGranBytes = int(v) }},
	{name: "region_mb", max: math.Inf(1), def: 0, cost: 0.01,
		intField: func(o *Overrides) *int { return &o.RegionMB },
		write:    func(c *config.Config, v float64) { c.CPU.ProtectedBytes = int64(v) << 20 }},
}

func (k *knob) integral() bool { return k.intField != nil }

func (k *knob) get(o *Overrides) float64 {
	if k.integral() {
		return float64(*k.intField(o))
	}
	return *k.gbsField(o)
}

// set stores v into o, truncating on integral knobs.
func (k *knob) set(o *Overrides, v float64) {
	if k.integral() {
		*k.intField(o) = int(v)
	} else {
		*k.gbsField(o) = v
	}
}

// format renders a setting: integers in full, bandwidths as %v does.
func (k *knob) format(v float64) string {
	if k.integral() {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// lookupAxis resolves a canonical axis name to its dims or knobs entry;
// both are nil for an unknown name.
func lookupAxis(axis string) (*dim, *knob) {
	for i := range dims {
		if dims[i].name == axis {
			return &dims[i], nil
		}
	}
	for i := range knobs {
		if knobs[i].name == axis {
			return nil, &knobs[i]
		}
	}
	return nil, nil
}

// SweepAxes lists the valid sweep axis names in alphabetical order.
func SweepAxes() []string {
	axes := make([]string, 0, len(dims)+len(knobs))
	for _, d := range dims {
		axes = append(axes, d.name)
	}
	for _, k := range knobs {
		axes = append(axes, k.name)
	}
	sort.Strings(axes)
	return axes
}

// CostWeight returns the built-in area-proxy weight of a sweep axis per
// unit of its value: 0 for model axes, which shape the workload rather
// than the hardware, and for unknown names.
func CostWeight(axis string) float64 {
	if _, k := lookupAxis(axis); k != nil {
		return k.cost
	}
	return 0
}

// NormalizeAxis validates one sweep axis name and its value list — the
// same checks a Spec-level Sweep gets (known axis, 1..64 positive finite
// values, integral and within the axis bound on integer axes) — and
// returns the canonical axis spelling with the validated values. Every
// error matches ErrInvalidSpec; all but the bound errors, which read as
// the per-point checks do, also match ErrBadSweep.
func NormalizeAxis(axis string, values []float64) (string, []float64, error) {
	sw, err := resolveSweep(&Sweep{Axis: axis, Values: values})
	if err != nil {
		return "", nil, err
	}
	return sw.Axis, sw.Values, nil
}

// ApplyAxis returns a copy of s with one axis value applied: model axes
// reshape the workload, override axes set the field on every listed
// system (on top of — and overriding — that system's own override). The
// input spec is not mutated; systems and their override sets are
// deep-copied. The value is not range-checked here — compile the
// resulting spec to validate it.
func ApplyAxis(s Spec, axis string, value float64) (Spec, error) {
	axis = strings.ToLower(strings.TrimSpace(axis))
	out := s
	d, k := lookupAxis(axis)
	if d != nil {
		*d.field(&out.Model) = int(value)
		return out, nil
	}
	if k == nil {
		return Spec{}, invalid(ErrBadSweep, "unknown axis %q (want one of %s)", axis, strings.Join(SweepAxes(), ", "))
	}
	out.Systems = make([]SystemSpec, len(s.Systems))
	copy(out.Systems, s.Systems)
	for i := range out.Systems {
		var o Overrides
		if out.Systems[i].Overrides != nil {
			o = *out.Systems[i].Overrides
		}
		k.set(&o, value)
		out.Systems[i].Overrides = &o
	}
	return out, nil
}
