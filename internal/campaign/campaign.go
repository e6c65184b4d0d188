// Package campaign is the asynchronous job tier above the scenario
// engine: a campaign is a cross product of sweep axes (model dims ×
// Table-1 override knobs) over a single-point base scenario, executed
// point by point on a bounded worker pool. Where a scenario runs
// synchronously under a small point cap, a campaign accepts thousands of
// points, returns a job id immediately, and is crash-safe: every
// completed point is checkpointed through the store's campaign/
// namespace (same checksummed envelope, atomic temp+rename), so a
// SIGKILL'd daemon resumes on restart computing only the remaining
// points. Faults are isolated per point — a panicking or persistently
// failing point fails that point, never the campaign.
package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"

	"tensortee/internal/scenario"
)

// Sentinel errors; API layers map these onto status codes.
var (
	// ErrInvalidSpec marks any submit-time validation failure.
	ErrInvalidSpec = errors.New("campaign: invalid spec")
	// ErrUnknown marks a campaign id the manager has no record of.
	ErrUnknown = errors.New("campaign: unknown campaign")
	// ErrBusy marks a manager at its concurrent-campaign capacity.
	ErrBusy = errors.New("campaign: too many active campaigns")
	// ErrClosed marks a manager that has been shut down.
	ErrClosed = errors.New("campaign: manager shut down")
)

// Resource caps. Validation is the DoS guard: campaigns are accepted
// from the network before any compute happens.
const (
	// maxAxes bounds the cross-product rank.
	maxAxes = 4
	// MaxPoints bounds the total cross-product size. Far above the
	// scenario engine's synchronous cap (campaigns are the tier built for
	// "thousands of points") but still finite: checkpoint keys, status
	// accounting and the dispatch queue are all O(points).
	MaxPoints = 16384
)

// Axis is one dimension of the cross product: a sweep axis name (model
// dim or override knob — the same vocabulary as scenario sweeps) and the
// values it takes.
type Axis struct {
	// Axis names the swept dimension (e.g. "layers", "meta_cache_kb").
	Axis string `json:"axis"`
	// Values are the settings the axis takes, in submitted order for grid
	// campaigns; search campaigns sort and deduplicate them at compile.
	Values []float64 `json:"values"`
}

// Spec is a campaign submission: a base single-point scenario plus the
// axes to cross. Each point of the campaign is the base spec with one
// value per axis applied (axis values override the base's own overrides,
// matching scenario sweep precedence).
type Spec struct {
	// Name is a human-readable label; it does not contribute to campaign
	// identity.
	Name string `json:"name,omitempty"`
	// Base is the single-point scenario every grid point starts from.
	Base scenario.Spec `json:"base"`
	// Axes are the dimensions to cross (at most maxAxes).
	Axes []Axis `json:"axes"`
	// Search, when present, turns the campaign from grid enumeration into
	// guided search: the axes become a domain and the selected policy
	// (target / pareto / budget) decides which points actually run.
	Search *SearchSpec `json:"search,omitempty"`
}

// Plan is a compiled campaign: the normalized spec, its identity, and
// the point decomposition. Points are materialized lazily — a plan for
// 16k points holds axes and strides, not 16k specs.
type Plan struct {
	// Spec is the normalized spec (trimmed name, canonical base via
	// scenario.Compile, canonical axis spellings and validated values).
	Spec Spec
	// ID is the campaign's content identity: a hex fingerprint of the
	// normalized spec. Identical submissions collapse onto one job.
	ID string
	// Total is the cross-product size.
	Total int

	// strides[a] is the index stride of axis a (row-major: the last axis
	// varies fastest).
	strides []int
}

// Compile validates and normalizes a campaign spec. Every error matches
// ErrInvalidSpec.
func Compile(s Spec) (*Plan, error) {
	norm := Spec{Name: strings.TrimSpace(s.Name)}
	if norm.Name == "" {
		norm.Name = "campaign"
	}
	if len(norm.Name) > 100 {
		return nil, fmt.Errorf("%w: name longer than 100 bytes", ErrInvalidSpec)
	}
	if s.Base.Sweep != nil {
		return nil, fmt.Errorf("%w: base spec carries its own sweep; express it as a campaign axis", ErrInvalidSpec)
	}
	basePlan, err := scenario.Compile(s.Base)
	if err != nil {
		return nil, fmt.Errorf("%w: base spec: %w", ErrInvalidSpec, err)
	}
	norm.Base = basePlan.Spec

	if len(s.Axes) == 0 {
		return nil, fmt.Errorf("%w: no axes (a campaign sweeps at least one)", ErrInvalidSpec)
	}
	if len(s.Axes) > maxAxes {
		return nil, fmt.Errorf("%w: %d axes exceeds the %d-axis cap", ErrInvalidSpec, len(s.Axes), maxAxes)
	}
	seen := make(map[string]bool, len(s.Axes))
	total := 1
	norm.Axes = make([]Axis, len(s.Axes))
	for i, ax := range s.Axes {
		name, vals, err := scenario.NormalizeAxis(ax.Axis, ax.Values)
		if err != nil {
			return nil, fmt.Errorf("%w: axis %d: %w", ErrInvalidSpec, i, err)
		}
		if seen[name] {
			return nil, fmt.Errorf("%w: duplicate axis %q", ErrInvalidSpec, name)
		}
		seen[name] = true
		if s.Search != nil {
			// Search policies assume ordered axes (bisection walks them, cost
			// grows along them): sort ascending and drop duplicates. Grid
			// campaigns keep the submitted order — it is part of the identity.
			vals = sortedUniqueValues(vals)
		}
		norm.Axes[i] = Axis{Axis: name, Values: vals}
		total *= len(vals)
		if total > MaxPoints {
			return nil, fmt.Errorf("%w: cross product exceeds the %d-point cap", ErrInvalidSpec, MaxPoints)
		}
	}

	if s.Search != nil {
		search, err := normalizeSearch(s.Search, norm.Axes, len(norm.Base.Systems), total)
		if err != nil {
			return nil, err
		}
		norm.Search = search
	}

	p := &Plan{Spec: norm, Total: total, strides: make([]int, len(norm.Axes))}
	stride := 1
	for a := len(norm.Axes) - 1; a >= 0; a-- {
		p.strides[a] = stride
		stride *= len(norm.Axes[a].Values)
	}
	p.ID = fingerprint(norm)

	// Every point must itself be a valid single-point scenario: an axis
	// value that pushes a knob out of bounds (or a model dim over the
	// resource caps) is rejected at submit time, not discovered as a
	// failed point hours into the job.
	for i := 0; i < total; i++ {
		spec, label, err := p.Point(i)
		if err != nil {
			return nil, err
		}
		if _, err := scenario.Compile(spec); err != nil {
			return nil, fmt.Errorf("%w: point %d (%s): %w", ErrInvalidSpec, i, label, err)
		}
	}
	return p, nil
}

// fingerprint derives the campaign id from the normalized spec's
// canonical JSON. 32 hex chars — collision-safe for any realistic
// campaign count, short enough for URLs and store keys.
func fingerprint(norm Spec) string {
	blob, err := json.Marshal(norm)
	if err != nil {
		// A Spec is plain data; Marshal cannot fail on one.
		panic(fmt.Sprintf("campaign: fingerprint marshal: %v", err))
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])[:32]
}

// Point materializes point i of the cross product: the base spec with
// each axis's value applied, plus a human-readable label like
// "layers=12,meta_cache_kb=64".
func (p *Plan) Point(i int) (scenario.Spec, string, error) {
	if i < 0 || i >= p.Total {
		return scenario.Spec{}, "", fmt.Errorf("campaign: point %d out of range [0,%d)", i, p.Total)
	}
	spec := p.Spec.Base
	for a, ax := range p.Spec.Axes {
		var err error
		spec, err = scenario.ApplyAxis(spec, ax.Axis, ax.Values[(i/p.strides[a])%len(ax.Values)])
		if err != nil {
			return scenario.Spec{}, "", fmt.Errorf("%w: axis %q: %w", ErrInvalidSpec, ax.Axis, err)
		}
	}
	label := p.PointLabel(i)
	spec.Name = fmt.Sprintf("%s[%s]", p.Spec.Name, label)
	return spec, label, nil
}

// PointLabel renders point i's axis assignment ("layers=12,meta_cache_kb=64")
// without materializing the spec. Out-of-range indices render as "?".
func (p *Plan) PointLabel(i int) string {
	if i < 0 || i >= p.Total {
		return "?"
	}
	parts := make([]string, len(p.Spec.Axes))
	for a, ax := range p.Spec.Axes {
		parts[a] = fmt.Sprintf("%s=%g", ax.Axis, ax.Values[(i/p.strides[a])%len(ax.Values)])
	}
	return strings.Join(parts, ",")
}

// Cost is the area-proxy cost of point i: the weighted sum of its axis
// values, with weights from the search block's cost spec falling back to
// the built-in defaults (see DefaultCostWeight).
func (p *Plan) Cost(i int) float64 {
	var total float64
	for a, ax := range p.Spec.Axes {
		v := ax.Values[(i/p.strides[a])%len(ax.Values)]
		w, ok := 0.0, false
		if p.Spec.Search != nil && p.Spec.Search.Cost != nil {
			w, ok = p.Spec.Search.Cost.Weights[ax.Axis]
		}
		if !ok {
			w = DefaultCostWeight(ax.Axis)
		}
		total += w * v
	}
	return total
}

// coords decomposes a point index into per-axis value indices.
func (p *Plan) coords(i int) []int {
	c := make([]int, len(p.Spec.Axes))
	for a := range p.Spec.Axes {
		c[a] = (i / p.strides[a]) % len(p.Spec.Axes[a].Values)
	}
	return c
}

// index recomposes per-axis value indices into a point index.
func (p *Plan) index(coords []int) int {
	i := 0
	for a, c := range coords {
		i += c * p.strides[a]
	}
	return i
}

// sortedUniqueValues returns the values sorted ascending with exact
// duplicates removed.
func sortedUniqueValues(vals []float64) []float64 {
	out := append([]float64(nil), vals...)
	sort.Float64s(out)
	n := 0
	for _, v := range out {
		if n == 0 || out[n-1] != v {
			out[n] = v
			n++
		}
	}
	return out[:n]
}

// Store keys. A campaign owns a flat key family in the campaign/
// namespace: one manifest and one checkpoint per completed point.

// manifestKey is the durable record that a campaign exists (its
// normalized spec and lifecycle bits); its presence is what makes a
// half-finished campaign resumable after a crash.
func manifestKey(id string) string { return id + ".m" }

// pointKey addresses point i's checkpoint (the encoded scenario result).
func pointKey(id string, i int) string { return fmt.Sprintf("%s.p%05d", id, i) }

// manifest is the persisted campaign record. A manifest with neither
// Cancelled nor Final set is an unfinished campaign — the resumable
// case; Final records the settled status of a finished one so status
// queries survive restarts.
type manifest struct {
	Spec      Spec   `json:"spec"`
	Created   string `json:"created,omitempty"` // RFC3339; informational
	Cancelled bool   `json:"cancelled,omitempty"`
	// Durability mirrors Final.Durability at top level so operators (and
	// the chaos CI job) can read checkpoint health without digging into
	// the full final status.
	Durability string  `json:"durability,omitempty"`
	Final      *Status `json:"final,omitempty"`
}
