package campaign

// Search mode. A campaign carrying a "search" block does not enumerate
// its cross product: a Searcher policy proposes points one batch at a
// time, observes each evaluated point's objective (speedup or step
// time) and area-proxy cost, and decides what to try next — coordinate
// descent with per-axis bisection for the cheapest config meeting a
// target, lattice expansion around the non-dominated set for a Pareto
// frontier, or a space-filling scan plus hill climb under a fixed
// evaluation budget.
//
// Every policy is written in replay style: Next() re-derives the whole
// proposal sequence from the observations recorded so far, so the
// sequence is a pure function of the (normalized) spec and the simulated
// objective. That is what makes search campaigns resume exactly like
// grid campaigns — after a crash, the replay proposes the same points in
// the same order, and each proposal whose checkpoint survives is fed
// back from disk instead of recomputed.

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"tensortee/internal/scenario"
)

// Search modes for SearchSpec.Mode.
const (
	// SearchTarget finds the cheapest configuration meeting a target
	// objective by coordinate descent with per-axis bisection.
	SearchTarget = "target"
	// SearchPareto traces the non-dominated cost-vs-objective frontier by
	// evaluating the domain corners and refining around the frontier.
	SearchPareto = "pareto"
	// SearchBudget finds the best configuration inside a fixed number of
	// evaluations: a space-filling scan followed by a hill climb.
	SearchBudget = "budget"
)

// Objectives for SearchSpec.Objective.
const (
	// ObjectiveSpeedup maximizes the speedup of the last listed system
	// over the first (the scenario engine's avg_speedup scalar). Needs at
	// least two systems in the base spec.
	ObjectiveSpeedup = "speedup"
	// ObjectiveTotal minimizes the last listed system's training-step
	// time in seconds (the scenario engine's total_s scalar).
	ObjectiveTotal = "total"
)

// SearchSpec is the optional "search" block of a campaign Spec. When
// present, the campaign's axes become a search domain instead of a grid
// to enumerate: axis values are sorted ascending and deduplicated (the
// policies assume the objective improves and the cost grows with the
// value), and the selected policy decides which points actually run.
type SearchSpec struct {
	// Mode selects the policy: "target", "pareto" or "budget".
	Mode string `json:"mode"`
	// Objective is what the search optimizes: "speedup" (default;
	// maximize) or "total" (minimize). See the Objective* constants.
	Objective string `json:"objective,omitempty"`
	// Target is the objective threshold for target mode: the search finds
	// the cheapest configuration with speedup >= Target (or total <=
	// Target). Required in target mode, rejected elsewhere.
	Target float64 `json:"target,omitempty"`
	// Budget caps evaluated points. Required (positive) in budget mode;
	// optional in target mode (0 = until convergence, which is bounded by
	// 1 + sum of per-axis bisection depths anyway); defaulted to
	// min(total, 128) in pareto mode.
	Budget int `json:"budget,omitempty"`
	// Cost configures the area-proxy cost function; nil uses the built-in
	// per-axis weights (see DefaultCostWeight).
	Cost *CostSpec `json:"cost,omitempty"`
}

// CostSpec configures the area-proxy cost function. The cost of a point
// is the weighted sum of its axis values; weights for axes not listed
// here fall back to DefaultCostWeight.
type CostSpec struct {
	// Weights maps an axis name (one of the campaign's axes) to its cost
	// per unit of axis value.
	Weights map[string]float64 `json:"weights,omitempty"`
}

// DefaultCostWeight returns the built-in area-proxy weight for an axis,
// in KB of on-die SRAM equivalents per axis unit, from the scenario
// engine's knob table (0 for model axes, which shape the workload rather
// than the hardware).
func DefaultCostWeight(axis string) float64 {
	return scenario.CostWeight(axis)
}

// Measurement is what one evaluated point reports back to the search:
// the scenario engine's headline scalars, decoded from the point's
// checkpointed payload by the Config.Measure hook.
type Measurement struct {
	// Speedup is the last listed system's speedup over the first (the
	// avg_speedup scalar); 0 when the base spec has a single system.
	Speedup float64 `json:"speedup"`
	// TotalSeconds is the last listed system's training-step time (the
	// total_s scalar).
	TotalSeconds float64 `json:"total_s"`
}

// MeasureFunc decodes a checkpointed point payload into its Measurement.
// The campaign package stays decoupled from the result codec: the caller
// (tensorteed, tensorteesim) supplies the decoder.
type MeasureFunc func(payload []byte) (Measurement, error)

// Proposal is one step of a search: a batch of point indices to
// evaluate (independent, so they may run concurrently), or termination
// with a human-readable reason.
type Proposal struct {
	// Indices are the proposed cross-product point indices, deduplicated,
	// none previously observed.
	Indices []int
	// Done reports termination; Indices is empty when set.
	Done bool
	// Reason says why the search terminated (only when Done).
	Reason string
}

// Observation feeds one evaluated point back into a Searcher.
type Observation struct {
	// Index is the cross-product point index.
	Index int
	// Objective is the measured objective value (raw: speedup, or total
	// seconds). Only meaningful when OK.
	Objective float64
	// Cost is the point's area-proxy cost.
	Cost float64
	// OK reports whether the point produced a usable measurement; failed
	// points observe OK=false and are treated as infeasible.
	OK bool
}

// Searcher is the policy behind a campaign: it proposes the points the
// executor runs, batch by batch. A grid campaign's enumerate policy
// proposes the whole domain at once; a search policy proposes points one
// batch at a time from what it has observed. Implementations must be
// deterministic — the proposal sequence must be a pure function of the
// compiled spec and the observations fed back — because resume replays
// the sequence against checkpointed results. Searchers are not safe for
// concurrent use; the executor serializes Next/Observe.
type Searcher interface {
	// Next proposes the next batch of points, or terminates the search.
	// On a search campaign the executor observes every proposed point
	// before calling Next again.
	Next() Proposal
	// Observe records one evaluated point. Observing the same index twice
	// is a no-op.
	Observe(Observation)
	// Snapshot reports the search's current standing: evaluated count,
	// best point so far, and (for pareto) the frontier.
	Snapshot() SearchStatus
}

// SearchPoint is one evaluated point in a search report: its index and
// label plus the two coordinates the search optimizes over.
type SearchPoint struct {
	// Index is the cross-product point index.
	Index int `json:"index"`
	// Point is the human-readable axis label ("meta_cache_kb=64,...").
	Point string `json:"point"`
	// Cost is the area-proxy cost.
	Cost float64 `json:"cost"`
	// Objective is the measured objective value.
	Objective float64 `json:"objective"`
}

// SearchStatus reports a search campaign's standing; it rides inside
// Status and the final manifest.
type SearchStatus struct {
	// Mode is the policy ("target", "pareto" or "budget").
	Mode string `json:"mode"`
	// Objective is the optimized metric ("speedup" or "total").
	Objective string `json:"objective"`
	// Target is the target-mode threshold (0 elsewhere).
	Target float64 `json:"target,omitempty"`
	// Budget is the evaluation cap (0 = unbounded).
	Budget int `json:"budget,omitempty"`
	// Evaluated counts unique points observed so far (computed, restored
	// from checkpoints, and failed).
	Evaluated int `json:"evaluated"`
	// Best is the current winner: the cheapest feasible point (target
	// mode) or the best-objective point (pareto/budget). Nil until
	// something has been evaluated.
	Best *SearchPoint `json:"best,omitempty"`
	// Frontier is the non-dominated cost/objective set (pareto mode
	// only), sorted by ascending cost.
	Frontier []SearchPoint `json:"frontier,omitempty"`
	// Terminated says why the search stopped ("" while it is running;
	// "cancelled" when the campaign was cancelled mid-search).
	Terminated string `json:"terminated,omitempty"`
}

// normalizeSearch validates a search block against the campaign's axes
// and base spec, returning the normalized copy (defaults applied).
// total is the deduplicated cross-product size.
func normalizeSearch(s *SearchSpec, axes []Axis, baseSystems, total int) (*SearchSpec, error) {
	n := *s
	n.Mode = strings.ToLower(strings.TrimSpace(n.Mode))
	switch n.Mode {
	case SearchTarget, SearchPareto, SearchBudget:
	default:
		return nil, fmt.Errorf("%w: unknown search mode %q (want %s, %s or %s)",
			ErrInvalidSpec, s.Mode, SearchTarget, SearchPareto, SearchBudget)
	}
	n.Objective = strings.ToLower(strings.TrimSpace(n.Objective))
	switch n.Objective {
	case "":
		n.Objective = ObjectiveSpeedup
	case ObjectiveSpeedup, ObjectiveTotal:
	default:
		return nil, fmt.Errorf("%w: unknown search objective %q (want %s or %s)",
			ErrInvalidSpec, s.Objective, ObjectiveSpeedup, ObjectiveTotal)
	}
	if n.Objective == ObjectiveSpeedup && baseSystems < 2 {
		return nil, fmt.Errorf("%w: the %q objective needs at least two systems in the base spec (the first is the speedup baseline)",
			ErrInvalidSpec, ObjectiveSpeedup)
	}
	if n.Mode == SearchTarget {
		if n.Target <= 0 || math.IsNaN(n.Target) || math.IsInf(n.Target, 0) {
			return nil, fmt.Errorf("%w: target mode needs a positive finite target, got %v", ErrInvalidSpec, n.Target)
		}
	} else if n.Target != 0 {
		return nil, fmt.Errorf("%w: target %v is only meaningful in target mode", ErrInvalidSpec, n.Target)
	}
	if n.Budget < 0 || n.Budget > MaxPoints {
		return nil, fmt.Errorf("%w: budget %d outside [0, %d]", ErrInvalidSpec, n.Budget, MaxPoints)
	}
	if n.Mode == SearchBudget && n.Budget == 0 {
		return nil, fmt.Errorf("%w: budget mode needs a positive budget", ErrInvalidSpec)
	}
	if n.Mode == SearchPareto && n.Budget == 0 {
		n.Budget = min(total, 128)
	}
	if n.Budget > total {
		n.Budget = total
	}
	if n.Cost != nil {
		if len(n.Cost.Weights) == 0 {
			n.Cost = nil
		} else {
			known := make(map[string]bool, len(axes))
			for _, ax := range axes {
				known[ax.Axis] = true
			}
			weights := make(map[string]float64, len(n.Cost.Weights))
			for k, v := range n.Cost.Weights {
				name := strings.ToLower(strings.TrimSpace(k))
				if !known[name] {
					return nil, fmt.Errorf("%w: cost weight for %q, which is not a campaign axis", ErrInvalidSpec, k)
				}
				if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					return nil, fmt.Errorf("%w: cost weight for %q must be a non-negative finite number, got %v", ErrInvalidSpec, k, v)
				}
				weights[name] = v
			}
			n.Cost = &CostSpec{Weights: weights}
		}
	}
	return &n, nil
}

// NewSearcher builds the policy for a compiled campaign: the enumerate
// policy for a plan without a search block (a grid), otherwise the
// search block's mode.
func NewSearcher(p *Plan) (Searcher, error) {
	s := p.Spec.Search
	if s == nil {
		return &enumerateSearcher{total: p.Total}, nil
	}
	base := searchBase{p: p, obs: make(map[int]Observation)}
	switch s.Mode {
	case SearchTarget:
		return &targetSearcher{searchBase: base}, nil
	case SearchPareto:
		return &paretoSearcher{searchBase: base}, nil
	case SearchBudget:
		return &budgetSearcher{searchBase: base}, nil
	}
	return nil, fmt.Errorf("%w: unknown search mode %q", ErrInvalidSpec, s.Mode)
}

// enumerateSearcher is a grid campaign's policy: it proposes every point
// in one batch, then stops. A grid has no search standing, so it
// observes and reports nothing.
type enumerateSearcher struct {
	total    int
	proposed bool
}

func (e *enumerateSearcher) Next() Proposal {
	if e.proposed {
		return Proposal{Done: true}
	}
	e.proposed = true
	indices := make([]int, e.total)
	for i := range indices {
		indices[i] = i
	}
	return Proposal{Indices: indices}
}

func (*enumerateSearcher) Observe(Observation) {}

func (*enumerateSearcher) Snapshot() SearchStatus { return SearchStatus{} }

// objectiveValue picks the objective scalar out of a measurement.
func objectiveValue(objective string, m Measurement) float64 {
	if objective == ObjectiveTotal {
		return m.TotalSeconds
	}
	return m.Speedup
}

// searchBase is the bookkeeping shared by every policy: the observation
// memo keyed by point index, plus the observation order for
// deterministic tie-breaking and reporting.
type searchBase struct {
	p     *Plan
	obs   map[int]Observation
	order []int
}

// Observe records an observation; repeats of an already-observed index
// are ignored (the memo is the replay's ground truth).
func (b *searchBase) Observe(o Observation) {
	if _, ok := b.obs[o.Index]; ok {
		return
	}
	b.obs[o.Index] = o
	b.order = append(b.order, o.Index)
}

// maximize reports the objective sense: true for speedup, false for
// total seconds.
func (b *searchBase) maximize() bool {
	return b.p.Spec.Search.Objective != ObjectiveTotal
}

// betterObjective reports whether objective value a beats value v under
// the search's sense.
func (b *searchBase) betterObjective(a, v float64) bool {
	if b.maximize() {
		return a > v
	}
	return a < v
}

// meetsTarget reports whether an observation satisfies the target-mode
// threshold. Failed observations never do.
func (b *searchBase) meetsTarget(o Observation) bool {
	if !o.OK {
		return false
	}
	if b.maximize() {
		return o.Objective >= b.p.Spec.Search.Target
	}
	return o.Objective <= b.p.Spec.Search.Target
}

// searchPoint renders one observation as a report point.
func (b *searchBase) searchPoint(o Observation) *SearchPoint {
	return &SearchPoint{
		Index:     o.Index,
		Point:     b.p.PointLabel(o.Index),
		Cost:      o.Cost,
		Objective: o.Objective,
	}
}

// snapshotBase fills the policy-independent snapshot fields.
func (b *searchBase) snapshotBase() SearchStatus {
	s := b.p.Spec.Search
	return SearchStatus{
		Mode:      s.Mode,
		Objective: s.Objective,
		Target:    s.Target,
		Budget:    s.Budget,
		Evaluated: len(b.obs),
	}
}

// bestByObjective returns the successful observation with the best
// objective (sense-aware), breaking ties by lower cost and then by
// observation order. Nil when nothing has succeeded yet.
func (b *searchBase) bestByObjective() *Observation {
	var best *Observation
	for _, idx := range b.order {
		o := b.obs[idx]
		if !o.OK {
			continue
		}
		if best == nil || b.betterObjective(o.Objective, best.Objective) ||
			(o.Objective == best.Objective && o.Cost < best.Cost) {
			c := o
			best = &c
		}
	}
	return best
}

// filterUnobserved drops indices already in the memo, preserving order
// and deduplicating.
func (b *searchBase) filterUnobserved(indices []int) []int {
	seen := make(map[int]bool, len(indices))
	var out []int
	for _, idx := range indices {
		if seen[idx] {
			continue
		}
		seen[idx] = true
		if _, ok := b.obs[idx]; !ok {
			out = append(out, idx)
		}
	}
	return out
}

// capBatch truncates a batch to the remaining evaluation budget
// (budget 0 = unbounded).
func (b *searchBase) capBatch(indices []int) []int {
	budget := b.p.Spec.Search.Budget
	if budget <= 0 {
		return indices
	}
	remaining := budget - len(b.obs)
	if remaining < len(indices) {
		return indices[:remaining]
	}
	return indices
}

// budgetExhausted reports whether the evaluation cap is spent.
func (b *searchBase) budgetExhausted() bool {
	budget := b.p.Spec.Search.Budget
	return budget > 0 && len(b.obs) >= budget
}

func (b *searchBase) doneBudget() Proposal {
	return Proposal{Done: true, Reason: fmt.Sprintf("budget of %d evaluations exhausted", b.p.Spec.Search.Budget)}
}

// neighbors lists the lattice neighbors of a point: one step up or down
// along each single axis, in ascending index order.
func (b *searchBase) neighbors(idx int) []int {
	coords := b.p.coords(idx)
	var out []int
	for a := range coords {
		for _, d := range [2]int{-1, 1} {
			c := coords[a] + d
			if c < 0 || c >= len(b.p.Spec.Axes[a].Values) {
				continue
			}
			probe := append([]int(nil), coords...)
			probe[a] = c
			out = append(out, b.p.index(probe))
		}
	}
	sort.Ints(out)
	return out
}

// targetSearcher finds the cheapest configuration meeting the target:
// it probes the maximum corner (if even that misses the target, the
// search reports the target unreachable), then walks the axes in spec
// order, bisecting each one for the smallest value that still meets the
// target while the later axes stay at their current settings. Under the
// monotone assumption (a bigger knob never hurts the objective) this
// converges in 1 + sum(ceil(log2(len(axis)))) evaluations — versus the
// full cross product for the equivalent grid campaign.
type targetSearcher struct {
	searchBase
}

// Next replays coordinate descent over the observation memo and proposes
// the first evaluation the replay is missing.
func (t *targetSearcher) Next() Proposal {
	if t.budgetExhausted() {
		return t.doneBudget()
	}
	axes := t.p.Spec.Axes
	cur := make([]int, len(axes))
	for a := range axes {
		cur[a] = len(axes[a].Values) - 1
	}
	corner := t.p.index(cur)
	o, ok := t.obs[corner]
	if !ok {
		return Proposal{Indices: []int{corner}}
	}
	if !t.meetsTarget(o) {
		return Proposal{Done: true, Reason: fmt.Sprintf(
			"target %g unreachable: the maximum configuration measures %.4g", t.p.Spec.Search.Target, o.Objective)}
	}
	for a := range axes {
		lo, hi := 0, cur[a]
		for lo < hi {
			mid := (lo + hi) / 2
			probe := append([]int(nil), cur...)
			probe[a] = mid
			idx := t.p.index(probe)
			po, ok := t.obs[idx]
			if !ok {
				return Proposal{Indices: []int{idx}}
			}
			if t.meetsTarget(po) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		cur[a] = lo
	}
	return Proposal{Done: true, Reason: fmt.Sprintf(
		"target %g met: coordinate descent converged after %d evaluations", t.p.Spec.Search.Target, len(t.obs))}
}

// Snapshot reports the cheapest feasible point seen so far (falling
// back to the best objective while nothing is feasible yet).
func (t *targetSearcher) Snapshot() SearchStatus {
	st := t.snapshotBase()
	var best *Observation
	for _, idx := range t.order {
		o := t.obs[idx]
		if !t.meetsTarget(o) {
			continue
		}
		if best == nil || o.Cost < best.Cost ||
			(o.Cost == best.Cost && t.betterObjective(o.Objective, best.Objective)) {
			c := o
			best = &c
		}
	}
	if best == nil {
		best = t.bestByObjective()
	}
	if best != nil {
		st.Best = t.searchPoint(*best)
	}
	return st
}

// paretoSearcher traces the non-dominated frontier of cost vs objective:
// it seeds the search with the 2^k domain corners, then repeatedly
// proposes the unevaluated lattice neighbors of the current frontier —
// refinement happens exactly where the trade-off curve is, and the
// search closes when the frontier has no unevaluated neighbors (or the
// budget runs out).
type paretoSearcher struct {
	searchBase
}

// Next replays the corner wave and frontier expansion over the memo.
func (t *paretoSearcher) Next() Proposal {
	if t.budgetExhausted() {
		return t.doneBudget()
	}
	if missing := t.filterUnobserved(t.corners()); len(missing) > 0 {
		return Proposal{Indices: t.capBatch(missing)}
	}
	front := t.frontier()
	var cands []int
	for _, fp := range front {
		cands = append(cands, t.neighbors(fp.Index)...)
	}
	sort.Ints(cands)
	cands = t.filterUnobserved(cands)
	if len(cands) == 0 {
		return Proposal{Done: true, Reason: fmt.Sprintf(
			"frontier closed after %d evaluations: every neighbor of the frontier is evaluated", len(t.obs))}
	}
	return Proposal{Indices: t.capBatch(cands)}
}

// corners enumerates the 2^k extreme points of the axis lattice in
// ascending index order.
func (t *paretoSearcher) corners() []int {
	axes := t.p.Spec.Axes
	out := []int{0}
	for a := range axes {
		last := len(axes[a].Values) - 1
		if last == 0 {
			continue
		}
		grown := make([]int, 0, 2*len(out))
		for _, idx := range out {
			grown = append(grown, idx, idx+last*t.p.strides[a])
		}
		out = grown
	}
	sort.Ints(out)
	return out
}

// frontier computes the non-dominated set over all successful
// observations: sorted by ascending cost, keeping each point that
// strictly improves the objective over every cheaper point.
func (t *paretoSearcher) frontier() []SearchPoint {
	var pts []Observation
	for _, idx := range t.order {
		if o := t.obs[idx]; o.OK {
			pts = append(pts, o)
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].Cost != pts[j].Cost {
			return pts[i].Cost < pts[j].Cost
		}
		if pts[i].Objective != pts[j].Objective {
			return t.betterObjective(pts[i].Objective, pts[j].Objective)
		}
		return pts[i].Index < pts[j].Index
	})
	var front []SearchPoint
	haveBest := false
	var best float64
	for _, o := range pts {
		if haveBest && !t.betterObjective(o.Objective, best) {
			continue
		}
		haveBest, best = true, o.Objective
		front = append(front, *t.searchPoint(o))
	}
	return front
}

// Snapshot reports the frontier plus the best-objective point on it.
func (t *paretoSearcher) Snapshot() SearchStatus {
	st := t.snapshotBase()
	st.Frontier = t.frontier()
	if best := t.bestByObjective(); best != nil {
		st.Best = t.searchPoint(*best)
	}
	return st
}

// budgetSearcher spends a fixed evaluation budget as well as it can:
// the first half scans the domain with a golden-ratio stride (a
// deterministic low-discrepancy sample of the whole lattice), the
// second half hill-climbs from the best point found, evaluating its
// unevaluated lattice neighbors and re-centering on improvement.
type budgetSearcher struct {
	searchBase
}

// Next replays the scan phase and then the hill climb over the memo.
func (t *budgetSearcher) Next() Proposal {
	if t.budgetExhausted() {
		return t.doneBudget()
	}
	total := t.p.Total
	scanN := max(1, t.p.Spec.Search.Budget/2)
	if scanN > total {
		scanN = total
	}
	stride := scanStride(total)
	scan := make([]int, 0, scanN)
	for j := 0; j < scanN; j++ {
		scan = append(scan, (j*stride)%total)
	}
	if missing := t.filterUnobserved(scan); len(missing) > 0 {
		return Proposal{Indices: t.capBatch(missing)}
	}
	best := t.bestByObjective()
	if best == nil {
		return Proposal{Done: true, Reason: fmt.Sprintf(
			"no successful evaluation in %d scanned points", len(t.obs))}
	}
	cands := t.filterUnobserved(t.neighbors(best.Index))
	if len(cands) == 0 {
		return Proposal{Done: true, Reason: fmt.Sprintf(
			"local optimum after %d evaluations: every neighbor of the best point is evaluated", len(t.obs))}
	}
	return Proposal{Indices: t.capBatch(cands)}
}

// Snapshot reports the best-objective point so far.
func (t *budgetSearcher) Snapshot() SearchStatus {
	st := t.snapshotBase()
	if best := t.bestByObjective(); best != nil {
		st.Best = t.searchPoint(*best)
	}
	return st
}

// scanStride picks the golden-ratio stride for the budget scan: the
// integer nearest total/φ that is coprime with total, so the scan visits
// distinct points spread across the whole lattice.
func scanStride(total int) int {
	if total <= 2 {
		return 1
	}
	s := int(math.Round(float64(total) * 0.6180339887498949))
	if s < 1 {
		s = 1
	}
	for gcd(s, total) != 1 {
		s++
	}
	return s
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
