package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tensortee/internal/faultinject"
	"tensortee/internal/scenario"
	"tensortee/internal/store"
)

// twoSystemBase is a two-system base spec (speedup needs a baseline).
func twoSystemBase() scenario.Spec {
	s := tinyBase()
	s.Systems = []scenario.SystemSpec{{Kind: "sgx-mgx"}, {Kind: "tensortee"}}
	return s
}

// cacheEngineSpec is the canonical synthetic search domain: an 8×8 grid
// over the metadata-cache size and AES-engine count.
func cacheEngineSpec(search *SearchSpec) Spec {
	return Spec{
		Name: "search",
		Base: twoSystemBase(),
		Axes: []Axis{
			{Axis: "meta_cache_kb", Values: []float64{8, 16, 32, 64, 128, 256, 512, 1024}},
			{Axis: "npu_aes_engines", Values: []float64{1, 2, 3, 4, 5, 6, 7, 8}},
		},
		Search: search,
	}
}

// parseLabel inverts a point label ("meta_cache_kb=128,npu_aes_engines=4")
// into its axis values.
func parseLabel(label string) map[string]float64 {
	out := make(map[string]float64)
	for _, part := range strings.Split(label, ",") {
		if k, v, ok := strings.Cut(part, "="); ok {
			f, _ := strconv.ParseFloat(v, 64)
			out[k] = f
		}
	}
	return out
}

// monotoneObjective is increasing in both axes: bigger cache and more
// engines always help, the assumption target-mode bisection rides on.
func monotoneObjective(vals map[string]float64) float64 {
	return 1 + 0.01*vals["meta_cache_kb"] + 0.1*vals["npu_aes_engines"]
}

// synthRun returns a RunFunc behavior encoding the synthetic objective
// as a JSON payload (the shape synthMeasure decodes).
func synthBehave(obj func(map[string]float64) float64) func(label string, attempt int) ([]byte, error) {
	return func(label string, _ int) ([]byte, error) {
		return []byte(fmt.Sprintf(`{"speedup":%g}`, obj(parseLabel(label)))), nil
	}
}

func synthMeasure(payload []byte) (Measurement, error) {
	var m struct {
		Speedup float64 `json:"speedup"`
	}
	if err := json.Unmarshal(payload, &m); err != nil {
		return Measurement{}, err
	}
	return Measurement{Speedup: m.Speedup}, nil
}

// driveSearch runs a searcher to termination against a synthetic
// objective, returning the proposal sequence (batch by batch) and the
// termination reason.
func driveSearch(t *testing.T, p *Plan, obj func(map[string]float64) float64) (proposals [][]int, reason string, sr Searcher) {
	t.Helper()
	sr, err := NewSearcher(p)
	if err != nil {
		t.Fatalf("NewSearcher: %v", err)
	}
	for steps := 0; ; steps++ {
		if steps > 10*p.Total {
			t.Fatalf("search did not terminate after %d steps", steps)
		}
		prop := sr.Next()
		if prop.Done {
			return proposals, prop.Reason, sr
		}
		if len(prop.Indices) == 0 {
			t.Fatal("proposal with no indices and Done unset")
		}
		proposals = append(proposals, prop.Indices)
		for _, idx := range prop.Indices {
			sr.Observe(Observation{
				Index:     idx,
				Objective: obj(parseLabel(p.PointLabel(idx))),
				Cost:      p.Cost(idx),
				OK:        true,
			})
		}
	}
}

func TestCompileSearchSpec(t *testing.T) {
	plan, err := Compile(cacheEngineSpec(&SearchSpec{Mode: "Target", Target: 2}))
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	s := plan.Spec.Search
	if s.Mode != SearchTarget || s.Objective != ObjectiveSpeedup {
		t.Fatalf("normalized search = %+v", s)
	}

	// Search axes sort ascending and dedup; a grid keeps submitted order.
	unsorted := cacheEngineSpec(&SearchSpec{Mode: "budget", Budget: 4})
	unsorted.Axes[0].Values = []float64{64, 8, 8, 16}
	plan, err = Compile(unsorted)
	if err != nil {
		t.Fatalf("Compile unsorted: %v", err)
	}
	if want := []float64{8, 16, 64}; !reflect.DeepEqual(plan.Spec.Axes[0].Values, want) {
		t.Fatalf("search axis values = %v, want %v", plan.Spec.Axes[0].Values, want)
	}
	if plan.Total != 3*8 {
		t.Fatalf("total = %d after dedup, want 24", plan.Total)
	}

	// Pareto defaults its refinement budget; explicit budgets clamp to
	// the domain size.
	plan, err = Compile(cacheEngineSpec(&SearchSpec{Mode: "pareto"}))
	if err != nil {
		t.Fatalf("Compile pareto: %v", err)
	}
	if plan.Spec.Search.Budget != 64 {
		t.Fatalf("pareto budget = %d, want min(total,128)=64", plan.Spec.Search.Budget)
	}

	for name, spec := range map[string]Spec{
		"unknown mode":      cacheEngineSpec(&SearchSpec{Mode: "climb"}),
		"budget without n":  cacheEngineSpec(&SearchSpec{Mode: "budget"}),
		"target without t":  cacheEngineSpec(&SearchSpec{Mode: "target"}),
		"target on pareto":  cacheEngineSpec(&SearchSpec{Mode: "pareto", Target: 2}),
		"unknown objective": cacheEngineSpec(&SearchSpec{Mode: "target", Target: 2, Objective: "latency"}),
		"weight off-axis":   cacheEngineSpec(&SearchSpec{Mode: "target", Target: 2, Cost: &CostSpec{Weights: map[string]float64{"layers": 1}}}),
		"negative weight":   cacheEngineSpec(&SearchSpec{Mode: "target", Target: 2, Cost: &CostSpec{Weights: map[string]float64{"meta_cache_kb": -1}}}),
		"speedup one system": func() Spec {
			s := cacheEngineSpec(&SearchSpec{Mode: "target", Target: 2})
			s.Base = tinyBase() // single system: no speedup baseline
			return s
		}(),
	} {
		if _, err := Compile(spec); err == nil {
			t.Errorf("%s: Compile accepted an invalid search spec", name)
		}
	}
}

func TestSearchProposalsDeterministic(t *testing.T) {
	for _, search := range []*SearchSpec{
		{Mode: "target", Target: 3},
		{Mode: "pareto", Budget: 40},
		{Mode: "budget", Budget: 20},
	} {
		plan, err := Compile(cacheEngineSpec(search))
		if err != nil {
			t.Fatalf("%s: Compile: %v", search.Mode, err)
		}
		p1, r1, _ := driveSearch(t, plan, monotoneObjective)
		p2, r2, _ := driveSearch(t, plan, monotoneObjective)
		if !reflect.DeepEqual(p1, p2) || r1 != r2 {
			t.Fatalf("%s: proposal sequences diverge:\n%v (%q)\n%v (%q)", search.Mode, p1, r1, p2, r2)
		}
	}
}

func TestTargetSearchBisectsMonotoneObjective(t *testing.T) {
	plan, err := Compile(cacheEngineSpec(&SearchSpec{Mode: "target", Target: 3}))
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	proposals, reason, sr := driveSearch(t, plan, monotoneObjective)
	if !strings.Contains(reason, "target 3 met") {
		t.Fatalf("termination reason = %q", reason)
	}
	evals := 0
	for _, batch := range proposals {
		evals += len(batch)
	}
	// Coordinate descent is logarithmic per axis: 1 corner probe plus
	// ceil(log2 8) bisection steps per axis — far under the 64-point grid.
	if evals > 10 {
		t.Fatalf("target search evaluated %d points, want <= 10", evals)
	}
	snap := sr.Snapshot()
	if snap.Best == nil || snap.Best.Point != "meta_cache_kb=128,npu_aes_engines=8" {
		t.Fatalf("best = %+v, want the cheapest config meeting 3.0 (cache=128, engines=8)", snap.Best)
	}
	// f(128, 8) = 3.08 >= 3, and the next-cheaper candidates on either
	// axis miss the target: f(64, 8) = 2.44, f(128, 7) = 2.98.
	if snap.Best.Cost != 128+16*8 {
		t.Fatalf("best cost = %g, want 256", snap.Best.Cost)
	}
	if snap.Best.Objective < 3 {
		t.Fatalf("best objective = %g, below the target", snap.Best.Objective)
	}
}

func TestTargetSearchReportsUnreachable(t *testing.T) {
	plan, err := Compile(cacheEngineSpec(&SearchSpec{Mode: "target", Target: 100}))
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	proposals, reason, _ := driveSearch(t, plan, monotoneObjective)
	if len(proposals) != 1 || len(proposals[0]) != 1 {
		t.Fatalf("unreachable target should cost exactly one probe, got %v", proposals)
	}
	if !strings.Contains(reason, "unreachable") {
		t.Fatalf("termination reason = %q", reason)
	}
}

func TestParetoFrontierIsNonDominated(t *testing.T) {
	// Non-monotone objective: engines help up to 4 then hurt, cache has
	// diminishing returns — the frontier is a real curve, not a corner.
	obj := func(vals map[string]float64) float64 {
		e := vals["npu_aes_engines"]
		return 0.1*float64(len(fmt.Sprint(vals["meta_cache_kb"]))) + 2 - (e-4)*(e-4)*0.05 + 0.001*vals["meta_cache_kb"]
	}
	plan, err := Compile(cacheEngineSpec(&SearchSpec{Mode: "pareto", Budget: 48}))
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	_, reason, sr := driveSearch(t, plan, obj)
	if reason == "" {
		t.Fatal("pareto search terminated without a reason")
	}
	snap := sr.Snapshot()
	if len(snap.Frontier) == 0 {
		t.Fatal("empty frontier")
	}
	base := sr.(*paretoSearcher)
	for _, fp := range snap.Frontier {
		for idx, o := range base.obs {
			if !o.OK || idx == fp.Index {
				continue
			}
			strictlyCheaper := o.Cost < fp.Cost && o.Objective >= fp.Objective
			strictlyBetter := o.Cost <= fp.Cost && o.Objective > fp.Objective
			if strictlyCheaper || strictlyBetter {
				t.Fatalf("frontier point %+v dominated by observed point %d (cost=%g obj=%g)",
					fp, idx, o.Cost, o.Objective)
			}
		}
	}
	// Frontier is sorted by ascending cost with strictly improving
	// objective.
	for i := 1; i < len(snap.Frontier); i++ {
		if snap.Frontier[i].Cost <= snap.Frontier[i-1].Cost || snap.Frontier[i].Objective <= snap.Frontier[i-1].Objective {
			t.Fatalf("frontier not strictly increasing: %+v", snap.Frontier)
		}
	}
}

func TestBudgetSearchRespectsBudget(t *testing.T) {
	const budget = 12
	plan, err := Compile(cacheEngineSpec(&SearchSpec{Mode: "budget", Budget: budget}))
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	proposals, reason, sr := driveSearch(t, plan, monotoneObjective)
	evals := 0
	for _, batch := range proposals {
		evals += len(batch)
	}
	if evals > budget {
		t.Fatalf("budget search evaluated %d points over its budget of %d", evals, budget)
	}
	if reason == "" {
		t.Fatal("budget search terminated without a reason")
	}
	snap := sr.Snapshot()
	if snap.Best == nil {
		t.Fatal("no best point after a full budget")
	}
	// The reported best is the best observed objective.
	base := sr.(*budgetSearcher)
	for _, o := range base.obs {
		if o.OK && o.Objective > snap.Best.Objective {
			t.Fatalf("best = %+v but observed objective %g at point %d", snap.Best, o.Objective, o.Index)
		}
	}
}

func TestSearchCampaignEvaluatesFewerPointsThanGrid(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	run := newCountingRun()
	run.behave = synthBehave(monotoneObjective)
	var evMu sync.Mutex
	var pointEvents []Event
	m := NewManager(Config{
		Run:     run.run,
		Measure: synthMeasure,
		Store:   st,
		Workers: 2,
		OnEvent: func(ev Event) {
			if ev.Type == EventPoint {
				evMu.Lock()
				pointEvents = append(pointEvents, ev)
				evMu.Unlock()
			}
		},
	})
	defer m.Shutdown(context.Background())

	status, created, err := m.Start(cacheEngineSpec(&SearchSpec{Mode: "target", Target: 3}))
	if err != nil || !created {
		t.Fatalf("Start: created=%v err=%v", created, err)
	}
	if status.Total != 64 {
		t.Fatalf("domain size = %d, want 64", status.Total)
	}
	final := waitTerminal(t, m, status.ID)
	if final.State != StateDone || final.Failed != 0 {
		t.Fatalf("final = %+v", final)
	}
	// The acceptance bar: the search answers the grid's question at a
	// fraction of the grid's cost.
	if run.total() >= final.Total/2 {
		t.Fatalf("search ran %d points; the equivalent grid is %d", run.total(), final.Total)
	}
	if final.Computed != run.total() {
		t.Fatalf("computed=%d but run executed %d points", final.Computed, run.total())
	}
	if final.Search == nil {
		t.Fatal("no search status on a search campaign")
	}
	if final.Search.Evaluated != run.total() {
		t.Fatalf("evaluated=%d, want %d", final.Search.Evaluated, run.total())
	}
	if !strings.Contains(final.Search.Terminated, "target 3 met") {
		t.Fatalf("terminated = %q", final.Search.Terminated)
	}
	if final.Search.Best == nil || final.Search.Best.Point != "meta_cache_kb=128,npu_aes_engines=8" {
		t.Fatalf("best = %+v", final.Search.Best)
	}
	// Computed points checkpointed; the final manifest carries the search
	// verdict so it survives restarts.
	raw, ok := st.Get(store.Campaigns, manifestKey(status.ID))
	if !ok {
		t.Fatal("no final manifest")
	}
	var man manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatalf("manifest: %v", err)
	}
	if man.Final == nil || man.Final.Search == nil || man.Final.Search.Best == nil {
		t.Fatalf("manifest final search = %+v", man.Final)
	}
	// Every point event on a search campaign carries the best-so-far
	// snapshot.
	evMu.Lock()
	defer evMu.Unlock()
	if len(pointEvents) != final.Computed {
		t.Fatalf("%d point events, want %d", len(pointEvents), final.Computed)
	}
	for _, ev := range pointEvents {
		if ev.BestSoFar == nil {
			t.Fatalf("point event without best_so_far: %+v", ev)
		}
	}
}

func TestSearchResumeSkipsCheckpointedPoints(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	const before = 3

	// First incarnation: evaluate `before` points, wedge on the next; a
	// forced shutdown simulates the crash.
	run1 := newCountingRun()
	reached := make(chan struct{})
	var once sync.Once
	run1.behave = func(label string, attempt int) ([]byte, error) {
		if run1.total() > before {
			once.Do(func() { close(reached) })
			select {} // wedge forever; forced shutdown abandons it
		}
		return synthBehave(monotoneObjective)(label, attempt)
	}
	m1 := NewManager(Config{Run: run1.run, Measure: synthMeasure, Store: st, Workers: 1})
	status, _, err := m1.Start(cacheEngineSpec(&SearchSpec{Mode: "target", Target: 3}))
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	select {
	case <-reached:
	case <-time.After(10 * time.Second):
		t.Fatal("search never reached the wedge point")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := m1.Shutdown(ctx); err == nil {
		t.Fatal("forced shutdown should report an incomplete drain")
	}
	run1.mu.Lock()
	firstLabels := make(map[string]bool, len(run1.calls))
	for label := range run1.calls {
		firstLabels[label] = true
	}
	run1.mu.Unlock()

	// Second incarnation: the replay must propose the same sequence but
	// satisfy the checkpointed prefix from disk — no re-computation of
	// any point the first incarnation finished.
	run2 := newCountingRun()
	run2.behave = synthBehave(monotoneObjective)
	m2 := NewManager(Config{Run: run2.run, Measure: synthMeasure, Store: openStore(t, dir), Workers: 1})
	defer m2.Shutdown(context.Background())
	resumed, err := m2.ResumeStored()
	if err != nil || resumed != 1 {
		t.Fatalf("ResumeStored: resumed=%d err=%v", resumed, err)
	}
	final := waitTerminal(t, m2, status.ID)
	if final.State != StateDone {
		t.Fatalf("final = %+v", final)
	}
	if final.Restored != before {
		t.Fatalf("restored = %d, want %d", final.Restored, before)
	}
	run2.mu.Lock()
	for label := range run2.calls {
		// The wedged point was never checkpointed, so recomputing it is
		// correct; the three completed ones must not run again.
		if firstLabels[label] && run1.count(label) > 0 && run2.calls[label] > 0 && label != wedgedLabel(run1) {
			t.Fatalf("point %q recomputed after resume", label)
		}
	}
	run2.mu.Unlock()
	if final.Search == nil || !strings.Contains(final.Search.Terminated, "target 3 met") {
		t.Fatalf("search = %+v", final.Search)
	}
	if final.Search.Best == nil || final.Search.Best.Point != "meta_cache_kb=128,npu_aes_engines=8" {
		t.Fatalf("best = %+v", final.Search.Best)
	}
	// The full search needed restored + computed evaluations; the second
	// incarnation computed only what the first had not checkpointed.
	if run2.total() != final.Computed {
		t.Fatalf("second incarnation ran %d points, computed=%d", run2.total(), final.Computed)
	}
	if final.Search.Evaluated != final.Restored+final.Computed {
		t.Fatalf("evaluated=%d, want restored+computed=%d", final.Search.Evaluated, final.Restored+final.Computed)
	}
}

// wedgedLabel returns the label of the point the first incarnation was
// wedged on (the one whose call count exists but whose checkpoint never
// landed) — it legitimately runs again after resume.
func wedgedLabel(run *countingRun) string {
	run.mu.Lock()
	defer run.mu.Unlock()
	// The wedge fires on the (before+1)-th distinct call; with one worker
	// and single-point batches, it is the only label with a call that
	// produced no payload. countingRun does not track outcomes, so the
	// caller identifies it as the last label proposed — but since map
	// order is undefined, reconstruct it from the known deterministic
	// sequence instead.
	return "meta_cache_kb=128,npu_aes_engines=8"
}

func TestSearchCampaignCancelMidSearch(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	run := newCountingRun()
	release := make(chan struct{})
	reached := make(chan struct{})
	var once sync.Once
	run.behave = func(label string, attempt int) ([]byte, error) {
		if run.total() > 2 {
			once.Do(func() { close(reached) })
			<-release // block until cancelled, then finish normally
		}
		return synthBehave(monotoneObjective)(label, attempt)
	}
	m := NewManager(Config{Run: run.run, Measure: synthMeasure, Store: st, Workers: 1})
	defer m.Shutdown(context.Background())
	status, _, err := m.Start(cacheEngineSpec(&SearchSpec{Mode: "target", Target: 3}))
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	select {
	case <-reached:
	case <-time.After(10 * time.Second):
		t.Fatal("search never reached the block point")
	}
	if _, err := m.Cancel(status.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	close(release)
	final := waitTerminal(t, m, status.ID)
	if final.State != StateCancelled {
		t.Fatalf("final state = %s", final.State)
	}
	if final.Search == nil || final.Search.Terminated != "cancelled" {
		t.Fatalf("search = %+v", final.Search)
	}
	// Unproposed domain points are not "skipped" work on a search — the
	// search never owed them.
	if final.Skipped != 0 {
		t.Fatalf("skipped = %d, want 0", final.Skipped)
	}
}

func TestSearchRequiresMeasureHook(t *testing.T) {
	m := NewManager(Config{Run: newCountingRun().run})
	defer m.Shutdown(context.Background())
	_, _, err := m.Start(cacheEngineSpec(&SearchSpec{Mode: "target", Target: 2}))
	if err == nil {
		t.Fatal("manager without Measure accepted a search campaign")
	}
}

func TestSearchRecomputesUnreadableRestoredPoint(t *testing.T) {
	dir := t.TempDir()
	spec := cacheEngineSpec(&SearchSpec{Mode: "target", Target: 3})
	const best = "meta_cache_kb=128,npu_aes_engines=8"

	run1 := newCountingRun()
	run1.behave = synthBehave(monotoneObjective)
	m1 := NewManager(Config{Run: run1.run, Measure: synthMeasure, Store: openStore(t, dir), Workers: 1})
	status, _, err := m1.Start(spec)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	first := waitTerminal(t, m1, status.ID)
	if err := m1.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if first.Computed != 7 || first.Search == nil || first.Search.Best == nil || first.Search.Best.Point != best {
		t.Fatalf("first run = %+v", first)
	}

	// Rerun the same spec over the same checkpoints. The restore scan
	// reads all 64 points; read 65 is the re-read of the search's first
	// proposal, the maximum corner, and it fails.
	inj, err := faultinject.Parse("read:fail@65")
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir, store.Options{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	run2 := newCountingRun()
	run2.behave = synthBehave(monotoneObjective)
	m2 := NewManager(Config{Run: run2.run, Measure: synthMeasure, Store: st, Workers: 1})
	defer m2.Shutdown(context.Background())
	if _, _, err := m2.Start(spec); err != nil {
		t.Fatalf("Start over faulted store: %v", err)
	}
	final := waitTerminal(t, m2, status.ID)
	if final.State != StateDone || final.Failed != 0 {
		t.Fatalf("final = %+v", final)
	}
	// The unreadable checkpoint is recomputed, not observed as a failed
	// point: the answer is the same as the first run's.
	if final.Restored != 6 || final.Computed != 1 || run2.count("meta_cache_kb=1024,npu_aes_engines=8") != 1 {
		t.Fatalf("restored=%d computed=%d, max corner ran %d times; want 6, 1, 1",
			final.Restored, final.Computed, run2.count("meta_cache_kb=1024,npu_aes_engines=8"))
	}
	if final.Search == nil || !strings.Contains(final.Search.Terminated, "target 3 met") ||
		final.Search.Best == nil || final.Search.Best.Point != best {
		t.Fatalf("search = %+v", final.Search)
	}
}
