package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"tensortee/internal/resilience"
	"tensortee/internal/scenario"
	"tensortee/internal/store"
)

// RunFunc computes one campaign point — a single-point scenario spec —
// and returns the payload to checkpoint (the stored encoding of the
// scenario result). The manager takes it as a closure rather than a
// Runner so the package depends only on the scenario/store layers.
type RunFunc func(ctx context.Context, spec scenario.Spec) ([]byte, error)

// Config configures a Manager.
type Config struct {
	// Run computes one point. Required.
	Run RunFunc
	// Measure decodes a point's checkpointed payload into the scalars a
	// search optimizes over. Required to accept search campaigns; a
	// manager without it rejects specs carrying a "search" block at
	// submit time.
	Measure MeasureFunc
	// Store checkpoints completed points and manifests. nil disables
	// persistence: campaigns still run, but do not survive a restart.
	Store *store.Store
	// Workers bounds concurrently running points across all campaigns
	// (default 2). Campaign work is background batch work; it must not
	// starve the serving path's own compute slots.
	Workers int
	// Retries is how many times a failed point is retried before it is
	// marked failed (default 1; attempts = Retries+1).
	Retries int
	// Breaker, when set, observes every point attempt and pauses
	// dispatch while open — a sick backend stops the batch tier from
	// hammering it, the same degradation path the serving tier takes.
	Breaker *resilience.Breaker
	// OnEvent, when set, observes every published event synchronously
	// (metrics hook).
	OnEvent func(Event)
}

// Fixed Manager tuning.
const (
	// pointRetryDelay spaces retry attempts of a failed point.
	pointRetryDelay = 50 * time.Millisecond
	// breakerPollInterval is how often a paused dispatcher re-checks an
	// open breaker.
	breakerPollInterval = 100 * time.Millisecond
	// maxTrackedJobs bounds tracked campaigns. At the cap, the oldest
	// terminal job is evicted to admit a new one; if every tracked job is
	// still running, submission fails with ErrBusy.
	maxTrackedJobs = 64
)

// State is a campaign's lifecycle state.
type State string

const (
	// StateRunning means points are still being dispatched or computed.
	StateRunning State = "running"
	// StateDone means every point reached a terminal state (failures
	// included — they are isolated, not fatal).
	StateDone State = "done"
	// StateCancelled means the campaign was cancelled; in-flight points
	// drained and the rest were skipped.
	StateCancelled State = "cancelled"
)

// PointState is one point's lifecycle state.
type PointState string

const (
	// PointPending is the zero value: a freshly allocated point slice is
	// all-pending by construction.
	PointPending PointState = ""
	// PointRunning means the point is computing right now.
	PointRunning PointState = "running"
	// PointComputed means the point was simulated by this process.
	PointComputed PointState = "computed"
	// PointRestored means the point was satisfied from a checkpoint.
	PointRestored PointState = "restored"
	// PointFailed means the point exhausted its retries.
	PointFailed PointState = "failed"
	// PointSkipped means cancellation reached the point before a worker.
	PointSkipped PointState = "skipped"
)

// maxFailures bounds the per-campaign failure detail list (counts are
// always exact; detail is a sample).
const maxFailures = 32

// PointFailure records one failed point.
type PointFailure struct {
	// Index is the point's position in the row-major grid order.
	Index int `json:"index"`
	// Point is the human-readable "axis=value,..." label.
	Point string `json:"point"`
	// Error is the final attempt's error text.
	Error string `json:"error"`
}

// Status is a campaign status snapshot. Done counts terminal points
// (computed + restored + failed + skipped); a campaign reaches
// StateDone even with failed points — failures are isolated, reported,
// and never abort the rest of the grid.
type Status struct {
	// ID is the campaign's content-addressed identity (the plan
	// fingerprint): identical specs share one ID.
	ID string `json:"id"`
	// Name echoes the spec's human-readable label.
	Name string `json:"name"`
	// State is the campaign's lifecycle state.
	State State `json:"state"`
	// Total is the domain size (every grid point, whether or not a
	// search ever proposes it).
	Total int `json:"total"`
	// Done counts terminal points: Computed + Restored + Failed + Skipped.
	Done int `json:"done"`
	// Computed counts points simulated by this process.
	Computed int `json:"computed"`
	// Restored counts points satisfied from checkpoints.
	Restored int `json:"restored"`
	// Failed counts points that exhausted their retries.
	Failed int `json:"failed"`
	// Skipped counts points cancellation reached before a worker did.
	Skipped int `json:"skipped"`
	// Running counts points computing right now.
	Running int `json:"running"`
	// Created is the submission time (informational; not identity).
	Created time.Time `json:"created"`
	// Failures samples per-point failure detail (at most maxFailures
	// entries; the Failed count is always exact).
	Failures []PointFailure `json:"failures,omitempty"`
	// Durability reports checkpoint health: "none" (no store configured),
	// "full" (every computed point checkpointed), or "degraded" (one or
	// more checkpoints failed to persist after retries — the campaign
	// still completed with exact counts, but a crash would recompute the
	// unpersisted points).
	Durability string `json:"durability,omitempty"`
	// CheckpointsLost counts computed points whose checkpoint never
	// landed (only non-zero when Durability is "degraded").
	CheckpointsLost int `json:"checkpoints_lost,omitempty"`
	// Search reports a search campaign's standing (nil for grid
	// campaigns): evaluated count, best point so far, frontier, and the
	// termination reason once the search stops.
	Search *SearchStatus `json:"search,omitempty"`
}

// Durability values for Status.Durability.
const (
	DurabilityNone     = "none"
	DurabilityFull     = "full"
	DurabilityDegraded = "degraded"
)

// EventType classifies stream events.
type EventType string

const (
	// EventStarted opens a campaign's stream (Restored already counted).
	EventStarted EventType = "started"
	// EventPoint reports one point reaching a terminal state.
	EventPoint EventType = "point"
	// EventDone and EventCancelled terminate the stream.
	EventDone EventType = "done"
	// EventCancelled is EventDone's cancelled twin.
	EventCancelled EventType = "cancelled"
	// EventStatus is a synthetic snapshot line (stream open / close);
	// the manager never publishes it itself.
	EventStatus EventType = "status"
)

// Event is one line of a campaign's NDJSON progress stream.
type Event struct {
	// Seq orders events within one campaign (gaps mean dropped lines).
	Seq int64 `json:"seq"`
	// Time is the publication time.
	Time time.Time `json:"time"`
	// Type classifies the line; see the EventType constants.
	Type EventType `json:"type"`
	// Campaign is the campaign ID the event belongs to.
	Campaign string `json:"campaign"`
	// Point is the "axis=value,..." label on point events.
	Point string `json:"point,omitempty"`
	// Index is the point's grid index on point events.
	Index int `json:"index"`
	// State is the point's terminal state ("done"/"failed"/"skipped") on
	// point events, or the campaign state on status snapshots.
	State string `json:"state,omitempty"`
	// Error carries the failure text on failed point events.
	Error string `json:"error,omitempty"`
	// Done through Total repeat the full running counts on every line,
	// so a client can join late or drop lines without losing totals.
	Done     int `json:"done"`
	Computed int `json:"computed"`
	Restored int `json:"restored"`
	Failed   int `json:"failed"`
	Skipped  int `json:"skipped"`
	Total    int `json:"total"`
	// BestSoFar snapshots the search's current winner on every point
	// event of a search campaign (absent for grid campaigns).
	BestSoFar *SearchPoint `json:"best_so_far,omitempty"`
	// Frontier snapshots the non-dominated set on pareto-mode point
	// events, capped at searchEventFrontierCap entries per line (the
	// status endpoint always carries the full frontier).
	Frontier []SearchPoint `json:"frontier,omitempty"`
}

// job is one tracked campaign.
type job struct {
	plan     *Plan
	created  time.Time
	hasStore bool

	cancelOnce sync.Once
	cancelCh   chan struct{}
	done       chan struct{} // closed at finalize

	mu              sync.Mutex
	state           State
	cancelled       bool // cancel requested
	points          []PointState
	computed        int
	restored        int
	failed          int
	skipped         int
	running         int
	checkpointsLost int
	failures        []PointFailure
	seq             int64
	subs            map[int]chan Event
	nextSub         int
	subsClosed      bool
	search          *SearchStatus // latest search snapshot; nil for grid campaigns
}

func newJob(plan *Plan, now time.Time) *job {
	return &job{
		plan:     plan,
		created:  now,
		cancelCh: make(chan struct{}),
		done:     make(chan struct{}),
		state:    StateRunning,
		points:   make([]PointState, plan.Total),
		subs:     make(map[int]chan Event),
	}
}

func (j *job) statusLocked() Status {
	st := Status{
		ID:       j.plan.ID,
		Name:     j.plan.Spec.Name,
		State:    j.state,
		Total:    j.plan.Total,
		Computed: j.computed,
		Restored: j.restored,
		Failed:   j.failed,
		Skipped:  j.skipped,
		Running:  j.running,
		Created:  j.created,
		Failures: append([]PointFailure(nil), j.failures...),
	}
	st.Done = st.Computed + st.Restored + st.Failed + st.Skipped
	switch {
	case !j.hasStore:
		st.Durability = DurabilityNone
	case j.checkpointsLost > 0:
		st.Durability = DurabilityDegraded
		st.CheckpointsLost = j.checkpointsLost
	default:
		st.Durability = DurabilityFull
	}
	if j.search != nil {
		sc := *j.search
		if sc.Best != nil {
			b := *sc.Best
			sc.Best = &b
		}
		sc.Frontier = append([]SearchPoint(nil), sc.Frontier...)
		st.Search = &sc
	}
	return st
}

func (j *job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

// Manager runs campaigns: a bounded worker pool over all campaigns'
// points, per-point checkpointing, cancellation and resume. All methods
// are safe for concurrent use.
type Manager struct {
	cfg         Config
	workers     int
	retries     int
	retryDelay  time.Duration
	breakerPoll time.Duration
	maxJobs     int
	sem         chan struct{}

	baseCtx    context.Context
	baseCancel context.CancelFunc
	stopOnce   sync.Once
	stopCh     chan struct{}
	wg         sync.WaitGroup

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string // insertion order, for List and cap eviction
	closed bool
}

// NewManager builds a Manager. cfg.Run is required.
func NewManager(cfg Config) *Manager {
	if cfg.Run == nil {
		panic("campaign: Config.Run is required")
	}
	m := &Manager{
		cfg:         cfg,
		workers:     cfg.Workers,
		retries:     cfg.Retries,
		retryDelay:  pointRetryDelay,
		breakerPoll: breakerPollInterval,
		maxJobs:     maxTrackedJobs,
		stopCh:      make(chan struct{}),
		jobs:        make(map[string]*job),
	}
	if m.workers <= 0 {
		m.workers = 2
	}
	if m.retries < 0 {
		m.retries = 0
	}
	m.sem = make(chan struct{}, m.workers)
	m.baseCtx, m.baseCancel = context.WithCancel(context.Background())
	return m
}

// Start validates, fingerprints and launches a campaign. Submissions
// are idempotent by content: an identical spec returns the existing
// campaign's status (created=false) and computes nothing.
func (m *Manager) Start(spec Spec) (Status, bool, error) {
	plan, err := Compile(spec)
	if err != nil {
		return Status{}, false, err
	}
	return m.start(plan)
}

func (m *Manager) start(plan *Plan) (Status, bool, error) {
	if plan.Spec.Search != nil && m.cfg.Measure == nil {
		return Status{}, false, fmt.Errorf("%w: search campaigns are not enabled (no measurement hook configured)", ErrInvalidSpec)
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return Status{}, false, ErrClosed
	}
	if j, ok := m.jobs[plan.ID]; ok {
		m.mu.Unlock()
		return j.status(), false, nil
	}
	if err := m.evictForAdmitLocked(); err != nil {
		m.mu.Unlock()
		return Status{}, false, err
	}
	j := newJob(plan, time.Now())
	j.hasStore = m.cfg.Store != nil
	m.jobs[plan.ID] = j
	m.order = append(m.order, plan.ID)
	m.wg.Add(1)
	m.mu.Unlock()
	go m.execute(j)
	return j.status(), true, nil
}

// evictForAdmitLocked makes room for one more job, preferring to drop
// the oldest terminal record. Requires m.mu.
func (m *Manager) evictForAdmitLocked() error {
	if len(m.jobs) < m.maxJobs {
		return nil
	}
	for i, id := range m.order {
		j := m.jobs[id]
		j.mu.Lock()
		terminal := j.state != StateRunning
		j.mu.Unlock()
		if terminal {
			delete(m.jobs, id)
			m.order = append(m.order[:i], m.order[i+1:]...)
			return nil
		}
	}
	return ErrBusy
}

// lookup returns a tracked campaign's job.
func (m *Manager) lookup(id string) (*job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Status returns a campaign's status snapshot.
func (m *Manager) Status(id string) (Status, bool) {
	j, ok := m.lookup(id)
	if !ok {
		return Status{}, false
	}
	return j.status(), true
}

// List snapshots all tracked campaigns in submission order.
func (m *Manager) List() []Status {
	m.mu.Lock()
	jobs := make([]*job, 0, len(m.order))
	for _, id := range m.order {
		jobs = append(jobs, m.jobs[id])
	}
	m.mu.Unlock()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	return out
}

// Active counts campaigns still running (metrics gauge).
func (m *Manager) Active() int {
	n := 0
	for _, st := range m.List() {
		if st.State == StateRunning {
			n++
		}
	}
	return n
}

// Cancel requests cancellation: dispatch stops, in-flight points drain
// to completion (their checkpoints land), and the campaign finalizes as
// cancelled. The cancellation is durable immediately — a crash between
// Cancel and the drain finishing does not resurrect the job on restart.
// Idempotent; cancelling a terminal campaign returns its status as-is.
func (m *Manager) Cancel(id string) (Status, error) {
	j, ok := m.lookup(id)
	if !ok {
		return Status{}, ErrUnknown
	}
	j.mu.Lock()
	if j.state != StateRunning {
		defer j.mu.Unlock()
		return j.statusLocked(), nil
	}
	j.cancelled = true
	j.mu.Unlock()
	j.cancelOnce.Do(func() { close(j.cancelCh) })
	m.persistManifest(j, manifest{
		Spec:      j.plan.Spec,
		Created:   j.created.UTC().Format(time.RFC3339),
		Cancelled: true,
	})
	return j.status(), nil
}

// Subscribe attaches a progress-event subscriber to a campaign. The
// channel closes when the campaign reaches a terminal state (or already
// has). Slow subscribers lose events rather than blocking the workers;
// every event carries full running counts, so a dropped event never
// leaves a reader with wrong totals. The returned func detaches.
func (m *Manager) Subscribe(id string) (<-chan Event, func(), error) {
	j, ok := m.lookup(id)
	if !ok {
		return nil, nil, ErrUnknown
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.subsClosed {
		ch := make(chan Event)
		close(ch)
		return ch, func() {}, nil
	}
	sid := j.nextSub
	j.nextSub++
	ch := make(chan Event, 256)
	j.subs[sid] = ch
	detach := func() {
		j.mu.Lock()
		delete(j.subs, sid)
		j.mu.Unlock()
	}
	return ch, detach, nil
}

// Wait blocks until the campaign reaches a terminal state (or ctx ends).
func (m *Manager) Wait(ctx context.Context, id string) (Status, error) {
	j, ok := m.lookup(id)
	if !ok {
		return Status{}, ErrUnknown
	}
	select {
	case <-j.done:
		return j.status(), nil
	case <-ctx.Done():
		return j.status(), ctx.Err()
	}
}

// publish stamps and fans an event out to subscribers. Sends happen
// under j.mu (non-blocking, so no lock-holding stall) — this is what
// makes the sends race-free against closeSubs closing the channels.
func (m *Manager) publish(j *job, ev Event) {
	j.mu.Lock()
	j.seq++
	ev.Seq = j.seq
	ev.Time = time.Now()
	ev.Campaign = j.plan.ID
	ev.Total = j.plan.Total
	ev.Computed = j.computed
	ev.Restored = j.restored
	ev.Failed = j.failed
	ev.Skipped = j.skipped
	ev.Done = j.computed + j.restored + j.failed + j.skipped
	if !j.subsClosed {
		for _, ch := range j.subs {
			select {
			case ch <- ev:
			default:
			}
		}
	}
	j.mu.Unlock()
	if m.cfg.OnEvent != nil {
		m.cfg.OnEvent(ev)
	}
}

// execute is a campaign's dispatcher goroutine: persist the manifest,
// restore checkpoints, then drive the campaign's policy — the enumerate
// policy for a grid, a search policy otherwise — batch by batch through
// the shared worker pool until it stops or the campaign is cancelled or
// the manager stops; finalize.
func (m *Manager) execute(j *job) {
	defer m.wg.Done()
	id := j.plan.ID

	if st := m.cfg.Store; st != nil {
		// Pin before writing: the manifest and every checkpoint this
		// campaign will produce are protected from LRU eviction for the
		// campaign's whole run.
		st.Pin(store.Campaigns, manifestKey(id))
		for i := 0; i < j.plan.Total; i++ {
			st.Pin(store.Campaigns, pointKey(id, i))
		}
		// Persist the manifest first: from this instant a crash leaves a
		// resumable record on disk.
		m.persistManifest(j, manifest{Spec: j.plan.Spec, Created: j.created.UTC().Format(time.RFC3339)})
		// Restore scan: any point already checkpointed (by a previous
		// incarnation of this daemon, same build) is terminal before the
		// first worker starts. The checkpoint payload is not re-decoded
		// here — the envelope's checksum and build tag already vouch
		// for it.
		for i := 0; i < j.plan.Total; i++ {
			if _, ok := st.Get(store.Campaigns, pointKey(id, i)); ok {
				j.mu.Lock()
				j.points[i] = PointRestored
				j.restored++
				j.mu.Unlock()
			}
		}
	}
	m.publish(j, Event{Type: EventStarted})

	sr, err := NewSearcher(j.plan)
	if err != nil { // unreachable: Compile validated the search block
		j.mu.Lock()
		j.cancelled = true
		j.mu.Unlock()
		m.finalize(j)
		return
	}
	search := j.plan.Spec.Search != nil
	terminated := ""
	for !isClosed(m.stopCh) && !isClosed(j.cancelCh) {
		prop := sr.Next()
		if prop.Done {
			terminated = prop.Reason
			break
		}
		outcomes, aborted := m.runBatch(j, prop.Indices)
		if search {
			m.observeBatch(j, sr, outcomes)
		}
		if aborted {
			break
		}
	}
	if search {
		if terminated == "" && isClosed(j.cancelCh) {
			terminated = "cancelled"
		}
		snap := sr.Snapshot()
		snap.Terminated = terminated
		j.mu.Lock()
		j.search = &snap
		j.mu.Unlock()
	}
	m.finalize(j)
}

// acquire takes a worker slot for one point of j. An open breaker
// pauses dispatch first (in-flight points drain): when the backend is
// sick, the batch tier stops feeding it. It returns false, holding no
// slot, when the campaign is cancelled or the manager stops first.
func (m *Manager) acquire(j *job) bool {
	for br := m.cfg.Breaker; br != nil && br.Open(); {
		select {
		case <-m.stopCh:
			return false
		case <-j.cancelCh:
			return false
		case <-time.After(m.breakerPoll):
		}
	}
	select {
	case <-m.stopCh:
		return false
	case <-j.cancelCh:
		return false
	case m.sem <- struct{}{}:
		return true
	}
}

// batchOutcome is one proposed point's evaluation inside a batch.
type batchOutcome struct {
	idx      int
	label    string
	payload  []byte
	err      error
	restored bool // satisfied from a checkpoint, not recomputed
}

// runBatch evaluates one proposed batch on the worker pool, with a
// checkpoint per computed point. Restored points take no worker slot.
// A grid settles and publishes each point as it finishes and drops its
// payload then; it returns no outcomes. A search returns one outcome
// per batch member for observeBatch, nil for members an abort left
// undispatched. Its restored payloads are re-read here: one that cannot
// be re-read is computed again, not fed back as a failed point. aborted
// reports that cancellation or shutdown stopped dispatch; in-flight
// points still drain.
func (m *Manager) runBatch(j *job, indices []int) (outcomes []*batchOutcome, aborted bool) {
	search := j.plan.Spec.Search != nil
	if search {
		outcomes = make([]*batchOutcome, len(indices))
	}
	var wg sync.WaitGroup
	for bi, idx := range indices {
		j.mu.Lock()
		restored := j.points[idx] == PointRestored
		j.mu.Unlock()
		if restored {
			if !search {
				continue // counted by the restore scan; nothing to observe
			}
			if payload, ok := m.cfg.Store.Get(store.Campaigns, pointKey(j.plan.ID, idx)); ok {
				outcomes[bi] = &batchOutcome{idx: idx, label: j.plan.PointLabel(idx), payload: payload, restored: true}
				continue
			}
			j.mu.Lock()
			j.points[idx] = PointPending
			j.restored--
			j.mu.Unlock()
		}
		if !m.acquire(j) {
			aborted = true
			break
		}
		j.mu.Lock()
		j.points[idx] = PointRunning
		j.running++
		j.mu.Unlock()
		out := &batchOutcome{idx: idx}
		if search {
			outcomes[bi] = out
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-m.sem }()
			out.payload, out.label, out.err = m.attemptPoint(j, idx)
			if out.err == nil {
				m.persistCheckpoint(j, idx, out.payload)
			}
			if !search {
				m.publish(j, m.settlePoint(j, idx, out.label, out.err))
			}
		}()
	}
	wg.Wait()
	return outcomes, aborted
}

// searchEventFrontierCap bounds the frontier snapshot embedded in each
// NDJSON event line; the status endpoint and final manifest always carry
// the full frontier.
const searchEventFrontierCap = 32

// observeBatch feeds a search batch back in proposal order — goroutine
// completion order must not leak into the policy's replay state — then
// settles the computed points and publishes their events, enriched with
// the post-batch best-so-far point and frontier. Restored points were
// counted by the restore scan and publish no event.
func (m *Manager) observeBatch(j *job, sr Searcher, outcomes []*batchOutcome) {
	var events []Event
	for _, out := range outcomes {
		if out == nil {
			continue // abort hit before this batch member dispatched
		}
		obs := Observation{Index: out.idx, Cost: j.plan.Cost(out.idx)}
		if out.err == nil && out.payload != nil {
			if meas, merr := m.cfg.Measure(out.payload); merr == nil {
				obs.OK = true
				obs.Objective = objectiveValue(j.plan.Spec.Search.Objective, meas)
			}
		}
		sr.Observe(obs)
		if !out.restored {
			events = append(events, m.settlePoint(j, out.idx, out.label, out.err))
		}
	}
	snap := sr.Snapshot()
	j.mu.Lock()
	j.search = &snap
	j.mu.Unlock()
	for i := range events {
		events[i].BestSoFar = snap.Best
		events[i].Frontier = snap.Frontier[:min(len(snap.Frontier), searchEventFrontierCap)]
		m.publish(j, events[i])
	}
}

// attemptPoint is one point's retry loop — materialize the spec, run it
// with panic recovery and breaker observation, retry failures with
// jittered backoff. It does not touch job state; runBatch settles the
// outcome.
func (m *Manager) attemptPoint(j *job, idx int) (payload []byte, label string, err error) {
	spec, label, err := j.plan.Point(idx)
	if err != nil { // unreachable: every point validated at Compile
		return nil, label, err
	}
	var lastErr error
	for attempt := 0; attempt <= m.retries; attempt++ {
		if attempt > 0 {
			// Jittered exponential spacing: a transiently failing point is
			// not hammered at a fixed cadence, and retries across points
			// do not synchronize.
			select {
			case <-m.baseCtx.Done():
			case <-time.After(retryBackoff(m.retryDelay, attempt)):
			}
		}
		payload, runErr := m.safeRun(spec)
		if br := m.cfg.Breaker; br != nil {
			br.Observe(runErr)
		}
		if runErr == nil {
			return payload, label, nil
		}
		lastErr = runErr
		if m.baseCtx.Err() != nil {
			break // forced shutdown, not a point defect: stop retrying
		}
	}
	return nil, label, lastErr
}

// Checkpoint-write retry tuning: a handful of quick, jittered attempts
// rides out transient I/O errors without stalling the worker for long.
const (
	checkpointAttempts  = 3
	checkpointBaseDelay = 25 * time.Millisecond
)

// persistCheckpoint lands one computed point's checkpoint, retrying
// transient failures with jittered backoff. Persistence stays
// best-effort — the point's result is already in hand — but a
// checkpoint that never lands is not silent anymore: it degrades the
// campaign's durability, which the status and final manifest report.
func (m *Manager) persistCheckpoint(j *job, idx int, payload []byte) {
	st := m.cfg.Store
	if st == nil {
		return
	}
	key := pointKey(j.plan.ID, idx)
	var err error
	for attempt := 0; attempt < checkpointAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-m.baseCtx.Done():
			case <-time.After(retryBackoff(checkpointBaseDelay, attempt)):
			}
		}
		if err = st.Put(store.Campaigns, key, payload); err == nil {
			return
		}
		if errors.Is(err, store.ErrDegraded) {
			// The store is known read-only and heals on its own probe
			// clock, which runs far slower than these retries — stop.
			break
		}
	}
	j.mu.Lock()
	j.checkpointsLost++
	j.mu.Unlock()
}

// retryBackoff spaces retry attempt n (1-based): the base delay doubles
// per attempt up to 1s, with uniform jitter in [d/2, d].
func retryBackoff(base time.Duration, attempt int) time.Duration {
	d := resilience.Backoff(base, time.Second, attempt)
	if d <= 0 {
		return 0
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1)) //nolint:gosec // jitter, not crypto
}

// safeRun is the per-point fault boundary: a panicking point becomes a
// failed point, never a dead worker or a crashed daemon.
func (m *Manager) safeRun(spec scenario.Spec) (payload []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("campaign: point panicked: %v", r)
		}
	}()
	return m.cfg.Run(m.baseCtx, spec)
}

// settlePoint moves one dispatched point to a terminal state — computed
// when err is nil, failed otherwise — and returns the point event
// describing it, unpublished, so a search can enrich it with
// best-so-far/frontier snapshots before it goes out.
func (m *Manager) settlePoint(j *job, idx int, label string, err error) Event {
	st := PointComputed
	if err != nil {
		st = PointFailed
	}
	ev := Event{Type: EventPoint, Index: idx, Point: label, State: string(st)}
	j.mu.Lock()
	j.points[idx] = st
	j.running--
	if err == nil {
		j.computed++
	} else {
		j.failed++
		ev.Error = err.Error()
		if len(j.failures) < maxFailures {
			j.failures = append(j.failures, PointFailure{Index: idx, Point: label, Error: err.Error()})
		}
	}
	j.mu.Unlock()
	return ev
}

// finalize settles a campaign after its dispatcher stops. Three exits:
// done (all points terminal), cancelled (remaining points skipped), or
// manager shutdown with work left — in which case the job stays
// StateRunning and nothing final is persisted, so the next process
// resumes it from the manifest.
func (m *Manager) finalize(j *job) {
	id := j.plan.ID
	j.mu.Lock()
	pending := 0
	for _, ps := range j.points {
		if ps == PointPending {
			pending++
		}
	}
	cancelled := j.cancelled
	var stopped bool
	if j.plan.Spec.Search != nil {
		// A finished search leaves most of its domain unproposed on
		// purpose — those points are not "skipped" work, they are the
		// evaluations the search avoided; leave them pending. The campaign
		// is only resumable when the manager stopped before the policy
		// terminated.
		stopped = j.search != nil && j.search.Terminated == "" && !cancelled && isClosed(m.stopCh)
	} else {
		stopped = pending > 0 && !cancelled && isClosed(m.stopCh)
	}
	if !stopped {
		if pending > 0 && j.plan.Spec.Search == nil {
			for i, ps := range j.points {
				if ps == PointPending {
					j.points[i] = PointSkipped
				}
			}
			j.skipped += pending
		}
		if cancelled {
			j.state = StateCancelled
		} else {
			j.state = StateDone
		}
	}
	j.mu.Unlock()
	if stopped {
		// Process is exiting mid-campaign: close streams, leave the
		// durable state exactly as it is (manifest says running; the
		// checkpoints name what is already done).
		j.closeSubs()
		return
	}
	typ := EventDone
	if cancelled {
		typ = EventCancelled
	}
	m.publish(j, Event{Type: typ})
	j.closeSubs()
	// Settle durable state before closing done: a waiter waking on a
	// finished campaign must see the final manifest and released pins.
	if st := m.cfg.Store; st != nil {
		final := j.status()
		m.persistManifest(j, manifest{
			Spec:       j.plan.Spec,
			Created:    j.created.UTC().Format(time.RFC3339),
			Cancelled:  cancelled,
			Durability: final.Durability,
			Final:      &final,
		})
		st.Unpin(store.Campaigns, manifestKey(id))
		for i := 0; i < j.plan.Total; i++ {
			st.Unpin(store.Campaigns, pointKey(id, i))
		}
	}
	close(j.done)
}

func (j *job) closeSubs() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.subsClosed {
		return
	}
	j.subsClosed = true
	for _, ch := range j.subs {
		close(ch)
	}
	j.subs = nil
}

// isClosed reports whether a signal channel (stop, cancel) has fired.
func isClosed(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

func (m *Manager) persistManifest(j *job, man manifest) {
	st := m.cfg.Store
	if st == nil {
		return
	}
	blob, err := json.Marshal(man)
	if err != nil {
		return
	}
	_ = st.Put(store.Campaigns, manifestKey(j.plan.ID), blob)
}

// ResumeStored scans the store's campaign namespace and re-registers
// every campaign it finds: unfinished ones start running again
// (computing only uncheckpointed points — the restore scan picks up
// the checkpoints), finished or cancelled ones come back as terminal
// records so their status survives a restart. Manifests that fail to
// decode, fail validation under this build, or whose spec no longer
// hashes to their key are skipped, never fatal. Returns how many
// campaigns went back into execution.
func (m *Manager) ResumeStored() (int, error) {
	st := m.cfg.Store
	if st == nil {
		return 0, nil
	}
	resumed := 0
	for _, key := range st.Keys(store.Campaigns) {
		if !strings.HasSuffix(key, ".m") {
			continue
		}
		id := strings.TrimSuffix(key, ".m")
		raw, ok := st.Get(store.Campaigns, key)
		if !ok {
			continue
		}
		var man manifest
		if err := json.Unmarshal(raw, &man); err != nil {
			continue
		}
		plan, err := Compile(man.Spec)
		if err != nil || plan.ID != id {
			continue
		}
		if man.Cancelled || man.Final != nil {
			m.registerTerminal(plan, man)
			continue
		}
		if _, created, err := m.start(plan); err == nil && created {
			resumed++
		}
	}
	return resumed, nil
}

// registerTerminal re-registers a finished/cancelled campaign from its
// manifest, without dispatching anything.
func (m *Manager) registerTerminal(plan *Plan, man manifest) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	if _, ok := m.jobs[plan.ID]; ok {
		return
	}
	if err := m.evictForAdmitLocked(); err != nil {
		return
	}
	j := newJob(plan, time.Now())
	j.hasStore = true // registerTerminal only runs off a stored manifest
	j.state = StateCancelled
	if man.Final != nil {
		j.state = man.Final.State
		j.computed = man.Final.Computed
		j.restored = man.Final.Restored
		j.failed = man.Final.Failed
		j.skipped = man.Final.Skipped
		j.checkpointsLost = man.Final.CheckpointsLost
		j.failures = append(j.failures, man.Final.Failures...)
		j.search = man.Final.Search
		if !man.Final.Created.IsZero() {
			j.created = man.Final.Created
		}
	}
	if man.Cancelled {
		j.state = StateCancelled
		j.cancelled = true
	}
	j.subsClosed = true
	j.subs = nil
	close(j.done)
	m.jobs[plan.ID] = j
	m.order = append(m.order, plan.ID)
}

// Shutdown stops dispatching new points and waits for in-flight points
// to drain (their checkpoints land, so nothing finished is lost). If
// ctx expires first, point contexts are cancelled and the error is
// returned; either way the durable state stays resumable.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.stopOnce.Do(func() { close(m.stopCh) })
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		m.baseCancel()
		select {
		case <-done:
		case <-time.After(250 * time.Millisecond):
		}
		return fmt.Errorf("campaign: drain incomplete: %w", ctx.Err())
	}
}
