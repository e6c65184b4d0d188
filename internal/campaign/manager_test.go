package campaign

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"tensortee/internal/faultinject"
	"tensortee/internal/resilience"
	"tensortee/internal/scenario"
	"tensortee/internal/store"
)

// countingRun is a RunFunc double that tallies attempts per point label
// and lets tests inject failures, panics and blocking.
type countingRun struct {
	mu    sync.Mutex
	calls map[string]int
	// behave, when set, decides the outcome per call (after counting).
	behave func(label string, attempt int) ([]byte, error)
}

func newCountingRun() *countingRun {
	return &countingRun{calls: make(map[string]int)}
}

// label extracts the bracketed axis label a Plan stamps into the spec name.
func pointLabel(spec scenario.Spec) string {
	if i := strings.IndexByte(spec.Name, '['); i >= 0 {
		return strings.TrimSuffix(spec.Name[i+1:], "]")
	}
	return spec.Name
}

func (c *countingRun) run(_ context.Context, spec scenario.Spec) ([]byte, error) {
	label := pointLabel(spec)
	c.mu.Lock()
	c.calls[label]++
	attempt := c.calls[label]
	behave := c.behave
	c.mu.Unlock()
	if behave != nil {
		return behave(label, attempt)
	}
	return []byte("result:" + label), nil
}

func (c *countingRun) count(label string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls[label]
}

func (c *countingRun) total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, v := range c.calls {
		n += v
	}
	return n
}

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	return st
}

func gridSpec(n int) Spec {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	return Spec{
		Name: "grid",
		Base: tinyBase(),
		Axes: []Axis{{Axis: "layers", Values: vals}},
	}
}

func waitTerminal(t *testing.T, m *Manager, id string) Status {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := m.Wait(ctx, id)
	if err != nil {
		t.Fatalf("Wait(%s): %v (status %+v)", id, err, st)
	}
	return st
}

func TestCampaignRunsToCompletionAndCheckpoints(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	run := newCountingRun()
	m := NewManager(Config{Run: run.run, Store: st, Workers: 3})
	defer m.Shutdown(context.Background())

	status, created, err := m.Start(gridSpec(6))
	if err != nil || !created {
		t.Fatalf("Start: created=%v err=%v", created, err)
	}
	final := waitTerminal(t, m, status.ID)
	if final.State != StateDone || final.Computed != 6 || final.Failed != 0 || final.Done != 6 {
		t.Fatalf("final = %+v", final)
	}
	if run.total() != 6 {
		t.Fatalf("run called %d times, want 6", run.total())
	}
	// Every point checkpointed; the manifest records the final status.
	for i := 0; i < 6; i++ {
		payload, ok := st.Get(store.Campaigns, pointKey(status.ID, i))
		if !ok {
			t.Fatalf("point %d not checkpointed", i)
		}
		if !strings.HasPrefix(string(payload), "result:layers=") {
			t.Fatalf("point %d payload = %q", i, payload)
		}
	}
	if _, ok := st.Get(store.Campaigns, manifestKey(status.ID)); !ok {
		t.Fatal("manifest missing")
	}
	// Terminal campaigns release their pins.
	if got := st.Stats().Pinned; got != 0 {
		t.Fatalf("pinned after completion = %d, want 0", got)
	}

	// Identical resubmission is a no-op returning the settled status.
	again, created, err := m.Start(gridSpec(6))
	if err != nil || created {
		t.Fatalf("resubmit: created=%v err=%v", created, err)
	}
	if again.State != StateDone || run.total() != 6 {
		t.Fatalf("resubmit recomputed: %+v, calls=%d", again, run.total())
	}
}

func TestPanickingPointFailsOnlyItself(t *testing.T) {
	run := newCountingRun()
	run.behave = func(label string, attempt int) ([]byte, error) {
		if label == "layers=2" {
			panic("poisoned point")
		}
		return []byte("ok"), nil
	}
	m := NewManager(Config{Run: run.run, Workers: 2, Retries: 1, RetryDelay: time.Millisecond})
	defer m.Shutdown(context.Background())

	status, _, err := m.Start(gridSpec(4))
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	final := waitTerminal(t, m, status.ID)
	if final.State != StateDone {
		t.Fatalf("state = %s, want done (failures never fail the campaign)", final.State)
	}
	if final.Computed != 3 || final.Failed != 1 {
		t.Fatalf("final = %+v", final)
	}
	// Bounded retry: the poisoned point was attempted exactly 1+Retries times.
	if got := run.count("layers=2"); got != 2 {
		t.Fatalf("poisoned point attempted %d times, want 2", got)
	}
	if len(final.Failures) != 1 || !strings.Contains(final.Failures[0].Error, "poisoned point") {
		t.Fatalf("failures = %+v", final.Failures)
	}
}

func TestRetryRecoversTransientFailure(t *testing.T) {
	run := newCountingRun()
	run.behave = func(label string, attempt int) ([]byte, error) {
		if label == "layers=1" && attempt == 1 {
			return nil, errors.New("transient")
		}
		return []byte("ok"), nil
	}
	m := NewManager(Config{Run: run.run, Workers: 1, Retries: 1, RetryDelay: time.Millisecond})
	defer m.Shutdown(context.Background())

	status, _, err := m.Start(gridSpec(3))
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	final := waitTerminal(t, m, status.ID)
	if final.Computed != 3 || final.Failed != 0 {
		t.Fatalf("final = %+v", final)
	}
	if got := run.count("layers=1"); got != 2 {
		t.Fatalf("flaky point attempted %d times, want 2", got)
	}
}

func TestCancelDrainsInFlightAndSkipsRest(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	gate := make(chan struct{})
	started := make(chan string, 16)
	run := newCountingRun()
	run.behave = func(label string, attempt int) ([]byte, error) {
		started <- label
		<-gate
		return []byte("ok:" + label), nil
	}
	m := NewManager(Config{Run: run.run, Store: st, Workers: 1})
	defer m.Shutdown(context.Background())

	status, _, err := m.Start(gridSpec(8))
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	// One point is in flight (worker=1); cancel while it blocks.
	var inFlight string
	select {
	case inFlight = <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("no point started")
	}
	if _, err := m.Cancel(status.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	close(gate) // let the in-flight point finish
	final := waitTerminal(t, m, status.ID)
	if final.State != StateCancelled {
		t.Fatalf("state = %s", final.State)
	}
	// The in-flight point drained to completion — and checkpointed —
	// rather than being aborted; everything never dispatched is skipped.
	if final.Computed != 1 || final.Skipped != 7 {
		t.Fatalf("final = %+v", final)
	}
	if _, ok := st.Get(store.Campaigns, pointKey(status.ID, 0)); !ok {
		t.Fatalf("drained point %s not checkpointed", inFlight)
	}
	// Cancelling again is idempotent.
	st2, err := m.Cancel(status.ID)
	if err != nil || st2.State != StateCancelled {
		t.Fatalf("second cancel: %+v err=%v", st2, err)
	}
	// A cancelled campaign does not resurrect on resume.
	m2 := NewManager(Config{Run: run.run, Store: openStore(t, dir)})
	defer m2.Shutdown(context.Background())
	resumed, err := m2.ResumeStored()
	if err != nil || resumed != 0 {
		t.Fatalf("ResumeStored after cancel: resumed=%d err=%v", resumed, err)
	}
	got, ok := m2.Status(status.ID)
	if !ok || got.State != StateCancelled {
		t.Fatalf("cancelled campaign lost across restart: %+v ok=%v", got, ok)
	}
}

func TestResumeComputesOnlyRemainingPoints(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	const total, before = 6, 3

	// First incarnation: compute `before` points, then stall; a forced
	// shutdown simulates the crash (durable state is identical — the
	// manifest says running, `before` checkpoints are on disk).
	run1 := newCountingRun()
	reached := make(chan struct{})
	var once sync.Once
	run1.behave = func(label string, attempt int) ([]byte, error) {
		if run1.total() > before {
			once.Do(func() { close(reached) })
			select {} // wedge forever; forced shutdown abandons it
		}
		return []byte("one:" + label), nil
	}
	m1 := NewManager(Config{Run: run1.run, Store: st, Workers: 1})
	status, _, err := m1.Start(gridSpec(total))
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	select {
	case <-reached:
	case <-time.After(10 * time.Second):
		t.Fatal("campaign never reached the wedge point")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := m1.Shutdown(ctx); err == nil {
		t.Fatal("forced shutdown should report an incomplete drain")
	}

	// Second incarnation over the same store: resume must restore the
	// checkpointed prefix and compute only the rest.
	run2 := newCountingRun()
	m2 := NewManager(Config{Run: run2.run, Store: openStore(t, dir), Workers: 2})
	defer m2.Shutdown(context.Background())
	resumed, err := m2.ResumeStored()
	if err != nil || resumed != 1 {
		t.Fatalf("ResumeStored: resumed=%d err=%v", resumed, err)
	}
	final := waitTerminal(t, m2, status.ID)
	if final.State != StateDone {
		t.Fatalf("final state = %s", final.State)
	}
	if final.Restored != before || final.Computed != total-before || final.Failed != 0 {
		t.Fatalf("final = %+v, want restored=%d computed=%d", final, before, total-before)
	}
	if run2.total() != total-before {
		t.Fatalf("second incarnation ran %d points, want %d", run2.total(), total-before)
	}
	// The restored points' payloads are the first incarnation's bytes.
	for i := 0; i < before; i++ {
		payload, ok := m2.cfg.Store.Get(store.Campaigns, pointKey(status.ID, i))
		if !ok || !strings.HasPrefix(string(payload), "one:") {
			t.Fatalf("point %d payload = %q ok=%v", i, payload, ok)
		}
	}
}

func TestResumeSkipsGarbageManifests(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	// Not JSON at all.
	if err := st.Put(store.Campaigns, "deadbeef.m", []byte("not json")); err != nil {
		t.Fatal(err)
	}
	// Valid JSON whose spec does not hash to its key.
	blob := []byte(`{"spec":{"name":"x","base":{"model":{"layers":2,"hidden":256,"heads":4},"systems":[{"kind":"non-secure"}]},"axes":[{"axis":"layers","values":[1]}]}}`)
	if err := st.Put(store.Campaigns, strings.Repeat("ab", 16)+".m", blob); err != nil {
		t.Fatal(err)
	}
	run := newCountingRun()
	m := NewManager(Config{Run: run.run, Store: st})
	defer m.Shutdown(context.Background())
	resumed, err := m.ResumeStored()
	if err != nil || resumed != 0 {
		t.Fatalf("resumed=%d err=%v", resumed, err)
	}
	if run.total() != 0 {
		t.Fatalf("garbage manifest triggered %d computations", run.total())
	}
}

func TestEventsStreamTerminatesAndCounts(t *testing.T) {
	subscribed := make(chan struct{})
	run := newCountingRun()
	run.behave = func(label string, attempt int) ([]byte, error) {
		<-subscribed // hold the first point until the stream is attached
		return []byte("ok"), nil
	}
	m := NewManager(Config{Run: run.run, Workers: 2})
	defer m.Shutdown(context.Background())

	status, _, err := m.Start(gridSpec(4))
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	ch, detach, err := m.Subscribe(status.ID)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	defer detach()
	close(subscribed)
	var last Event
	sawDone := false
	deadline := time.After(30 * time.Second)
	for !sawDone {
		select {
		case ev, ok := <-ch:
			if !ok {
				sawDone = true
				break
			}
			if ev.Seq <= last.Seq {
				t.Fatalf("events out of order: %d after %d", ev.Seq, last.Seq)
			}
			last = ev
		case <-deadline:
			t.Fatal("stream never terminated")
		}
	}
	if last.Type != EventDone || last.Done != 4 || last.Total != 4 {
		t.Fatalf("last event = %+v", last)
	}

	// Subscribing to a terminal campaign yields an already-closed channel.
	ch2, detach2, err := m.Subscribe(status.ID)
	if err != nil {
		t.Fatalf("Subscribe terminal: %v", err)
	}
	defer detach2()
	if _, ok := <-ch2; ok {
		t.Fatal("terminal subscription delivered an event")
	}
}

func TestOpenBreakerPausesDispatch(t *testing.T) {
	var mu sync.Mutex
	now := time.Now()
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	br := resilience.New(1, time.Hour, resilience.WithClock(clock))
	br.Trip()

	run := newCountingRun()
	m := NewManager(Config{Run: run.run, Workers: 1, Breaker: br, BreakerPoll: time.Millisecond})
	defer m.Shutdown(context.Background())
	status, _, err := m.Start(gridSpec(2))
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	if run.total() != 0 {
		t.Fatalf("dispatch ran %d points under an open breaker", run.total())
	}
	mu.Lock()
	now = now.Add(2 * time.Hour) // cooldown elapses; breaker half-opens
	mu.Unlock()
	final := waitTerminal(t, m, status.ID)
	if final.Computed != 2 {
		t.Fatalf("final = %+v", final)
	}
}

func TestManagerCapPrefersEvictingTerminalJobs(t *testing.T) {
	run := newCountingRun()
	gate := make(chan struct{})
	run.behave = func(label string, attempt int) ([]byte, error) {
		<-gate
		return []byte("ok"), nil
	}
	m := NewManager(Config{Run: run.run, Workers: 2, MaxJobs: 2})
	defer m.Shutdown(context.Background())

	mkSpec := func(i int) Spec {
		s := gridSpec(1)
		s.Name = fmt.Sprintf("job-%d", i)
		return s
	}
	st0, _, err := m.Start(mkSpec(0))
	if err != nil {
		t.Fatalf("job 0: %v", err)
	}
	if _, _, err := m.Start(mkSpec(1)); err != nil {
		t.Fatalf("job 1: %v", err)
	}
	// Both running: the cap refuses a third.
	if _, _, err := m.Start(mkSpec(2)); !errors.Is(err, ErrBusy) {
		t.Fatalf("job 2 error = %v, want ErrBusy", err)
	}
	// Once a tracked job is terminal, it is evicted to admit new work.
	close(gate)
	waitTerminal(t, m, st0.ID)
	var created bool
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, created, err = m.Start(mkSpec(2))
		if err == nil || !errors.Is(err, ErrBusy) || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err != nil || !created {
		t.Fatalf("job 2 after drain: created=%v err=%v", created, err)
	}
	if len(m.List()) != 2 {
		t.Fatalf("tracked jobs = %d, want 2", len(m.List()))
	}
}

func TestStartAfterShutdownFails(t *testing.T) {
	m := NewManager(Config{Run: newCountingRun().run})
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, _, err := m.Start(gridSpec(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Start after shutdown = %v, want ErrClosed", err)
	}
}

func TestCheckpointFailureDegradesDurability(t *testing.T) {
	// The manifest write succeeds, every later store write fails: the
	// classic disk-full-mid-campaign shape. The campaign must still
	// complete with exact counts — durability is what degrades, loudly.
	inj, err := faultinject.Parse("write:fail-after@1:enospc")
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir(), store.Options{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	run := newCountingRun()
	m := NewManager(Config{Run: run.run, Store: st, Workers: 2})
	defer m.Shutdown(context.Background())

	status, created, err := m.Start(gridSpec(4))
	if err != nil || !created {
		t.Fatalf("Start: created=%v err=%v", created, err)
	}
	final := waitTerminal(t, m, status.ID)
	if final.State != StateDone {
		t.Fatalf("state = %s, want done", final.State)
	}
	if final.Computed != 4 || final.Done != 4 || final.Failed != 0 {
		t.Fatalf("counts wrong under checkpoint failures: %+v", final)
	}
	if final.Durability != DurabilityDegraded {
		t.Errorf("durability = %q, want %q", final.Durability, DurabilityDegraded)
	}
	if final.CheckpointsLost != 4 {
		t.Errorf("checkpoints lost = %d, want 4", final.CheckpointsLost)
	}
}

func TestDurabilityFullAndNone(t *testing.T) {
	run := newCountingRun()
	m := NewManager(Config{Run: run.run, Store: openStore(t, t.TempDir()), Workers: 2})
	defer m.Shutdown(context.Background())
	status, _, err := m.Start(gridSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	if final := waitTerminal(t, m, status.ID); final.Durability != DurabilityFull {
		t.Errorf("durability with a healthy store = %q, want %q", final.Durability, DurabilityFull)
	}

	run2 := newCountingRun()
	m2 := NewManager(Config{Run: run2.run, Workers: 2})
	defer m2.Shutdown(context.Background())
	status2, _, err := m2.Start(gridSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	if final := waitTerminal(t, m2, status2.ID); final.Durability != DurabilityNone {
		t.Errorf("durability without a store = %q, want %q", final.Durability, DurabilityNone)
	}
}

func TestGridEventsStreamAsPointsSettle(t *testing.T) {
	subscribed := make(chan struct{})
	firstSeen := make(chan struct{})
	run := newCountingRun()
	run.behave = func(label string, attempt int) ([]byte, error) {
		switch label {
		case "layers=1":
			<-subscribed // hold the first point until the stream is attached
		case "layers=2":
			// An executor that publishes at batch end never lets this
			// point see the first point's event.
			select {
			case <-firstSeen:
			case <-time.After(10 * time.Second):
				return nil, errors.New("first point's event not published before the second point ran")
			}
		}
		return []byte("ok"), nil
	}
	m := NewManager(Config{Run: run.run, Workers: 1})
	defer m.Shutdown(context.Background())

	status, _, err := m.Start(gridSpec(3))
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	ch, detach, err := m.Subscribe(status.ID)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	defer detach()
	close(subscribed)
	var order []int
	for ev := range ch {
		if ev.Type != EventPoint {
			continue
		}
		if ev.BestSoFar != nil || ev.Frontier != nil {
			t.Fatalf("grid point event carries search fields: %+v", ev)
		}
		if len(order) == 0 && ev.Index == 0 {
			close(firstSeen)
		}
		order = append(order, ev.Index)
	}
	final := waitTerminal(t, m, status.ID)
	if final.Computed != 3 || final.Failed != 0 || final.Search != nil {
		t.Fatalf("final = %+v (failures %+v)", final, final.Failures)
	}
	if fmt.Sprint(order) != "[0 1 2]" {
		t.Fatalf("point events in order %v, want [0 1 2]", order)
	}
}

func TestCancelDuringBreakerPause(t *testing.T) {
	cases := []struct {
		name   string
		spec   Spec
		search bool
	}{
		{"grid", gridSpec(4), false},
		{"search", cacheEngineSpec(&SearchSpec{Mode: "target", Target: 3}), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The breaker's clock never advances: it stays open for the
			// whole test, so the dispatcher can only leave the pause by
			// noticing the cancel.
			br := resilience.New(1, time.Hour, resilience.WithClock(func() time.Time { return time.Unix(0, 0) }))
			br.Trip()
			run := newCountingRun()
			run.behave = synthBehave(monotoneObjective)
			m := NewManager(Config{Run: run.run, Measure: synthMeasure, Workers: 1, Breaker: br, BreakerPoll: time.Millisecond})
			defer m.Shutdown(context.Background())
			status, _, err := m.Start(tc.spec)
			if err != nil {
				t.Fatalf("Start: %v", err)
			}
			time.Sleep(20 * time.Millisecond)
			if _, err := m.Cancel(status.ID); err != nil {
				t.Fatalf("Cancel: %v", err)
			}
			final := waitTerminal(t, m, status.ID)
			if final.State != StateCancelled || run.total() != 0 || final.Computed != 0 {
				t.Fatalf("final = %+v, run calls = %d", final, run.total())
			}
			if !tc.search {
				if final.Skipped != final.Total || final.Search != nil {
					t.Fatalf("grid: skipped = %d of %d, search = %+v", final.Skipped, final.Total, final.Search)
				}
				return
			}
			if final.Skipped != 0 || final.Search == nil || final.Search.Terminated != "cancelled" {
				t.Fatalf("search: skipped = %d, search = %+v", final.Skipped, final.Search)
			}
		})
	}
}
