package fill

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tensortee/internal/resilience"
)

// gated returns a fill that counts its runs, reports each start on
// started (when non-nil), blocks until gate closes, and returns v.
func gated(runs *atomic.Int64, started chan<- string, gate <-chan struct{}, v string) func(context.Context) (string, error) {
	return func(context.Context) (string, error) {
		runs.Add(1)
		if started != nil {
			started <- v
		}
		<-gate
		return v, nil
	}
}

func TestConcurrentCallersFillOnce(t *testing.T) {
	var g Group[string, string]
	var runs atomic.Int64
	gate := make(chan struct{})
	const n = 16
	var wg sync.WaitGroup
	got := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := g.Do(context.Background(), "k", gated(&runs, nil, gate, "v"))
			if err != nil {
				t.Error(err)
			}
			got[i] = v
		}(i)
	}
	close(gate)
	wg.Wait()
	if r := runs.Load(); r != 1 {
		t.Fatalf("fill ran %d times for one key, want 1", r)
	}
	for i, v := range got {
		if v != "v" {
			t.Errorf("caller %d got %q", i, v)
		}
	}
	if v, err, ok := g.Peek("k"); !ok || err != nil || v != "v" {
		t.Errorf("Peek after fill = %q, %v, %v", v, err, ok)
	}
}

func TestCancelledWaiterDoesNotPoison(t *testing.T) {
	var g Group[string, string]
	gate := make(chan struct{})
	fillCtxErr := make(chan error, 1)
	var runs atomic.Int64
	fill := func(ctx context.Context) (string, error) {
		runs.Add(1)
		<-gate
		fillCtxErr <- ctx.Err()
		return "v", nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := g.Do(ctx, "k", fill)
		errc <- err
	}()
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: err = %v, want context.Canceled", err)
	}
	close(gate)
	if err := <-fillCtxErr; err != nil {
		t.Errorf("the waiter's cancellation reached the fill: %v", err)
	}
	v, err := g.Do(context.Background(), "k", fill)
	if err != nil || v != "v" {
		t.Fatalf("later caller = %q, %v; want the shared fill's value", v, err)
	}
	if r := runs.Load(); r != 1 {
		t.Errorf("fill ran %d times, want 1", r)
	}
}

func TestPanicBecomesErrorForEveryWaiter(t *testing.T) {
	br := resilience.New(2, time.Minute)
	g := Group[string, string]{Breaker: br}
	gate := make(chan struct{})
	fill := func(context.Context) (string, error) {
		<-gate
		panic("invariant broken")
	}
	const n = 4
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := g.Do(context.Background(), "k", fill)
			errs <- err
		}()
	}
	close(gate)
	for i := 0; i < n; i++ {
		if err := <-errs; err == nil || !strings.Contains(err.Error(), "invariant broken") {
			t.Errorf("waiter %d: err = %v, want the panic as an error", i, err)
		}
	}
	if _, err, ok := g.Peek("k"); !ok || err == nil {
		t.Errorf("the panic was not memoized: ok=%v err=%v", ok, err)
	}
	// Exactly one failure: below the threshold of two, and one more tips it.
	if s := br.State(); s != resilience.Closed {
		t.Fatalf("breaker %s after one panic, want closed (one failure of two)", s)
	}
	br.Failure()
	if s := br.State(); s != resilience.Open {
		t.Errorf("breaker %s after one more failure, want open (the panic counted once)", s)
	}
}

func TestConcurrencyBoundsFills(t *testing.T) {
	g := Group[string, string]{Concurrency: 2}
	var running, peak, runs atomic.Int64
	started := make(chan string, 6)
	gate := make(chan struct{})
	fill := func(v string) func(context.Context) (string, error) {
		return func(context.Context) (string, error) {
			runs.Add(1)
			n := running.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			started <- v
			<-gate
			running.Add(-1)
			return v, nil
		}
	}
	for i := 0; i < 6; i++ {
		k := fmt.Sprint(i)
		if err := g.Start(context.Background(), k, fill(k)); err != nil {
			t.Fatal(err)
		}
	}
	<-started
	<-started
	if !g.Saturated() {
		t.Error("two fills hold both slots but the group does not report saturation")
	}
	select {
	case k := <-started:
		t.Fatalf("fill %s started with both slots taken", k)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	for i := 0; i < 6; i++ {
		if _, err := g.Do(context.Background(), fmt.Sprint(i), fill("unused")); err != nil {
			t.Fatal(err)
		}
	}
	if p := peak.Load(); p != 2 {
		t.Errorf("peak concurrent fills = %d, want 2", p)
	}
	if r := runs.Load(); r != 6 {
		t.Errorf("fills = %d, want one per key", r)
	}
	if g.Saturated() {
		t.Error("saturated with every fill done")
	}
}

func TestCapEvictsCompletedKeepsInFlightRefusesWhenFull(t *testing.T) {
	g := Group[string, string]{Cap: 3}
	var runs atomic.Int64
	gates := map[string]chan struct{}{}
	for _, k := range []string{"a", "b", "c"} {
		gates[k] = make(chan struct{})
		if err := g.Start(context.Background(), k, gated(&runs, nil, gates[k], k)); err != nil {
			t.Fatalf("%s refused below the cap: %v", k, err)
		}
	}
	if err := g.Start(context.Background(), "new", gated(&runs, nil, nil, "new")); !errors.Is(err, ErrBusy) {
		t.Fatalf("new key with every slot filling: err = %v, want ErrBusy", err)
	}
	if n := g.Len(); n != 3 {
		t.Fatalf("entries = %d, want exactly the cap", n)
	}
	// A known key still resolves at the cap: callers join, nothing grows.
	if err := g.Start(context.Background(), "a", gated(&runs, nil, nil, "dup")); err != nil {
		t.Fatalf("existing key refused at the cap: %v", err)
	}
	close(gates["b"])
	if v, err := g.Do(context.Background(), "b", nil); err != nil || v != "b" {
		t.Fatalf("b = %q, %v", v, err)
	}
	newGate := make(chan struct{})
	if err := g.Start(context.Background(), "new", gated(&runs, nil, newGate, "new")); err != nil {
		t.Fatalf("new key once a completed entry was evictable: %v", err)
	}
	if _, _, ok := g.Peek("b"); ok {
		t.Error("completed entry b survived eviction")
	}
	if err := g.Start(context.Background(), "newer", gated(&runs, nil, nil, "newer")); !errors.Is(err, ErrBusy) {
		t.Fatalf("cap admitted a fourth in-flight fill: err = %v", err)
	}
	close(gates["a"])
	close(gates["c"])
	close(newGate)
	for _, k := range []string{"a", "c", "new"} {
		if v, err := g.Do(context.Background(), k, nil); err != nil || v != k {
			t.Errorf("in-flight %s = %q, %v; eviction must not disturb it", k, v, err)
		}
	}
	if r := runs.Load(); r != 4 {
		t.Errorf("fills = %d, want 4 (a, b, c, new)", r)
	}
}

func TestSeedRacingInFlightFillLeavesOneWinner(t *testing.T) {
	// Seed finishing first wins over the in-flight fill.
	var g Group[string, string]
	var runs atomic.Int64
	gate := make(chan struct{})
	started := make(chan string, 1)
	waiter := make(chan string, 1)
	go func() {
		v, _ := g.Do(context.Background(), "k", gated(&runs, started, gate, "filled"))
		waiter <- v
	}()
	<-started
	g.Seed("k", "seeded")
	if v := <-waiter; v != "seeded" {
		t.Errorf("waiter on the in-flight fill got %q, want the seed that finished first", v)
	}
	close(gate)
	if v, _ := g.Do(context.Background(), "k", nil); v != "seeded" {
		t.Errorf("after the fill landed: %q, want the seed to stay the winner", v)
	}
	// A seed arriving after completion changes nothing.
	g.Seed("k", "late")
	if v, _, _ := g.Peek("k"); v != "seeded" {
		t.Errorf("late seed overwrote the winner: %q", v)
	}

	// Truly concurrent: every observer agrees on a single value.
	for i := 0; i < 50; i++ {
		var g Group[string, string]
		var wg sync.WaitGroup
		got := make([]string, 4)
		for j := range got {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				got[j], _ = g.Do(context.Background(), "k", func(context.Context) (string, error) { return "filled", nil })
			}(j)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.Seed("k", "seeded")
		}()
		wg.Wait()
		final, _, ok := g.Peek("k")
		if !ok {
			t.Fatal("no outcome after every caller returned")
		}
		for j, v := range got {
			if v != final {
				t.Fatalf("run %d: caller %d saw %q, final value %q", i, j, v, final)
			}
		}
	}
}

func TestPeekHitDoesNotAllocate(t *testing.T) {
	var g Group[string, string]
	g.Seed("k", "v")
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, ok := g.Peek("k"); !ok {
			t.Fatal("miss")
		}
	})
	if allocs != 0 {
		t.Errorf("memory hit allocates %v times, want 0", allocs)
	}
	if _, _, ok := g.Peek("absent"); ok || g.Len() != 1 {
		t.Error("Peek of an absent key reported a hit or created an entry")
	}
}
