// Package fill is the keyed singleflight fill behind every in-memory
// cache of the runner and the daemon. A Group fills each key at most once:
// concurrent callers for the key share one fill, later callers read the
// memoized outcome, and the fill runs detached from the caller that
// started it, so a caller that gives up never poisons the entry for the
// ones that come after. Panic recovery, the concurrency bound, the
// circuit breaker and the entry cap live here once, for every cache.
package fill

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"tensortee/internal/resilience"
)

// ErrBusy reports that a capped Group is full of in-flight fills: no
// completed entry could be evicted to admit a new key.
var ErrBusy = errors.New("fill: every entry is still filling")

// Group is a keyed fill cache. The zero value is an unbounded Group with
// no concurrency limit and no breaker; set the exported fields before
// first use and do not copy a Group after it.
type Group[K comparable, V any] struct {
	// Cap bounds the number of entries (0: unbounded). A new key at the cap
	// evicts every completed entry; in-flight ones stay so their waiters
	// and singleflight are undisturbed. When nothing is evictable the key
	// is refused with ErrBusy, so neither the map nor the detached fill
	// goroutines can grow past Cap.
	Cap int
	// Concurrency bounds fills running at once (0: unbounded); a fill
	// beyond it queues for a slot.
	Concurrency int
	// Breaker, when non-nil, observes every fill: errors and panics count
	// as failures.
	Breaker *resilience.Breaker

	mu      sync.Mutex
	entries map[K]*entry[V]
	sem     chan struct{} // built on first fill when Concurrency > 0
}

type entry[V any] struct {
	done chan struct{} // closed once val and err are final
	val  V
	err  error
}

// Peek returns key's outcome when its fill has completed. It never
// creates an entry or starts a fill, so a caller that checks Peek first
// pays one lock, one map lookup and one channel check on a hit.
func (g *Group[K, V]) Peek(key K) (v V, err error, ok bool) {
	g.mu.Lock()
	e := g.entries[key]
	g.mu.Unlock()
	if e == nil {
		return v, nil, false
	}
	select {
	case <-e.done:
		return e.val, e.err, true
	default:
		return v, nil, false
	}
}

// Do returns key's value, starting fill when the key has no entry yet and
// otherwise joining the existing fill or reading its memoized outcome.
// Errors are memoized like values. ctx bounds only this caller's wait:
// when it ends first Do returns ctx.Err() and the fill runs on, under a
// context stripped of ctx's cancellation, for later callers.
func (g *Group[K, V]) Do(ctx context.Context, key K, fill func(context.Context) (V, error)) (V, error) {
	e, err := g.start(ctx, key, fill)
	if err != nil {
		var zero V
		return zero, err
	}
	select {
	case <-e.done:
		return e.val, e.err
	case <-ctx.Done():
		var zero V
		return zero, ctx.Err()
	}
}

// Start is Do without the wait: it starts key's fill unless an entry
// already exists, and returns at once.
func (g *Group[K, V]) Start(ctx context.Context, key K, fill func(context.Context) (V, error)) error {
	_, err := g.start(ctx, key, fill)
	return err
}

// Seed records an already-computed value for key. The first outcome to
// finish wins: Seed completes an in-flight entry (its waiters get v and
// the fill's outcome is discarded when it lands) and is a no-op on a
// completed one. A capped Group that is full of in-flight fills drops
// the value.
func (g *Group[K, V]) Seed(key K, v V) {
	g.mu.Lock()
	defer g.mu.Unlock()
	e, _, err := g.entryLocked(key)
	if err != nil {
		return
	}
	e.finishLocked(v, nil)
}

// Saturated reports whether a new fill would have to wait: the breaker is
// open or every concurrency slot is taken. It is a snapshot, which is what
// load shedding needs; a slot freeing just after merely sheds one request
// early.
func (g *Group[K, V]) Saturated() bool {
	if g.Breaker != nil && g.Breaker.Open() {
		return true
	}
	g.mu.Lock()
	sem := g.sem
	g.mu.Unlock()
	return sem != nil && len(sem) == cap(sem)
}

// Len reports the number of entries, in flight and completed.
func (g *Group[K, V]) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.entries)
}

func (g *Group[K, V]) start(ctx context.Context, key K, fill func(context.Context) (V, error)) (*entry[V], error) {
	g.mu.Lock()
	e, created, err := g.entryLocked(key)
	if g.sem == nil && g.Concurrency > 0 {
		g.sem = make(chan struct{}, g.Concurrency)
	}
	sem := g.sem
	g.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if created {
		go g.run(context.WithoutCancel(ctx), e, sem, fill)
	}
	return e, nil
}

// entryLocked returns key's entry, creating it (and reporting so) when
// absent, subject to Cap. Requires g.mu.
func (g *Group[K, V]) entryLocked(key K) (*entry[V], bool, error) {
	if e, ok := g.entries[key]; ok {
		return e, false, nil
	}
	if g.entries == nil {
		g.entries = make(map[K]*entry[V])
	}
	if g.Cap > 0 && len(g.entries) >= g.Cap {
		for k, e := range g.entries {
			select {
			case <-e.done:
				delete(g.entries, k)
			default: // still filling; keep
			}
		}
		if len(g.entries) >= g.Cap {
			return nil, false, ErrBusy
		}
	}
	e := &entry[V]{done: make(chan struct{})}
	g.entries[key] = e
	return e, true, nil
}

// run is one detached fill. The fill outlives the request that started
// it, so a panic (a validation gap reaching a simulator invariant) would
// take the whole process down; it becomes the entry's error instead.
func (g *Group[K, V]) run(ctx context.Context, e *entry[V], sem chan struct{}, fill func(context.Context) (V, error)) {
	var (
		v   V
		err error
	)
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("fill panicked: %v", p)
			if g.Breaker != nil {
				g.Breaker.Failure()
			}
		}
		g.mu.Lock()
		e.finishLocked(v, err)
		g.mu.Unlock()
	}()
	if sem != nil {
		sem <- struct{}{}
		defer func() { <-sem }()
	}
	v, err = fill(ctx)
	if g.Breaker != nil {
		g.Breaker.Observe(err)
	}
}

// finishLocked publishes the entry's outcome unless another one (a Seed
// or the fill) got there first. Requires the owning Group's mu.
func (e *entry[V]) finishLocked(v V, err error) {
	select {
	case <-e.done:
	default:
		e.val, e.err = v, err
		close(e.done)
	}
}
