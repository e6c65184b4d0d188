package resilience

import (
	"errors"
	"sync"
	"testing"
	"time"
)

type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 8, 7, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestOpensAfterConsecutiveFailures(t *testing.T) {
	clock := newFakeClock()
	b := New(3, time.Minute, WithClock(clock.now))
	if b.State() != Closed {
		t.Fatalf("initial state = %v", b.State())
	}
	b.Failure()
	b.Failure()
	if b.Open() {
		t.Fatal("open below threshold")
	}
	b.Failure()
	if got := b.State(); got != Open {
		t.Fatalf("state after 3 failures = %v, want open", got)
	}
}

func TestSuccessResetsStreak(t *testing.T) {
	clock := newFakeClock()
	b := New(2, time.Minute, WithClock(clock.now))
	b.Failure()
	b.Success()
	b.Failure()
	if b.Open() {
		t.Fatal("non-consecutive failures opened the breaker")
	}
}

func TestCooldownThenHalfOpenProbe(t *testing.T) {
	clock := newFakeClock()
	b := New(1, time.Minute, WithClock(clock.now))
	b.Failure()
	if b.State() != Open {
		t.Fatal("not open after threshold")
	}
	clock.advance(59 * time.Second)
	if b.State() != Open {
		t.Fatal("closed before cooldown elapsed")
	}
	clock.advance(2 * time.Second)
	if got := b.State(); got != HalfOpen {
		t.Fatalf("state after cooldown = %v, want half-open", got)
	}
	if b.Open() {
		t.Fatal("half-open must admit a probe fill")
	}
	// A failed probe re-opens for a fresh cooldown.
	b.Failure()
	if b.State() != Open {
		t.Fatal("failed probe did not re-open")
	}
	clock.advance(61 * time.Second)
	// A successful probe closes.
	b.Success()
	if b.State() != Closed {
		t.Fatalf("state after successful probe = %v, want closed", b.State())
	}
}

func TestTripForcesOpen(t *testing.T) {
	clock := newFakeClock()
	b := New(5, time.Minute, WithClock(clock.now))
	b.Trip()
	if b.State() != Open {
		t.Fatalf("state after Trip = %v, want open", b.State())
	}
	b.Success()
	if b.State() != Closed {
		t.Fatalf("state after Success = %v, want closed", b.State())
	}
}

func TestObserve(t *testing.T) {
	clock := newFakeClock()
	b := New(1, time.Minute, WithClock(clock.now))
	b.Observe(nil)
	if b.State() != Closed {
		t.Fatal("success opened the breaker")
	}
	b.Observe(errors.New("boom"))
	if b.State() != Open {
		t.Fatal("error did not open the breaker")
	}
}

func TestDefensiveDefaults(t *testing.T) {
	b := New(0, 0)
	b.Failure() // threshold raised to 1
	if !b.Open() {
		t.Fatal("threshold 0 did not clamp to 1")
	}
}

func TestConcurrentOutcomesAreRaceFree(t *testing.T) {
	b := New(3, time.Millisecond)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				if (i+j)%2 == 0 {
					b.Failure()
				} else {
					b.Success()
				}
				b.State()
			}
		}(i)
	}
	wg.Wait()
}

func TestExponentialBackoffCooldown(t *testing.T) {
	clock := newFakeClock()
	b := New(2, time.Second, WithClock(clock.now), WithMaxCooldown(4*time.Second))
	b.Failure()
	b.Failure() // first open: 1s cooldown
	if b.State() != Open {
		t.Fatal("not open after threshold")
	}
	clock.advance(time.Second)
	if b.State() != HalfOpen {
		t.Fatal("not half-open after base cooldown")
	}
	b.Failure() // failed probe: second open, 2s cooldown
	clock.advance(time.Second)
	if b.State() != Open {
		t.Fatal("cooldown did not double after a failed probe")
	}
	clock.advance(time.Second)
	if b.State() != HalfOpen {
		t.Fatal("not half-open after the doubled cooldown")
	}
	b.Failure() // third open: would be 4s
	b.Failure() // extra failure while open extends, but does not re-escalate
	clock.advance(4 * time.Second)
	if b.State() != HalfOpen {
		t.Fatal("not half-open after the 4s cooldown")
	}
	b.Failure() // fourth open: clamped to the 4s max
	clock.advance(4*time.Second - time.Millisecond)
	if b.State() != Open {
		t.Fatal("cooldown escaped the max clamp")
	}
	clock.advance(time.Millisecond)
	if b.State() != HalfOpen {
		t.Fatal("not half-open at the clamped max")
	}
	// A success resets the escalation: the next trip is back to base.
	b.Success()
	b.Failure()
	b.Failure()
	clock.advance(time.Second)
	if b.State() != HalfOpen {
		t.Fatal("escalation survived a success")
	}
}

func TestFixedCooldownWithoutBackoffOption(t *testing.T) {
	clock := newFakeClock()
	b := New(1, time.Second, WithClock(clock.now))
	for i := 0; i < 4; i++ {
		b.Failure()
		clock.advance(time.Second)
		if b.State() != HalfOpen {
			t.Fatalf("trip %d: cooldown drifted without WithMaxCooldown", i)
		}
	}
}

func TestBackoff(t *testing.T) {
	ms := time.Millisecond
	for _, tc := range []struct {
		base, ceiling time.Duration
		attempt       int
		want          time.Duration
	}{
		{50 * ms, time.Second, 0, 50 * ms},
		{50 * ms, time.Second, 1, 50 * ms},
		{50 * ms, time.Second, 2, 100 * ms},
		{50 * ms, time.Second, 5, 800 * ms},
		// The ceiling is an exact clamp, not a stop-doubling threshold:
		// 800ms doubles to 1.6s and is clamped back to 1s.
		{50 * ms, time.Second, 6, time.Second},
		{300 * ms, time.Second, 3, time.Second},
		{50 * ms, time.Second, 1000, time.Second},
		{2 * time.Second, time.Second, 1, time.Second},
		{0, time.Second, 4, 0},
	} {
		if got := Backoff(tc.base, tc.ceiling, tc.attempt); got != tc.want {
			t.Errorf("Backoff(%v, %v, %d) = %v, want %v", tc.base, tc.ceiling, tc.attempt, got, tc.want)
		}
	}
}
