// Package resilience holds tensorteed's overload-protection primitives.
// Its circuit breaker watches the compute fill path: consecutive fill
// failures (errors, or panics degraded to errors) open the breaker, and
// while it is open the serving layer stops starting new computations and
// degrades to stale results from the persistent store instead.
package resilience

import (
	"sync"
	"time"
)

// State is the breaker's position.
type State string

const (
	// Closed: fills run normally.
	Closed State = "closed"
	// Open: the cooldown clock is running; no new fills start.
	Open State = "open"
	// HalfOpen: the cooldown elapsed; the next fill is a probe whose
	// outcome closes or re-opens the breaker.
	HalfOpen State = "half-open"
)

// Breaker is a consecutive-failure circuit breaker. It never blocks and
// never remembers successes beyond resetting the failure streak, so a
// healthy system pays one mutex per fill outcome. Safe for concurrent use.
type Breaker struct {
	threshold   int
	cooldown    time.Duration
	maxCooldown time.Duration // 0: fixed cooldown (no backoff)
	now         func() time.Time

	mu        sync.Mutex
	failures  int
	opens     int // consecutive opens without an intervening success
	openUntil time.Time
}

// Option customizes a Breaker.
type Option func(*Breaker)

// WithClock substitutes the time source (tests).
func WithClock(now func() time.Time) Option {
	return func(b *Breaker) { b.now = now }
}

// WithMaxCooldown enables exponential backoff: every fresh open without
// an intervening success — the initial trip, then each failed half-open
// probe — doubles the cooldown, up to max. A success resets the
// escalation along with the failure streak. A persistently dead
// dependency (a downed peer, say) is then probed at a geometrically
// decaying rate instead of once per fixed cooldown forever.
func WithMaxCooldown(max time.Duration) Option {
	return func(b *Breaker) { b.maxCooldown = max }
}

// New builds a Breaker that opens after `threshold` consecutive failures
// and stays open for `cooldown`. threshold < 1 is raised to 1; a
// non-positive cooldown gets a sane default (an open breaker that
// re-closes instantly would never shed load).
func New(threshold int, cooldown time.Duration, opts ...Option) *Breaker {
	if threshold < 1 {
		threshold = 1
	}
	if cooldown <= 0 {
		cooldown = 30 * time.Second
	}
	b := &Breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
	for _, o := range opts {
		o(b)
	}
	return b
}

// State reports the breaker's position.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.failures < b.threshold {
		return Closed
	}
	if b.now().Before(b.openUntil) {
		return Open
	}
	return HalfOpen
}

// Open reports whether new fills should be refused right now. Half-open
// is not open: the cooldown has elapsed and the next fill probes whether
// the failure cleared.
func (b *Breaker) Open() bool { return b.State() == Open }

// Success records a completed fill: the failure streak (and any cooldown
// escalation) resets and the breaker closes.
func (b *Breaker) Success() {
	b.mu.Lock()
	b.failures = 0
	b.opens = 0
	b.mu.Unlock()
}

// Failure records a failed fill. Reaching the threshold
// opens the breaker for a fresh cooldown — including from half-open,
// where a single failed probe re-opens it (escalating the cooldown when
// backoff is enabled).
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures++
	if b.failures >= b.threshold {
		b.reopenLocked()
	}
}

// reopenLocked starts (or extends) a cooldown. A fresh open — no
// cooldown currently running — escalates the backoff; failures landing
// while already open merely extend the current cooldown. Requires b.mu.
func (b *Breaker) reopenLocked() {
	if !b.now().Before(b.openUntil) {
		b.opens++
	}
	b.openUntil = b.now().Add(b.cooldownLocked())
}

// cooldownLocked is the effective cooldown under the current escalation.
// Requires b.mu.
func (b *Breaker) cooldownLocked() time.Duration {
	if b.maxCooldown <= 0 {
		return b.cooldown
	}
	return Backoff(b.cooldown, b.maxCooldown, b.opens)
}

// Backoff is the one exponential-backoff rule: attempt n (1-based) waits
// base * 2^(n-1), clamped to ceiling. Attempts below 1 wait base.
func Backoff(base, ceiling time.Duration, attempt int) time.Duration {
	d := base
	for i := 1; i < attempt && d < ceiling; i++ {
		d *= 2
	}
	return min(d, ceiling)
}

// Trip forces the breaker open for a full cooldown (tests and manual
// load-shedding).
func (b *Breaker) Trip() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = b.threshold
	b.reopenLocked()
}

// Observe records one fill outcome in a single call: a failure when err
// is non-nil, a success otherwise.
func (b *Breaker) Observe(err error) {
	if err != nil {
		b.Failure()
		return
	}
	b.Success()
}
