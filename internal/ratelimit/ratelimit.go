// Package ratelimit provides tensorteed's per-client fairness layer: a
// token-bucket limiter keyed by client address, plus the HTTP middleware
// that turns an exhausted bucket into 429 Too Many Requests with a
// Retry-After hint.
//
// The limiter is deliberately small: one bucket per key, lazy refill on
// access (no background goroutine), and a hard cap on tracked keys so an
// address-spraying client cannot grow the map without bound. Keys whose
// buckets have fully refilled are idle by definition and are the first
// evicted at the cap.
package ratelimit

import (
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// RetryAfter renders a Retry-After header value with jitter: a uniform
// draw from [base, base+base/2] seconds (minimum spread of one second).
// Every shed response — 429s here, the serving tier's 503 arms — goes
// through this: when a recovering daemon sheds a burst of clients with
// one fixed hint, they all come back in the same second and knock it
// over again; the spread de-synchronizes the retry wave.
func RetryAfter(base int) string {
	if base < 1 {
		base = 1
	}
	span := base / 2
	if span < 1 {
		span = 1
	}
	return strconv.Itoa(base + rand.IntN(span+1))
}

// DefaultMaxKeys bounds the number of client buckets tracked at once.
// Past the cap, fully-refilled (idle) buckets are evicted first, then the
// least-recently-touched one — so a spray of spoofed source addresses
// degrades fairness granularity, never memory.
const DefaultMaxKeys = 8192

// bucket is one client's token balance. tokens counts fractional tokens
// up to the burst size; last is the refill watermark.
type bucket struct {
	tokens float64
	last   time.Time
}

// Limiter is a per-key token-bucket rate limiter. Each key accrues
// `rate` tokens per second up to `burst`; an Allow spends one token.
// Safe for concurrent use.
type Limiter struct {
	rate    float64 // tokens per second
	burst   float64 // bucket capacity
	maxKeys int
	now     func() time.Time

	mu      sync.Mutex
	buckets map[string]*bucket
}

// Option customizes a Limiter.
type Option func(*Limiter)

// WithClock substitutes the time source (tests).
func WithClock(now func() time.Time) Option {
	return func(l *Limiter) { l.now = now }
}

// New builds a Limiter granting each key `rate` requests per second with
// bursts up to `burst` (burst < 1 is raised to 1: a bucket that can never
// hold a whole token would reject everything). rate must be positive —
// callers disable limiting by not installing the middleware, not with a
// zero rate.
func New(rate float64, burst int, opts ...Option) *Limiter {
	if rate <= 0 {
		panic("ratelimit: rate must be positive")
	}
	if burst < 1 {
		burst = 1
	}
	l := &Limiter{
		rate:    rate,
		burst:   float64(burst),
		maxKeys: DefaultMaxKeys,
		now:     time.Now,
		buckets: make(map[string]*bucket),
	}
	for _, o := range opts {
		o(l)
	}
	return l
}

// Allow spends one token from key's bucket. When the bucket is empty it
// reports false plus how long until the next token accrues — the value
// the middleware surfaces as Retry-After.
func (l *Limiter) Allow(key string) (ok bool, retryAfter time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	b := l.buckets[key]
	if b == nil {
		if len(l.buckets) >= l.maxKeys {
			l.evictLocked(now)
		}
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[key] = b
	} else {
		b.tokens = math.Min(l.burst, b.tokens+now.Sub(b.last).Seconds()*l.rate)
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, time.Duration((1 - b.tokens) / l.rate * float64(time.Second))
}

// Keys reports how many client buckets are currently tracked.
func (l *Limiter) Keys() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buckets)
}

// evictLocked frees map slots at the cap: every bucket that would be full
// after refill is idle (its owner has not sent a request for at least
// burst/rate seconds) and is dropped; if none qualify, the single
// least-recently-touched bucket goes, so insertion always succeeds.
func (l *Limiter) evictLocked(now time.Time) {
	var oldestKey string
	var oldest time.Time
	for k, b := range l.buckets {
		if b.tokens+now.Sub(b.last).Seconds()*l.rate >= l.burst {
			delete(l.buckets, k)
			continue
		}
		if oldestKey == "" || b.last.Before(oldest) {
			oldestKey, oldest = k, b.last
		}
	}
	if len(l.buckets) >= l.maxKeys && oldestKey != "" {
		delete(l.buckets, oldestKey)
	}
}

// ClientKey extracts the client address a request should be limited (and
// logged) under. With trustedProxies == 0 the TCP peer address is the
// client. With N > 0, the daemon sits behind N trusted reverse proxies,
// each appending its peer to X-Forwarded-For — so the client is the Nth
// entry from the end; earlier entries are unverified client input and are
// ignored. A missing or too-short header falls back to the leftmost
// entry, then to the TCP peer.
func ClientKey(r *http.Request, trustedProxies int) string {
	if trustedProxies > 0 {
		if xff := r.Header.Get("X-Forwarded-For"); xff != "" {
			hops := strings.Split(xff, ",")
			i := len(hops) - trustedProxies
			if i < 0 {
				i = 0
			}
			if ip := strings.TrimSpace(hops[i]); ip != "" {
				return ip
			}
		}
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// Middleware enforces l in front of next: requests whose key is out of
// tokens answer 429 Too Many Requests with a jittered Retry-After hint
// (whole seconds, rounded up, at least 1; see RetryAfter for the
// spread). keyFn maps a request to its bucket
// key; returning "" exempts the request (liveness and metrics probes
// must stay reachable from saturating clients — that is when they are
// needed). onDecision, when non-nil, observes every verdict for the
// tensorteed_ratelimit_* counters.
func Middleware(next http.Handler, l *Limiter, keyFn func(*http.Request) string, onDecision func(allowed bool)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		key := keyFn(r)
		if key == "" {
			next.ServeHTTP(w, r)
			return
		}
		ok, retryAfter := l.Allow(key)
		if onDecision != nil {
			onDecision(ok)
		}
		if !ok {
			w.Header().Set("Retry-After", RetryAfter(int(math.Ceil(retryAfter.Seconds()))))
			http.Error(w, "rate limit exceeded; slow down", http.StatusTooManyRequests)
			return
		}
		next.ServeHTTP(w, r)
	})
}
