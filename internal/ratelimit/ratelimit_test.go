package ratelimit

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"
)

// fakeClock is a settable time source shared by the refill tests.
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

func TestBurstThenReject(t *testing.T) {
	clock := newFakeClock()
	l := New(1, 3, WithClock(clock.now))
	for i := 0; i < 3; i++ {
		if ok, _ := l.Allow("c"); !ok {
			t.Fatalf("request %d within burst rejected", i)
		}
	}
	ok, retry := l.Allow("c")
	if ok {
		t.Fatal("fourth request allowed past a burst of 3")
	}
	if retry <= 0 || retry > time.Second {
		t.Errorf("retryAfter = %v, want (0, 1s] at 1 req/s", retry)
	}
}

func TestRefillRestoresTokens(t *testing.T) {
	clock := newFakeClock()
	l := New(2, 2, WithClock(clock.now)) // 2 tokens/s, burst 2
	l.Allow("c")
	l.Allow("c")
	if ok, _ := l.Allow("c"); ok {
		t.Fatal("empty bucket allowed a request")
	}
	clock.advance(500 * time.Millisecond) // accrues exactly 1 token
	if ok, _ := l.Allow("c"); !ok {
		t.Fatal("refilled token not granted")
	}
	if ok, _ := l.Allow("c"); ok {
		t.Fatal("second request granted from a single refilled token")
	}
	clock.advance(10 * time.Second) // refill caps at burst
	for i := 0; i < 2; i++ {
		if ok, _ := l.Allow("c"); !ok {
			t.Fatalf("request %d after long idle rejected", i)
		}
	}
	if ok, _ := l.Allow("c"); ok {
		t.Fatal("refill exceeded burst capacity")
	}
}

func TestKeysAreIndependent(t *testing.T) {
	clock := newFakeClock()
	l := New(1, 1, WithClock(clock.now))
	if ok, _ := l.Allow("a"); !ok {
		t.Fatal("first request for a rejected")
	}
	if ok, _ := l.Allow("a"); ok {
		t.Fatal("a's empty bucket allowed a request")
	}
	if ok, _ := l.Allow("b"); !ok {
		t.Fatal("b penalized for a's traffic")
	}
}

func TestRetryAfterShrinksAsTokensAccrue(t *testing.T) {
	clock := newFakeClock()
	l := New(0.5, 1, WithClock(clock.now)) // one token per 2s
	l.Allow("c")
	_, r1 := l.Allow("c")
	clock.advance(time.Second)
	_, r2 := l.Allow("c")
	if !(r2 < r1) {
		t.Errorf("retryAfter did not shrink: %v then %v", r1, r2)
	}
}

// TestEvictionPrefersIdleBuckets pins the memory bound: at the key cap,
// fully-refilled buckets (idle clients) are dropped and insertion still
// succeeds; an active client's bucket survives.
func TestEvictionPrefersIdleBuckets(t *testing.T) {
	clock := newFakeClock()
	l := New(1, 2, WithClock(clock.now))
	l.maxKeys = 4
	for i := 0; i < 4; i++ {
		l.Allow(fmt.Sprintf("idle-%d", i))
	}
	// Keep one client active and drained while the others refill.
	l.Allow("idle-0")
	l.Allow("idle-0") // idle-0 now empty
	clock.advance(10 * time.Second)
	if ok, _ := l.Allow("new"); !ok {
		t.Fatal("insertion at cap rejected")
	}
	if n := l.Keys(); n > 4 {
		t.Errorf("keys = %d, cap is 4", n)
	}
	// idle-0 refilled along with everything else during the 10s advance,
	// so it was evictable too; the invariant is the cap, not membership.
}

// TestEvictionFallsBackToOldest pins that insertion succeeds even when no
// bucket is idle: the least-recently-touched one goes.
func TestEvictionFallsBackToOldest(t *testing.T) {
	clock := newFakeClock()
	l := New(0.001, 1000, WithClock(clock.now)) // effectively never refills
	l.maxKeys = 2
	l.Allow("old")
	clock.advance(time.Second)
	l.Allow("newer")
	clock.advance(time.Second)
	if ok, _ := l.Allow("newest"); !ok {
		t.Fatal("insertion at cap rejected with no idle buckets")
	}
	if n := l.Keys(); n != 2 {
		t.Errorf("keys = %d, want 2", n)
	}
}

func TestClientKey(t *testing.T) {
	req := func(remote, xff string) *http.Request {
		r := httptest.NewRequest(http.MethodGet, "/", nil)
		r.RemoteAddr = remote
		if xff != "" {
			r.Header.Set("X-Forwarded-For", xff)
		}
		return r
	}
	cases := []struct {
		name    string
		remote  string
		xff     string
		trusted int
		want    string
	}{
		{"no proxies: TCP peer, port stripped", "10.0.0.9:4411", "1.2.3.4", 0, "10.0.0.9"},
		{"one proxy: last XFF entry", "127.0.0.1:80", "9.9.9.9, 1.2.3.4", 1, "1.2.3.4"},
		{"two proxies: second from end", "127.0.0.1:80", "6.6.6.6, 1.2.3.4, 10.0.0.2", 2, "1.2.3.4"},
		{"depth exceeds header: leftmost", "127.0.0.1:80", "1.2.3.4", 3, "1.2.3.4"},
		{"trusted but header absent: TCP peer", "10.0.0.9:4411", "", 1, "10.0.0.9"},
		{"unsplittable remote passes through", "unix-socket", "", 0, "unix-socket"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := ClientKey(req(tc.remote, tc.xff), tc.trusted); got != tc.want {
				t.Errorf("ClientKey = %q, want %q", got, tc.want)
			}
		})
	}
}

func TestMiddlewareRejectsWith429AndRetryAfter(t *testing.T) {
	clock := newFakeClock()
	l := New(1, 2, WithClock(clock.now))
	var allowed, rejected int
	h := Middleware(
		http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) }),
		l,
		func(r *http.Request) string { return ClientKey(r, 0) },
		func(ok bool) {
			if ok {
				allowed++
			} else {
				rejected++
			}
		},
	)
	ts := httptest.NewServer(h)
	defer ts.Close()

	var last *http.Response
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		last = resp
	}
	if last.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third request = %d, want 429", last.StatusCode)
	}
	ra, err := strconv.Atoi(last.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Errorf("Retry-After = %q, want integer >= 1", last.Header.Get("Retry-After"))
	}
	if allowed != 2 || rejected != 1 {
		t.Errorf("decisions = %d allowed / %d rejected, want 2/1", allowed, rejected)
	}
}

func TestRetryAfterJitterBounds(t *testing.T) {
	// The hint must stay within [base, base+max(1,base/2)] and actually
	// spread: a fleet of shed clients honoring one fixed value would
	// retry in lockstep.
	for _, base := range []int{0, 1, 10, 30} {
		lo := base
		if lo < 1 {
			lo = 1
		}
		span := lo / 2
		if span < 1 {
			span = 1
		}
		seen := make(map[int]bool)
		for i := 0; i < 200; i++ {
			v, err := strconv.Atoi(RetryAfter(base))
			if err != nil {
				t.Fatalf("RetryAfter(%d) not an integer: %v", base, err)
			}
			if v < lo || v > lo+span {
				t.Fatalf("RetryAfter(%d) = %d, want within [%d, %d]", base, v, lo, lo+span)
			}
			seen[v] = true
		}
		if len(seen) < 2 {
			t.Errorf("RetryAfter(%d) never varied across 200 draws", base)
		}
	}
}

func TestMiddlewareExemptsEmptyKey(t *testing.T) {
	clock := newFakeClock()
	l := New(1, 1, WithClock(clock.now))
	h := Middleware(
		http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) }),
		l,
		func(r *http.Request) string {
			if r.URL.Path == "/healthz" {
				return ""
			}
			return "everyone"
		},
		nil,
	)
	ts := httptest.NewServer(h)
	defer ts.Close()
	for i := 0; i < 5; i++ {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("exempt request %d = %d, want 200", i, resp.StatusCode)
		}
	}
}

func TestConcurrentAllowIsRaceFree(t *testing.T) {
	l := New(1000, 100)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", i%3)
			for j := 0; j < 200; j++ {
				l.Allow(key)
			}
		}(i)
	}
	wg.Wait()
}
