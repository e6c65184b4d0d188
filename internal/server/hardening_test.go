package server

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tensortee"
	"tensortee/internal/resilience"
	"tensortee/internal/store"
)

// warmStoreDir computes id once and persists it into a fresh store dir,
// returning the dir — the "previous daemon process" fixture the
// degradation tests serve stale from.
func warmStoreDir(t *testing.T, ids ...string) string {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	seed := tensortee.NewRunner(tensortee.WithStore(st))
	for _, id := range ids {
		if _, err := seed.Cached(context.Background(), id); err != nil {
			t.Fatalf("warming %s: %v", id, err)
		}
	}
	return dir
}

// newHardenedServer builds a Server over a store-backed runner with the
// given extra config applied.
func newHardenedServer(t *testing.T, dir string, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{MaxConcurrent: 1}
	if dir != "" {
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Runner = tensortee.NewRunner(tensortee.WithStore(st))
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// saturate occupies every -max-concurrent slot of the experiment fill
// group with a fill that blocks until the returned release func runs —
// the deterministic stand-in for "every slot holds a cold heavy fill".
func saturate(t *testing.T, s *Server) (release func()) {
	t.Helper()
	n := s.results.Concurrency
	if n == 0 {
		t.Fatal("server has no compute bound to saturate")
	}
	gate := make(chan struct{})
	held := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		if err := s.results.Start(context.Background(), fmt.Sprintf("saturate-%d", i), func(context.Context) (*memo, error) {
			held <- struct{}{}
			<-gate
			return nil, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		<-held
	}
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	return release
}

// TestSaturatedWarmStoreServesStale pins the acceptance criterion: with
// -max-concurrent saturated and a warm store dir, a GET of a previously
// computed experiment answers 200 with a stale Warning — never a 503 —
// and the metrics count the stale tier.
func TestSaturatedWarmStoreServesStale(t *testing.T) {
	dir := warmStoreDir(t, "tab2")
	s, ts := newHardenedServer(t, dir, nil)
	release := saturate(t, s)

	resp, body := get(t, ts.URL+"/v1/experiments/tab2?format=json", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("saturated warm GET = %d (%s), want 200", resp.StatusCode, body)
	}
	if warn := resp.Header.Get("Warning"); !strings.HasPrefix(warn, "110 ") {
		t.Errorf("Warning = %q, want a 110 stale marker", warn)
	}
	if tier := resp.Header.Get("X-Cache"); tier != "stale" {
		t.Errorf("X-Cache = %q, want stale", tier)
	}
	if !strings.Contains(body, `"id": "tab2"`) {
		t.Errorf("stale body is not the tab2 result:\n%.200s", body)
	}
	if etag := resp.Header.Get("ETag"); etag == "" {
		t.Error("stale response lost its ETag")
	}
	_, metrics := get(t, ts.URL+"/metrics", nil)
	if !strings.Contains(metrics, "tensorteed_stale_serves_total 1") {
		t.Errorf("stale serve not counted:\n%s", metrics)
	}

	// Once the saturation clears, the background revalidation completes
	// and the same URL serves warm — no Warning, non-stale tier.
	release()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, _ = get(t, ts.URL+"/v1/experiments/tab2?format=json", nil)
		if resp.Header.Get("Warning") == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("response still stale after saturation cleared")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if tier := resp.Header.Get("X-Cache"); tier == "stale" || tier == "" {
		t.Errorf("post-saturation X-Cache = %q, want a warm tier", tier)
	}
}

// TestSaturatedColdStoreSheds503 pins the other half of the degradation
// contract: with nothing persisted, saturation answers 503 + Retry-After
// instead of queueing, and the reject tier is counted.
func TestSaturatedColdStoreSheds503(t *testing.T) {
	s, ts := newHardenedServer(t, t.TempDir(), nil) // store enabled but empty
	saturate(t, s)

	resp, _ := get(t, ts.URL+"/v1/experiments/tab2?format=json", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated cold GET = %d, want 503", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("Retry-After = %q, want integer >= 1", resp.Header.Get("Retry-After"))
	}
	_, metrics := get(t, ts.URL+"/metrics", nil)
	if !strings.Contains(metrics, "tensorteed_saturation_rejects_total 1") {
		t.Errorf("saturation reject not counted:\n%s", metrics)
	}
}

// TestSaturatedWithoutStoreSheds503 covers the no-persistence daemon:
// same shedding, no stale tier to fall back to.
func TestSaturatedWithoutStoreSheds503(t *testing.T) {
	s := New(Config{Runner: tensortee.NewRunner(), MaxConcurrent: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	saturate(t, s)
	resp, _ := get(t, ts.URL+"/v1/experiments/tab2", nil)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("saturated storeless GET = %d (Retry-After %q), want 503 with hint",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

// TestBreakerOpenDegrades pins the circuit-breaker trigger: an open
// breaker degrades exactly like a full semaphore — stale from a warm
// store, 503 from a cold one — and shows up in the breaker gauge.
func TestBreakerOpenDegrades(t *testing.T) {
	br := resilience.New(1, time.Hour)
	br.Trip()
	dir := warmStoreDir(t, "tab2")
	_, ts := newHardenedServer(t, dir, func(cfg *Config) { cfg.Breaker = br })

	// Warm id: stale 200 even though every semaphore slot is free.
	resp, _ := get(t, ts.URL+"/v1/experiments/tab2?format=json", nil)
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("Warning"), "110 ") {
		t.Fatalf("breaker-open warm GET = %d (Warning %q), want stale 200",
			resp.StatusCode, resp.Header.Get("Warning"))
	}
	// Cold id: shed.
	resp, _ = get(t, ts.URL+"/v1/experiments/hw?format=json", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("breaker-open cold GET = %d, want 503", resp.StatusCode)
	}
	_, metrics := get(t, ts.URL+"/metrics", nil)
	if !strings.Contains(metrics, "tensorteed_breaker_open 1") {
		t.Errorf("breaker gauge not open:\n%s", metrics)
	}

	// The breaker closing restores normal service.
	br.Success()
	resp, _ = get(t, ts.URL+"/v1/experiments/hw?format=json", nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Warning") != "" {
		t.Fatalf("breaker-closed GET = %d (Warning %q), want warm 200",
			resp.StatusCode, resp.Header.Get("Warning"))
	}
	_, metrics = get(t, ts.URL+"/metrics", nil)
	if !strings.Contains(metrics, "tensorteed_breaker_open 0") {
		t.Errorf("breaker gauge still open:\n%s", metrics)
	}
}

// TestRateLimitEndToEnd pins the limiter through the full middleware
// stack: burst admitted, excess answered 429 + Retry-After, decisions
// counted, probes exempt.
func TestRateLimitEndToEnd(t *testing.T) {
	s := New(Config{Runner: tensortee.NewRunner(), RateLimit: 1, RateBurst: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	_ = s

	var last *http.Response
	for i := 0; i < 3; i++ {
		last, _ = get(t, ts.URL+"/v1/experiments", nil)
	}
	if last.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third request = %d, want 429", last.StatusCode)
	}
	if ra, err := strconv.Atoi(last.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("Retry-After = %q, want integer >= 1", last.Header.Get("Retry-After"))
	}
	// Liveness and metrics probes stay reachable from a shed client.
	for i := 0; i < 3; i++ {
		if resp, _ := get(t, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz while limited = %d", resp.StatusCode)
		}
	}
	_, metrics := get(t, ts.URL+"/metrics", nil)
	if !strings.Contains(metrics, "tensorteed_ratelimit_allowed_total 2") ||
		!strings.Contains(metrics, "tensorteed_ratelimit_rejected_total 1") {
		t.Errorf("ratelimit counters wrong:\n%s", metrics)
	}
	// A 429 counts as an error in the request metrics too.
	if !strings.Contains(metrics, "tensorteed_errors_total 1") {
		t.Errorf("429 not counted as error:\n%s", metrics)
	}
}

// TestTrustedProxiesSplitBuckets pins per-client fairness behind a
// trusted proxy: distinct X-Forwarded-For clients get distinct buckets
// even though every TCP connection comes from the same address.
func TestTrustedProxiesSplitBuckets(t *testing.T) {
	s := New(Config{Runner: tensortee.NewRunner(), RateLimit: 0.001, RateBurst: 1, TrustedProxies: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	_ = s

	for i, client := range []string{"1.1.1.1", "2.2.2.2"} {
		resp, _ := get(t, ts.URL+"/v1/experiments", map[string]string{"X-Forwarded-For": client})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("client %d first request = %d, want 200", i, resp.StatusCode)
		}
	}
	// Each bucket is a single token; the same forwarded client repeats
	// and is shed, while a fresh one still gets through.
	resp, _ := get(t, ts.URL+"/v1/experiments", map[string]string{"X-Forwarded-For": "1.1.1.1"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("repeat forwarded client = %d, want 429", resp.StatusCode)
	}
	resp, _ = get(t, ts.URL+"/v1/experiments", map[string]string{"X-Forwarded-For": "3.3.3.3"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh forwarded client = %d, want 200", resp.StatusCode)
	}
}

// TestGzipContentEncoding pins compression of the large aggregate body:
// a gzip-accepting client gets gzip bytes that decode to exactly the
// identity representation; a refusing client gets identity.
func TestGzipContentEncoding(t *testing.T) {
	_, ts := newTestServer(t, 0)

	_, identity := get(t, ts.URL+"/v1/experiments/all?format=json", nil)
	resp, compressed := get(t, ts.URL+"/v1/experiments/all?format=json",
		map[string]string{"Accept-Encoding": "gzip"})
	if ce := resp.Header.Get("Content-Encoding"); ce != "gzip" {
		t.Fatalf("Content-Encoding = %q, want gzip", ce)
	}
	if cl, _ := strconv.Atoi(resp.Header.Get("Content-Length")); cl != len(compressed) {
		t.Errorf("Content-Length = %q, body is %d bytes", resp.Header.Get("Content-Length"), len(compressed))
	}
	if len(compressed) >= len(identity) {
		t.Errorf("gzip body (%d bytes) not smaller than identity (%d bytes)", len(compressed), len(identity))
	}
	zr, err := gzip.NewReader(strings.NewReader(compressed))
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if string(decoded) != identity {
		t.Error("gzip body does not decode to the identity representation")
	}

	// An explicit q=0 refusal gets identity.
	resp, body := get(t, ts.URL+"/v1/experiments/all?format=json",
		map[string]string{"Accept-Encoding": "gzip;q=0"})
	if ce := resp.Header.Get("Content-Encoding"); ce != "" {
		t.Errorf("Content-Encoding with q=0 = %q, want identity", ce)
	}
	if body != identity {
		t.Error("q=0 body differs from identity")
	}
}

// logBuffer is a goroutine-safe sink for the slog JSON handler.
type logBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *logBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *logBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestRequestLogging pins the structured request log: one record per
// request carrying method, path, status, bytes, duration, client and the
// cache tier.
func TestRequestLogging(t *testing.T) {
	buf := &logBuffer{}
	s := New(Config{Runner: tensortee.NewRunner(), Log: slog.New(slog.NewJSONHandler(buf, nil))})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	_ = s

	get(t, ts.URL+"/v1/experiments/hw?format=json", nil) // compute
	get(t, ts.URL+"/v1/experiments/hw?format=json", nil) // memory hit
	get(t, ts.URL+"/v1/experiments/nope", nil)           // 404

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("logged %d records, want 3:\n%s", len(lines), buf.String())
	}
	type record struct {
		Msg      string  `json:"msg"`
		Method   string  `json:"method"`
		Path     string  `json:"path"`
		Status   int     `json:"status"`
		Bytes    int64   `json:"bytes"`
		Duration float64 `json:"duration"`
		Client   string  `json:"client"`
		Cache    string  `json:"cache"`
	}
	var recs []record
	for _, ln := range lines {
		var r record
		if err := json.Unmarshal([]byte(ln), &r); err != nil {
			t.Fatalf("unparseable log line %q: %v", ln, err)
		}
		recs = append(recs, r)
	}
	if recs[0].Method != "GET" || recs[0].Path != "/v1/experiments/hw" || recs[0].Status != 200 {
		t.Errorf("first record = %+v", recs[0])
	}
	if recs[0].Cache != "compute" {
		t.Errorf("first record cache = %q, want compute", recs[0].Cache)
	}
	if recs[1].Cache != "memory" {
		t.Errorf("second record cache = %q, want memory", recs[1].Cache)
	}
	if recs[0].Bytes <= 0 {
		t.Errorf("first record bytes = %d, want > 0", recs[0].Bytes)
	}
	if recs[0].Client == "" {
		t.Error("first record has no client")
	}
	if recs[2].Status != 404 {
		t.Errorf("third record status = %d, want 404", recs[2].Status)
	}
}

// TestCacheTierHeader pins the X-Cache progression compute → memory on
// the plain (unsaturated) path, and disk on a store-warmed restart.
func TestCacheTierHeader(t *testing.T) {
	dir := warmStoreDir(t, "tab2")
	_, ts := newHardenedServer(t, dir, nil)
	resp, _ := get(t, ts.URL+"/v1/experiments/tab2?format=json", nil)
	if tier := resp.Header.Get("X-Cache"); tier != "disk" {
		t.Errorf("store-warmed first GET X-Cache = %q, want disk", tier)
	}
	resp, _ = get(t, ts.URL+"/v1/experiments/tab2?format=json", nil)
	if tier := resp.Header.Get("X-Cache"); tier != "memory" {
		t.Errorf("second GET X-Cache = %q, want memory", tier)
	}
	resp, _ = get(t, ts.URL+"/v1/experiments/hw?format=json", nil)
	if tier := resp.Header.Get("X-Cache"); tier != "compute" {
		t.Errorf("cold GET X-Cache = %q, want compute", tier)
	}
}

// TestScenarioBodyTooLarge pins the 413 satellite: a body over
// maxScenarioBody is "too large", not "bad JSON".
func TestScenarioBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, 0)
	big := `{"name": "` + strings.Repeat("x", maxScenarioBody+1) + `"}`
	resp, err := http.Post(ts.URL+"/v1/scenarios", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized spec = %d, want 413", resp.StatusCode)
	}
	// A merely malformed body is still a 400.
	resp, err = http.Post(ts.URL+"/v1/scenarios", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed spec = %d, want 400", resp.StatusCode)
	}
}

// TestStoreEntryHeadersAndRevalidation pins the peer-surface satellite:
// raw envelopes carry an explicit Content-Length (probes pre-size
// buffers) and a checksum-derived ETag that 304s on re-probe.
func TestStoreEntryHeadersAndRevalidation(t *testing.T) {
	dir := warmStoreDir(t, "tab2")
	_, ts := newHardenedServer(t, dir, nil)

	resp, body := get(t, ts.URL+"/v1/store/result/tab2", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("store entry = %d", resp.StatusCode)
	}
	cl, err := strconv.Atoi(resp.Header.Get("Content-Length"))
	if err != nil || cl != len(body) {
		t.Errorf("Content-Length = %q, body is %d bytes", resp.Header.Get("Content-Length"), len(body))
	}
	etag := resp.Header.Get("ETag")
	if len(etag) != 64+2 || !strings.HasPrefix(etag, `"`) {
		t.Fatalf("ETag = %q, want quoted sha256 hex", etag)
	}
	// The validator is the envelope's own checksum field.
	header := strings.SplitN(body, "\n", 2)[0]
	if !strings.Contains(header, strings.Trim(etag, `"`)) {
		t.Errorf("ETag %q not the envelope checksum (header %q)", etag, header)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-cache" {
		t.Errorf("Cache-Control = %q, want no-cache", cc)
	}

	resp2, body2 := get(t, ts.URL+"/v1/store/result/tab2", map[string]string{"If-None-Match": etag})
	if resp2.StatusCode != http.StatusNotModified || body2 != "" {
		t.Errorf("re-probe = %d with %d body bytes, want bare 304", resp2.StatusCode, len(body2))
	}
}

// TestStaleScenarioFallback pins the scenario arm of the degradation
// path: a persisted scenario result renders stale with the
// fingerprint-derived ETag.
func TestStaleScenarioFallback(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	runner := tensortee.NewRunner(tensortee.WithStore(st))
	res, err := runner.Cached(context.Background(), "tab2")
	if err != nil {
		t.Fatal(err)
	}
	b, err := res.EncodeStored()
	if err != nil {
		t.Fatal(err)
	}
	const fp = "feedfacefeedfacefeedfacefeedface"
	if err := st.Put(store.Scenarios, fp, b); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Runner: runner})

	rd := s.stale(store.Scenarios, fp, FormatJSON)
	if rd == nil {
		t.Fatal("stale found nothing despite a persisted scenario entry")
	}
	if !rd.stale || rd.etag != scenarioETag(fp, FormatJSON) {
		t.Errorf("stale render = {stale: %v, etag: %q}", rd.stale, rd.etag)
	}
	if s.stale(store.Scenarios, "0000000000000000", FormatJSON) != nil {
		t.Error("stale fabricated a result for an unknown fingerprint")
	}
}
