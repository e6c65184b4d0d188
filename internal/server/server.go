// Package server implements tensorteed's HTTP API: the paper's experiment
// index and results served over HTTP with in-memory memoization, content
// negotiation, strong ETags, and Prometheus-style metrics.
//
//	GET /v1/experiments              index with paper-artifact metadata (JSON)
//	GET /v1/experiments/{id}         one result (text, json or csv)
//	GET /v1/experiments/all          every result (text, json or csv)
//	GET /v1/scenarios/{fp}           a previously computed scenario by fingerprint
//	POST /v1/campaigns               submit an async multi-axis sweep job
//	GET /v1/campaigns                all campaign statuses (JSON)
//	GET /v1/campaigns/{id}           one campaign status (JSON)
//	GET /v1/campaigns/{id}/events    live progress stream (NDJSON)
//	DELETE /v1/campaigns/{id}        cancel (in-flight points drain)
//	GET /v1/store                    persistent-store statistics (JSON)
//	GET /v1/store/{ns}/{key}         raw store envelope (the peer-replication surface)
//	GET /healthz                     liveness probe
//	GET /metrics                     request/cache/latency counters
//
// The representation is chosen by ?format=text|json|csv, else by the
// Accept header (application/json, text/csv, text/plain), defaulting to
// JSON. Responses carry strong ETags derived from the result's content
// fingerprint; If-None-Match revalidations answer 304.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"tensortee"
	"tensortee/internal/campaign"
	"tensortee/internal/fill"
	"tensortee/internal/ratelimit"
	"tensortee/internal/resilience"
	"tensortee/internal/store"
)

// Defaults for the compute circuit breaker: five consecutive fill
// failures (errors or panics) open it for 30s, during which lookups
// degrade to stale persisted results instead of starting fills.
const (
	defaultBreakerThreshold = 5
	defaultBreakerCooldown  = 30 * time.Second
)

// Base Retry-After hints for the shed paths. Both go through
// ratelimit.RetryAfter, which jitters the value so a burst of shed
// clients does not retry in lockstep against a recovering daemon.
// Saturated experiment lookups (nothing persisted) retry on the order of
// a heavy fill (~10s); scenario fills are uncancelable and can run for
// minutes, so their hint is longer.
const (
	saturationRetryAfterBase = 10
	scenarioRetryAfterBase   = 30
)

// cacheTierHeader tells clients (and the request log) which tier
// satisfied a lookup: memory, disk, compute, or stale.
const cacheTierHeader = "X-Cache"

// Config sizes a Server.
type Config struct {
	// Runner executes and memoizes experiments (nil builds a default one).
	Runner *tensortee.Runner
	// MaxConcurrent bounds concurrent experiment computations: a burst of
	// cold requests queues behind the bound instead of thrashing system
	// calibration. 0 means unbounded. When every slot is busy, cold
	// lookups degrade (stale persisted result, else 503) instead of
	// queueing.
	MaxConcurrent int
	// MaxConcurrentScenarios bounds concurrent scenario computations
	// (POST /v1/scenarios). Scenarios calibrate fresh systems per distinct
	// override set, so an unbounded burst of cold specs is the daemon's
	// most expensive request shape. 0 means unbounded.
	MaxConcurrentScenarios int
	// RateLimit grants each client this many requests per second (token
	// bucket, burst RateBurst). 0 disables rate limiting.
	RateLimit float64
	// RateBurst is the per-client bucket size; 0 derives 2×RateLimit
	// (minimum 1).
	RateBurst int
	// TrustedProxies is how many trusted reverse proxies sit in front of
	// the daemon: 0 keys clients by TCP peer address; N > 0 trusts the
	// last N X-Forwarded-For hops and keys by the address they vouch for.
	TrustedProxies int
	// Log, when non-nil, receives one structured record per request
	// (method, path, status, bytes, duration, client, cache tier).
	Log *slog.Logger
	// Breaker overrides the default compute circuit breaker (tests trip
	// it deliberately; nil builds the default).
	Breaker *resilience.Breaker
	// CampaignWorkers bounds concurrent campaign point computations
	// (POST /v1/campaigns); 0 means the campaign manager's default.
	CampaignWorkers int
	// CampaignRetries is how many times a failed campaign point is
	// retried before it is marked failed; 0 means no retries.
	CampaignRetries int
}

// Server is the tensorteed HTTP API. Build with New, mount with Handler.
type Server struct {
	runner         *tensortee.Runner
	results        fill.Group[string, *memo] // experiments, by id
	scenarios      fill.Group[string, *memo] // scenarios, by spec fingerprint
	campaigns      *campaign.Manager
	metrics        *Metrics
	limiter        *ratelimit.Limiter // nil when rate limiting is disabled
	trustedProxies int
	log            *slog.Logger // nil when request logging is disabled
	index          []tensortee.ExperimentInfo
	known          map[string]bool
	mux            *http.ServeMux
}

// New builds a Server around the runner. When the runner carries a
// persistent store (tensortee.WithStore), the server additionally serves
// the store surface: /v1/store statistics, the raw-envelope peer
// endpoint, and scenario lookups by fingerprint that survive both
// memory eviction and daemon restarts.
func New(cfg Config) *Server {
	r := cfg.Runner
	if r == nil {
		r = tensortee.NewRunner()
	}
	m := NewMetrics()
	if st := r.Store(); st != nil {
		m.SetStoreStats(st.Stats)
	}
	br := cfg.Breaker
	if br == nil {
		br = resilience.New(defaultBreakerThreshold, defaultBreakerCooldown)
	}
	m.SetBreakerState(br.State)
	mgr := campaign.NewManager(campaign.Config{
		// Campaign points run through the same cached scenario pipeline as
		// POST /v1/scenarios, so a point whose fingerprint is already
		// persisted (from an earlier scenario, or a sibling campaign) is
		// restored rather than recomputed.
		Run: func(ctx context.Context, spec tensortee.Scenario) ([]byte, error) {
			res, _, err := r.RunScenarioCached(ctx, spec)
			if err != nil {
				return nil, err
			}
			return res.EncodeStored()
		},
		// Search campaigns read their objective back out of the same
		// checkpoint payloads the points persist.
		Measure: func(payload []byte) (campaign.Measurement, error) {
			sp, total, err := tensortee.StoredMeasurement(payload)
			if err != nil {
				return campaign.Measurement{}, err
			}
			return campaign.Measurement{Speedup: sp, TotalSeconds: total}, nil
		},
		Store:   r.Store(),
		Workers: cfg.CampaignWorkers,
		Retries: cfg.CampaignRetries,
		Breaker: br,
		OnEvent: m.ObserveCampaignEvent,
	})
	m.SetCampaignsActive(mgr.Active)
	s := &Server{
		runner:         r,
		results:        fill.Group[string, *memo]{Concurrency: cfg.MaxConcurrent, Breaker: br},
		scenarios:      fill.Group[string, *memo]{Cap: maxScenarioEntries, Concurrency: cfg.MaxConcurrentScenarios, Breaker: br},
		campaigns:      mgr,
		metrics:        m,
		trustedProxies: cfg.TrustedProxies,
		log:            cfg.Log,
		index:          tensortee.Experiments(),
		known:          make(map[string]bool),
	}
	if cfg.RateLimit > 0 {
		burst := cfg.RateBurst
		if burst <= 0 {
			burst = int(math.Ceil(cfg.RateLimit)) * 2
		}
		s.limiter = ratelimit.New(cfg.RateLimit, burst)
	}
	for _, e := range s.index {
		s.known[e.ID] = true
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/experiments", s.handleIndex)
	mux.HandleFunc("GET /v1/experiments/{$}", s.handleIndex)
	mux.HandleFunc("GET /v1/experiments/all", s.handleAll)
	mux.HandleFunc("GET /v1/experiments/{id}", s.handleExperiment)
	mux.HandleFunc("POST /v1/scenarios", s.handleScenario)
	mux.HandleFunc("GET /v1/scenarios/{fingerprint}", s.handleScenarioLookup)
	mux.HandleFunc("POST /v1/campaigns", s.handleCampaignCreate)
	mux.HandleFunc("GET /v1/campaigns", s.handleCampaignList)
	mux.HandleFunc("GET /v1/campaigns/{$}", s.handleCampaignList)
	mux.HandleFunc("GET /v1/campaigns/{id}", s.handleCampaignStatus)
	mux.HandleFunc("GET /v1/campaigns/{id}/events", s.handleCampaignEvents)
	mux.HandleFunc("DELETE /v1/campaigns/{id}", s.handleCampaignCancel)
	mux.HandleFunc("GET /v1/store", s.handleStoreStats)
	mux.HandleFunc("GET /v1/store/{$}", s.handleStoreStats)
	mux.HandleFunc("GET /v1/store/{ns}/{key}", s.handleStoreEntry)
	s.mux = mux
	return s
}

// Campaigns exposes the server's campaign manager so the daemon can
// resume stored campaigns at boot and drain the manager at shutdown.
func (s *Server) Campaigns() *campaign.Manager {
	return s.campaigns
}

// Handler returns the fully-instrumented HTTP handler. Middleware order,
// outermost first: request logging (sees everything, including 429s),
// request metrics (rate-limited requests count in requests/errors too),
// rate limiting, then the routing mux.
func (s *Server) Handler() http.Handler {
	h := http.Handler(s.mux)
	if s.limiter != nil {
		h = ratelimit.Middleware(h, s.limiter, s.rateKey, func(allowed bool) {
			if allowed {
				s.metrics.RatelimitAllowed()
			} else {
				s.metrics.RatelimitRejected()
			}
		})
	}
	h = s.instrument(h)
	if s.log != nil {
		h = s.logRequests(h)
	}
	return h
}

// rateKey buckets requests by client address for the limiter. Liveness
// and metrics probes are exempt (empty key): they are needed most while
// clients are being shed.
func (s *Server) rateKey(r *http.Request) string {
	switch r.URL.Path {
	case "/healthz", "/metrics":
		return ""
	}
	return ratelimit.ClientKey(r, s.trustedProxies)
}

// Metrics exposes the server's counters (the /metrics endpoint renders
// the same set).
func (s *Server) Metrics() *Metrics { return s.metrics }

// statusRecorder captures the response code and body size for the
// request metrics and the request log.
type statusRecorder struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

// instrument wraps h with the request/in-flight/error counters.
func (s *Server) instrument(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		done := s.metrics.RequestStarted()
		defer done()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h.ServeHTTP(rec, r)
		if rec.code >= 400 {
			s.metrics.Error()
		}
	})
}

// logRequests emits one structured record per request. The cache tier is
// read back from the response header the handlers set, so the log shows
// whether a lookup hit memory, disk, compute, or the degraded stale path
// without threading state through every handler.
func (s *Server) logRequests(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h.ServeHTTP(rec, r)
		s.log.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", rec.code),
			slog.Int64("bytes", rec.bytes),
			slog.Duration("duration", time.Since(start)),
			slog.String("client", ratelimit.ClientKey(r, s.trustedProxies)),
			slog.String("cache", w.Header().Get(cacheTierHeader)),
		)
	})
}

// setCacheTier labels the response with the tier that satisfied it.
func setCacheTier(w http.ResponseWriter, t tier) {
	if t != tierNone {
		w.Header().Set(cacheTierHeader, string(t))
	}
}

// handleHealthz is the liveness probe. It always answers 200 — a daemon
// on a failing disk is alive and still serves warm reads — but it names
// the store's health so orchestration and the chaos smoke can see
// degraded read-only mode without parsing /metrics.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
	if st := s.runner.Store(); st != nil {
		if st.Degraded() {
			fmt.Fprintln(w, "store: degraded")
		} else {
			fmt.Fprintln(w, "store: ok")
		}
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, s.metrics.Render())
}

// indexEntry is one /v1/experiments row: the shared paper-artifact
// metadata plus the resource URL.
type indexEntry struct {
	tensortee.ExperimentInfo
	URL string `json:"url"`
}

func (s *Server) handleIndex(w http.ResponseWriter, _ *http.Request) {
	entries := make([]indexEntry, len(s.index))
	for i, e := range s.index {
		entries[i] = indexEntry{ExperimentInfo: e, URL: "/v1/experiments/" + e.ID}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(map[string]any{
		"experiments": entries,
		"count":       len(entries),
	})
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.known[id] {
		http.Error(w, fmt.Sprintf("unknown experiment %q", id), http.StatusNotFound)
		return
	}
	f, err := negotiate(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	rd, t, err := s.experiment(r.Context(), id, f)
	if err != nil {
		if errors.Is(err, ErrSaturated) {
			w.Header().Set("Retry-After", ratelimit.RetryAfter(saturationRetryAfterBase))
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	setCacheTier(w, t)
	s.serve(w, r, rd)
}

func (s *Server) handleAll(w http.ResponseWriter, r *http.Request) {
	f, err := negotiate(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Fan the fills out; the fill group's bound limits actual concurrency
	// and each id still computes at most once.
	type outcome struct {
		rd  *rendered
		t   tier
		err error
	}
	outcomes := make([]outcome, len(s.index))
	doneCh := make(chan int, len(s.index))
	for i, e := range s.index {
		go func(i int, id string) {
			rd, t, err := s.experiment(r.Context(), id, f)
			outcomes[i] = outcome{rd, t, err}
			doneCh <- i
		}(i, e.ID)
	}
	for range s.index {
		<-doneCh
	}
	var bodies [][]byte
	var tags []string
	agg := tierNone
	stale := false
	for i, o := range outcomes {
		if o.err != nil {
			if errors.Is(o.err, ErrSaturated) {
				// The aggregate can only be complete if every member can be
				// served; one unservable member degrades the whole response.
				w.Header().Set("Retry-After", ratelimit.RetryAfter(saturationRetryAfterBase))
				http.Error(w, fmt.Sprintf("experiment %s: %v", s.index[i].ID, o.err), http.StatusServiceUnavailable)
				return
			}
			http.Error(w, fmt.Sprintf("experiment %s: %v", s.index[i].ID, o.err), http.StatusInternalServerError)
			return
		}
		bodies = append(bodies, o.rd.body)
		tags = append(tags, o.rd.etag)
		agg = agg.worse(o.t)
		stale = stale || o.rd.stale
	}
	rd := combine(bodies, tags, f)
	rd.stale = stale
	setCacheTier(w, agg)
	s.serve(w, r, rd)
}

// maxScenarioBody bounds POST /v1/scenarios request bodies: specs are a
// few hundred bytes; anything near the cap is hostile or confused.
const maxScenarioBody = 1 << 20

// handleScenario runs a declarative custom scenario:
//
//	POST /v1/scenarios
//	{"model": {"name": "LLAMA2-7B"}, "systems": [{"kind": "tensortee"}],
//	 "sweep": {"axis": "meta_cache_kb", "values": [64, 128, 256]}}
//
// Results are cached by the spec's normalized content fingerprint — two
// bodies that decode to equivalent specs share one computation — and
// served with a strong ETag derived from that fingerprint, so clients
// replaying a spec can revalidate with If-None-Match and get 304 without
// a body. Invalid specs (unknown model, bad sweep bounds,
// calibration-breaking overrides) answer 400 with the validation error.
func (s *Server) handleScenario(w http.ResponseWriter, r *http.Request) {
	f, err := negotiate(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var spec tensortee.Scenario
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxScenarioBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		// An over-limit body surfaces from Decode as the reader's
		// MaxBytesError; that is the client sending too much, not sending
		// malformed JSON, and gets the status that says so.
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("scenario spec exceeds the %d-byte limit", maxScenarioBody),
				http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, fmt.Sprintf("decoding scenario spec: %v", err), http.StatusBadRequest)
		return
	}
	if err := spec.Validate(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fp := spec.Fingerprint()
	// The ETag is determined by the normalized spec alone, so a matching
	// If-None-Match answers 304 without computing anything — in particular
	// without recomputing a scenario the bounded store evicted (or one
	// never computed by this process: the tag survives restarts).
	if etag := scenarioETag(fp, f); etagMatches(r.Header.Get("If-None-Match"), etag) {
		s.serve(w, r, &rendered{etag: etag, contentType: f.contentType()})
		return
	}
	rd, t, err := s.scenario(r.Context(), fp, spec, f)
	if err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, tensortee.ErrInvalidScenario):
			status = http.StatusBadRequest
		case errors.Is(err, ErrScenarioStoreBusy):
			// Degrade before shedding: an identical spec computed by an
			// earlier process sharing -store-dir serves stale from disk.
			if srd := s.stale(store.Scenarios, fp, f); srd != nil {
				s.metrics.StaleServe()
				setCacheTier(w, tierStale)
				s.serve(w, r, srd)
				return
			}
			status = http.StatusServiceUnavailable
			// Fills are uncancelable and can run for minutes; steer
			// well-behaved clients away from a per-second retry storm.
			w.Header().Set("Retry-After", ratelimit.RetryAfter(scenarioRetryAfterBase))
		}
		http.Error(w, err.Error(), status)
		return
	}
	setCacheTier(w, t)
	s.serve(w, r, rd)
}

// handleScenarioLookup serves a previously computed scenario by its
// normalized spec fingerprint (the value clients learn from the POST
// response's ETag):
//
//	GET /v1/scenarios/{fingerprint}
//
// The lookup tiers mirror the write path: the in-memory scenario store
// first, then the persistent store (disk, then peers) — so a scenario
// evicted from memory, or computed by an earlier daemon process sharing
// the same -store-dir, is re-admitted and served without recomputation.
// A fingerprint found nowhere answers 404: this endpoint never computes
// (fingerprints are not invertible to specs, so it could not). ETags and
// If-None-Match behave exactly as on the POST route.
func (s *Server) handleScenarioLookup(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fingerprint")
	f, err := negotiate(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// A matching validator proves the client already holds this
	// representation (the tag embeds the fingerprint), so answer 304
	// before touching either store tier.
	if etag := scenarioETag(fp, f); etagMatches(r.Header.Get("If-None-Match"), etag) {
		s.serve(w, r, &rendered{etag: etag, contentType: f.contentType()})
		return
	}
	if m, err, ok := s.scenarios.Peek(fp); ok && err == nil {
		rd, err := m.render(f)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		s.metrics.ScenarioCacheHit()
		setCacheTier(w, tierMemory)
		s.serve(w, r, rd)
		return
	}
	if st := s.runner.Store(); st != nil {
		if b, ok := st.GetOrFetch(r.Context(), store.Scenarios, fp); ok {
			if res, err := tensortee.DecodeStoredResult(b); err == nil {
				m := &memo{res: res, via: tierDisk, tag: scenarioTag(fp)}
				s.scenarios.Seed(fp, m) // later lookups hit memory
				rd, err := m.render(f)
				if err != nil {
					http.Error(w, err.Error(), http.StatusInternalServerError)
					return
				}
				s.metrics.ScenarioStoreServe()
				setCacheTier(w, tierDisk)
				s.serve(w, r, rd)
				return
			}
		}
	}
	http.Error(w, fmt.Sprintf("no stored result for scenario fingerprint %q", fp), http.StatusNotFound)
}

// handleStoreStats reports the persistent store's counters as JSON —
// the humans-and-scripts view; Prometheus scrapers get the same numbers
// at /metrics.
func (s *Server) handleStoreStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	st := s.runner.Store()
	if st == nil {
		_ = enc.Encode(map[string]any{"enabled": false})
		return
	}
	_ = enc.Encode(map[string]any{
		"enabled":   true,
		"dir":       st.Dir(),
		"build_tag": store.BuildTag(),
		"stats":     st.Stats(),
	})
}

// handleStoreEntry is the peer-replication surface: it serves the raw,
// checksum-verified envelope for one entry straight from disk. It never
// computes — a fingerprint this replica hasn't materialized is a plain
// 404, which is what lets replicas probe each other on miss without any
// risk of recursive or duplicated computation. The bytes are the
// envelope (header line + payload), not the payload: the fetching side
// re-verifies the checksum and build tag itself rather than trusting the
// network.
func (s *Server) handleStoreEntry(w http.ResponseWriter, r *http.Request) {
	st := s.runner.Store()
	if st == nil {
		http.Error(w, "persistent store disabled", http.StatusNotFound)
		return
	}
	ns := store.Namespace(r.PathValue("ns"))
	raw, ok := st.ReadRaw(ns, r.PathValue("key"))
	if !ok {
		http.Error(w, "no such store entry", http.StatusNotFound)
		return
	}
	h := w.Header()
	// The envelope header already carries the payload checksum; reusing it
	// as the validator means a replica re-probing an entry it has fetched
	// before pays a 304, not the body — and no re-hash here.
	if etag := envelopeETag(raw); etag != "" {
		h.Set("ETag", etag)
		if etagMatches(r.Header.Get("If-None-Match"), etag) {
			s.metrics.NotModified()
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	h.Set("Content-Type", "application/octet-stream")
	// Explicit so peer probes can pre-size their read buffers instead of
	// growing through chunked reads.
	h.Set("Content-Length", strconv.Itoa(len(raw)))
	// no-cache (not no-store): with the checksum ETag above, a proxy may
	// keep the bytes as long as it revalidates — a stale build still
	// revalidates to a different checksum and re-fetches.
	h.Set("Cache-Control", "no-cache")
	_, _ = w.Write(raw)
}

// envelopeETag derives the strong validator for a raw store envelope from
// the sha256 field its header line already carries. Empty when the header
// is not the expected six-field shape (ReadRaw validated it, so this is
// pure defense).
func envelopeETag(raw []byte) string {
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return ""
	}
	fields := strings.Fields(string(raw[:nl]))
	if len(fields) != 6 {
		return ""
	}
	return `"` + fields[4] + `"`
}

// combine aggregates per-experiment representations into the /all body:
// JSON becomes one array document, text and CSV concatenate, and the ETag
// is derived from the per-experiment ETags so it stays stable exactly
// when every member representation is.
func combine(bodies [][]byte, tags []string, f Format) *rendered {
	var b strings.Builder
	if f == FormatJSON {
		b.WriteString("[\n")
		for i, body := range bodies {
			if i > 0 {
				b.WriteString(",\n")
			}
			b.Write(body)
		}
		b.WriteString("\n]\n")
	} else {
		for _, body := range bodies {
			b.Write(body)
			if len(body) > 0 && body[len(body)-1] != '\n' {
				b.WriteByte('\n')
			}
		}
	}
	return &rendered{
		body:        []byte(b.String()),
		etag:        fmt.Sprintf("%q", fingerprintStrings(tags)+"-all-"+string(f)),
		contentType: f.contentType(),
	}
}

// serve writes one cached representation, answering conditional requests
// with 304 when the client's validator still matches. Stale (degraded)
// representations carry the RFC 7234 staleness warning; large bodies are
// gzipped when the client accepts it.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, rd *rendered) {
	h := w.Header()
	h.Set("ETag", rd.etag)
	h.Set("Content-Type", rd.contentType)
	h.Set("Cache-Control", "no-cache") // serve from cache only after revalidation
	// The representation is negotiated from the Accept header (absent an
	// explicit ?format=) and from Accept-Encoding, so intermediaries must
	// key cached responses on both: without Vary, a shared cache could
	// satisfy an Accept: text/csv request with a previously cached JSON
	// body under the same URL (the ETags are representation-specific, but
	// a cache only consults them on revalidation, not on a fresh-enough
	// hit), or hand a gzip body to a client that cannot decode it.
	h.Set("Vary", "Accept, Accept-Encoding")
	if rd.stale {
		h.Set("Warning", `110 - "response is stale: compute saturated, served from the persistent store"`)
	}
	if etagMatches(r.Header.Get("If-None-Match"), rd.etag) {
		s.metrics.NotModified()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	body := rd.body
	if len(body) >= gzipMinSize && acceptsGzip(r) {
		if gz := rd.gzipBody(); gz != nil {
			h.Set("Content-Encoding", "gzip")
			body = gz
		}
	}
	// Explicit length: clients pre-size buffers and see truncation.
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// etagMatches reports whether any member of an If-None-Match header
// matches the given strong ETag ("*" matches everything; weak validators
// compare by opaque tag).
func etagMatches(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, c := range strings.Split(header, ",") {
		c = strings.TrimSpace(c)
		c = strings.TrimPrefix(c, "W/")
		if c == "*" || c == etag {
			return true
		}
	}
	return false
}

// errUnknownFormat rejects ?format= values outside text|json|csv.
var errUnknownFormat = errors.New(`unknown format (want "text", "json" or "csv")`)

// negotiate picks the response representation: an explicit ?format= wins,
// else the first recognized media type in the Accept header, else JSON.
func negotiate(r *http.Request) (Format, error) {
	if q := r.URL.Query().Get("format"); q != "" {
		switch q {
		case "text", "txt":
			return FormatText, nil
		case "json":
			return FormatJSON, nil
		case "csv":
			return FormatCSV, nil
		default:
			return "", fmt.Errorf("%w: %q", errUnknownFormat, q)
		}
	}
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		mt := strings.TrimSpace(strings.SplitN(part, ";", 2)[0])
		switch mt {
		case "application/json", "application/*":
			return FormatJSON, nil
		case "text/csv":
			return FormatCSV, nil
		case "text/plain", "text/*":
			return FormatText, nil
		case "*/*":
			return FormatJSON, nil
		}
	}
	return FormatJSON, nil
}
