package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"

	"tensortee"
	"tensortee/internal/fill"
	"tensortee/internal/store"
)

// Format selects one of a Result's three wire representations.
type Format string

const (
	FormatText Format = "text"
	FormatJSON Format = "json"
	FormatCSV  Format = "csv"
)

// contentType maps a format to its Content-Type header value.
func (f Format) contentType() string {
	switch f {
	case FormatJSON:
		return "application/json"
	case FormatCSV:
		return "text/csv; charset=utf-8"
	default:
		return "text/plain; charset=utf-8"
	}
}

// tier labels where a lookup was satisfied — surfaced to clients in the
// X-Cache header and to operators in the request log and metrics.
type tier string

const (
	tierMemory  tier = "memory"  // in-process result cache
	tierDisk    tier = "disk"    // persistent store, loaded by the fill
	tierCompute tier = "compute" // simulated on this request
	tierStale   tier = "stale"   // degraded: persisted bytes served under saturation
	tierNone    tier = ""
)

// worse ranks tiers for aggregate responses (/all): the reported tier is
// the most degraded one any member lookup hit.
func (t tier) worse(o tier) tier {
	rank := map[tier]int{tierNone: 0, tierMemory: 1, tierDisk: 2, tierCompute: 3, tierStale: 4}
	if rank[o] > rank[t] {
		return o
	}
	return t
}

// ErrSaturated reports that compute is saturated (semaphore full or
// circuit breaker open) and the persistent store holds nothing to degrade
// to; the caller answers 503 + Retry-After.
var ErrSaturated = errors.New("compute saturated and no stored result to degrade to; retry later")

// rendered is one cached wire representation of a result: the body bytes
// plus the strong ETag derived from the result's content fingerprint.
// stale marks a degraded representation decoded from the persistent store
// under saturation (never memoized); serve translates it into a
// Warning: 110 header.
type rendered struct {
	body        []byte
	etag        string
	contentType string
	stale       bool

	gzOnce sync.Once
	gz     []byte // lazily gzipped body; nil when compression doesn't pay
}

// memo is one filled result plus its wire representations, rendered per
// format on first use.
type memo struct {
	res *tensortee.Result
	via tier   // the tier that filled it: disk or compute
	tag string // ETag stem, see etagFor

	mu      sync.Mutex
	renders map[Format]*rendered
}

func (m *memo) render(f Format) (*rendered, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if r, ok := m.renders[f]; ok {
		return r, nil
	}
	r, err := newRendered(m.res, m.tag, f)
	if err != nil {
		return nil, err
	}
	if m.renders == nil {
		m.renders = make(map[Format]*rendered)
	}
	m.renders[f] = r
	return r, nil
}

// serve finishes a lookup that produced m, or err with m nil: the
// representation in format f plus the tier that satisfied it, memory for
// a hit.
func (m *memo) serve(f Format, hit bool, err error) (*rendered, tier, error) {
	if err != nil {
		return nil, tierNone, err
	}
	t := m.via
	if hit {
		t = tierMemory
	}
	rd, err := m.render(f)
	return rd, t, err
}

func newRendered(res *tensortee.Result, tag string, f Format) (*rendered, error) {
	body, err := renderResult(res, f)
	if err != nil {
		return nil, err
	}
	return &rendered{body: body, etag: etagFor(tag, f), contentType: f.contentType()}, nil
}

// etagFor is the strong validator for one representation. Experiment
// tags are the result's content fingerprint (which excludes Elapsed, so
// tags survive recomputation and restarts); scenario tags derive from the
// spec fingerprint alone (scenarioTag).
func etagFor(tag string, f Format) string {
	return fmt.Sprintf("%q", tag+"-"+string(f))
}

// scenarioTag is the ETag stem of a scenario. It depends only on the spec
// fingerprint, not on the computed body, so it is known before any
// computation and stays valid across evictions and daemon restarts.
func scenarioTag(fp string) string { return fp + "-scenario" }

// scenarioETag is the strong validator for one scenario representation.
func scenarioETag(fp string, f Format) string { return etagFor(scenarioTag(fp), f) }

// experiment returns the wire representation of an experiment plus the
// tier that satisfied the lookup, computing on first request. A memory
// hit is counted in the metrics. A cold miss starts — or joins — the
// single fill and waits for it (honoring ctx for the wait only), or, when
// compute is saturated, degrades: the last persisted result is served
// stale while the fill revalidates in the background, and with nothing
// persisted the lookup fails with ErrSaturated instead of queueing.
//
// The server keeps its own fill group even though Runner.Cached has one:
// the server's fill is the one place the -max-concurrent bound is held
// and the one spot that counts the experiment-runs metric exactly once
// (Runner.Cached cannot tell callers which of them triggered the
// computation).
func (s *Server) experiment(ctx context.Context, id string, f Format) (*rendered, tier, error) {
	m, err, ok := s.results.Peek(id)
	if ok {
		s.metrics.CacheHit()
	} else {
		fillExperiment := func(ctx context.Context) (*memo, error) {
			res, err := s.runner.Cached(ctx, id)
			if err != nil {
				return nil, err
			}
			// The runs metric counts actual computations; a result the
			// runner loaded from the persistent store cost a disk read,
			// not a simulation, and shows up in the store counters instead.
			if s.runner.ResultFromStore(id) {
				s.metrics.ExperimentStoreServe()
				return &memo{res: res, via: tierDisk, tag: res.Fingerprint()}, nil
			}
			s.metrics.ExperimentRun(id, res.Elapsed.Seconds())
			return &memo{res: res, via: tierCompute, tag: res.Fingerprint()}, nil
		}
		if s.results.Saturated() {
			if rd := s.stale(store.Results, id, f); rd != nil {
				// Stale-while-revalidate: the answer comes from disk now,
				// and the real fill is kicked off fire-and-forget (queueing
				// for a slot) so a future request finds the entry warm —
				// unless the breaker is open, in which case starting fills
				// is exactly what must stop.
				if !s.results.Breaker.Open() {
					_ = s.results.Start(ctx, id, fillExperiment) // never ErrBusy: uncapped
				}
				s.metrics.StaleServe()
				return rd, tierStale, nil
			}
			s.metrics.SaturationReject()
			return nil, tierNone, ErrSaturated
		}
		m, err = s.results.Do(ctx, id, fillExperiment)
	}
	return m.serve(f, ok, err)
}

// maxScenarioEntries bounds the scenario result cache: the experiment
// cache's key space is the 14 registry ids, but scenario fingerprints are
// attacker-controlled, so retention must not grow with distinct specs.
// At the cap, completed entries are dropped wholesale (the cache is
// correctness-neutral; replays re-admit from disk or recompute) while
// in-flight fills are kept so their waiters and singleflight semantics
// are undisturbed. The cap is hard: when eviction frees nothing, new
// fingerprints are refused with ErrScenarioStoreBusy, so neither the map
// nor the detached fill-goroutine count can grow past the cap (fills
// outlive the requests that started them, so without the refusal a
// client posting distinct specs and aborting each request would leak
// both).
const maxScenarioEntries = 256

// ErrScenarioStoreBusy reports that every scenario-cache slot holds an
// in-flight computation; the caller should answer 503 and have the client
// retry once some fills complete.
var ErrScenarioStoreBusy = errors.New("all scenario computations busy; retry later")

// scenario returns the cached wire representation of a scenario plus the
// tier that satisfied it, computing the scenario on first request for its
// fingerprint. Scenario fills feed the circuit breaker: invalid specs were
// already rejected with 400 before reaching here, so a failing fill is the
// backend's health, not the client's input.
func (s *Server) scenario(ctx context.Context, fp string, spec tensortee.Scenario, f Format) (*rendered, tier, error) {
	m, err, ok := s.scenarios.Peek(fp)
	if ok {
		s.metrics.ScenarioCacheHit()
	} else {
		m, err = s.scenarios.Do(ctx, fp, func(ctx context.Context) (*memo, error) {
			// RunScenarioCached consults the persistent store before
			// computing, so a persisted entry that was evicted from memory
			// re-admits from disk on its next request instead of
			// recomputing.
			res, fromStore, err := s.runner.RunScenarioCached(ctx, spec)
			if err != nil {
				return nil, err
			}
			if fromStore {
				s.metrics.ScenarioStoreServe()
				return &memo{res: res, via: tierDisk, tag: scenarioTag(fp)}, nil
			}
			s.metrics.ScenarioRun()
			return &memo{res: res, via: tierCompute, tag: scenarioTag(fp)}, nil
		})
		if errors.Is(err, fill.ErrBusy) {
			err = ErrScenarioStoreBusy
		}
	}
	return m.serve(f, ok, err)
}

// stale renders the last persisted result under ns/key straight from the
// local store, marked stale, for the degradation paths. Disk only: under
// saturation a peer round trip is load the daemon is trying to shed, and
// every past fill already copied peer entries to local disk. The ETag is
// the warm path's, so a client revalidating a previously warm response
// still gets 304 during degradation. Nil when persistence is off or
// nothing usable is stored.
func (s *Server) stale(ns store.Namespace, key string, f Format) *rendered {
	st := s.runner.Store()
	if st == nil {
		return nil
	}
	b, ok := st.Get(ns, key)
	if !ok {
		return nil
	}
	res, err := tensortee.DecodeStoredResult(b)
	if err != nil {
		return nil
	}
	tag := scenarioTag(key)
	if ns == store.Results {
		if res.ID != key {
			return nil
		}
		tag = res.Fingerprint()
	}
	rd, err := newRendered(res, tag, f)
	if err != nil {
		return nil
	}
	rd.stale = true
	return rd
}

// fingerprintStrings derives one stable hex digest from a list of tags
// (used to build the /all ETag out of the member ETags).
func fingerprintStrings(ss []string) string {
	h := sha256.New()
	for _, s := range ss {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// renderResult produces the wire body. Elapsed is zeroed first: it is the
// only run-to-run varying field, and a strong ETag (derived from
// Fingerprint, which also excludes it) must label byte-identical bodies —
// including across daemon restarts. Per-experiment compute latency is
// still observable at /metrics.
func renderResult(res *tensortee.Result, f Format) ([]byte, error) {
	clone := *res
	clone.Elapsed = 0
	switch f {
	case FormatJSON:
		return clone.JSON()
	case FormatCSV:
		return []byte(clone.CSV()), nil
	default:
		return []byte(clone.Text()), nil
	}
}
