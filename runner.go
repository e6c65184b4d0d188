package tensortee

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tensortee/internal/config"
	"tensortee/internal/core"
	"tensortee/internal/experiments"
	"tensortee/internal/fill"
	"tensortee/internal/scenario"
	"tensortee/internal/store"
)

// configFingerprint derives the cache key from the complete configuration.
// config.Config is plain data (value fields only), so its JSON form is a
// stable content identity.
func configFingerprint(cfg config.Config) string {
	b, err := json.Marshal(cfg)
	if err != nil {
		// Cannot happen for plain-data configs; degrade to a shared key
		// rather than panicking.
		return "unmarshalable:" + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

// maxCachedSystems bounds the calibrated-system cache. Registry
// experiments only ever need the three Table-1 defaults; the rest of the
// budget absorbs scenario override sets. A calibrated system with a large
// explicit protected region holds a dense metadata layout, so unbounded
// retention would let a stream of distinct scenario configs exhaust
// memory. At the cap completed calibrations are dropped (the cache is
// correctness-neutral and recalibration is ~a second) while in-flight ones
// keep their waiters.
const maxCachedSystems = 32

// cachedResult is one memoized experiment outcome. fromStore records that
// res was loaded from the persistent store (disk or peer) rather than
// computed in this process.
type cachedResult struct {
	res       *Result
	fromStore bool
}

// Runner executes experiments, optionally many at a time, sharing one
// calibration cache across all of them. The zero configuration
// (NewRunner() with no options) runs sequentially with caching on; a
// Runner is safe for concurrent use. The zero value works too, with an
// unbounded calibration cache.
type Runner struct {
	parallelism int
	prewarm     []Kind
	store       *store.Store // nil when persistence is disabled

	// systems shares calibrated systems across experiments, scenarios and
	// goroutines: each distinct configuration calibrates (a short
	// CPU-simulation sample, the expensive part of building a system) once
	// per Runner. Keys are a content fingerprint of the full configuration,
	// so a scenario whose overrides resolve to a Table-1 default shares the
	// registry experiments' calibration.
	systems fill.Group[string, *core.System]
	// results memoizes Results per experiment id. Experiment outputs are
	// deterministic (pinned by TestGoldenOutputs), so a memoized Result is
	// indistinguishable from a fresh run, apart from being ~instant.
	results fill.Group[string, cachedResult]
}

// RunnerOption configures a Runner.
type RunnerOption func(*Runner)

// WithParallelism sets how many experiments may run concurrently in
// RunAll (default 1; n < 1 selects GOMAXPROCS).
func WithParallelism(n int) RunnerOption {
	return func(r *Runner) {
		if n < 1 {
			n = runtime.GOMAXPROCS(0)
		}
		r.parallelism = n
	}
}

// WithSystems pre-declares the system kinds the workload will use: the
// Runner calibrates them up front (once, at the first Run/RunAll) instead
// of lazily inside the first experiment that needs each.
func WithSystems(kinds ...Kind) RunnerOption {
	return func(r *Runner) { r.prewarm = append(r.prewarm, kinds...) }
}

// WithStore attaches a persistent content-addressed store: computed
// results, scenario outputs, and calibration snapshots write through to
// it, and future Runners (including future processes) sharing the same
// store directory serve them from disk instead of recomputing. The store
// is strictly an accelerator — every read is checksum-verified and keyed
// by build, and any failure degrades to a plain recompute.
func WithStore(st *store.Store) RunnerOption {
	return func(r *Runner) { r.store = st }
}

// NewRunner builds a Runner.
func NewRunner(opts ...RunnerOption) *Runner {
	r := &Runner{parallelism: 1}
	r.systems.Cap = maxCachedSystems
	for _, o := range opts {
		o(r)
	}
	return r
}

// Store returns the attached persistent store (nil when persistence is
// disabled).
func (r *Runner) Store() *store.Store { return r.store }

// throughStore is the persistent-store tier of every Runner fill: a
// payload under ns/key (disk, then peers) that decodes is served as is,
// and anything else (no store, a miss, a payload that fails to decode)
// computes and writes the value through, best-effort. The bool reports a
// store hit. The store is an accelerator, never a correctness dependency:
// none of its failures fails the compute.
func throughStore[T any](ctx context.Context, st *store.Store, ns store.Namespace, key string,
	decode func([]byte) (T, error), encode func(T) ([]byte, error), compute func() (T, error)) (T, bool, error) {
	if st != nil {
		if b, ok := st.GetOrFetch(ctx, ns, key); ok {
			if v, err := decode(b); err == nil {
				return v, true, nil
			}
		}
	}
	v, err := compute()
	if err == nil && st != nil {
		if b, err := encode(v); err == nil {
			_ = st.Put(ns, key, b) // a full disk must not fail the run
		}
	}
	return v, false, err
}

// calibrated returns the calibrated system for cfg from the calibration
// cache, restoring a persisted snapshot or calibrating on first use.
// With every cache slot holding an in-flight calibration it calibrates
// without caching rather than failing.
func (r *Runner) calibrated(cfg config.Config) (*core.System, error) {
	key := configFingerprint(cfg)
	if sys, err, ok := r.systems.Peek(key); ok {
		return sys, err
	}
	calibrate := func(ctx context.Context) (*core.System, error) {
		sys, _, err := throughStore(ctx, r.store, store.Calibrations, key,
			func(b []byte) (*core.System, error) {
				var snap core.CalibrationSnapshot
				if err := json.Unmarshal(b, &snap); err != nil {
					return nil, err
				}
				return core.NewSystemFromSnapshot(cfg, snap)
			},
			func(sys *core.System) ([]byte, error) { return json.Marshal(sys.Snapshot()) },
			func() (*core.System, error) { return core.NewSystemFromConfig(cfg) })
		return sys, err
	}
	sys, err := r.systems.Do(context.Background(), key, calibrate)
	if errors.Is(err, fill.ErrBusy) {
		return calibrate(context.Background())
	}
	return sys, err
}

// Cached returns the experiment's Result from the Runner's result cache,
// computing it (via Run) on the first request. Concurrent Cached calls for
// the same id share one computation; later calls return the memoized
// Result immediately. The computation is detached from ctx — cancelling a
// waiting caller abandons the wait (returning ctx.Err()) but lets the
// shared computation finish for future callers, so a cancelled first
// request never poisons the cache. Errors are memoized like results:
// experiment outcomes are deterministic, so retrying cannot help.
//
// Callers share the returned *Result — treat it as read-only.
func (r *Runner) Cached(ctx context.Context, id string) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if c, err, ok := r.results.Peek(id); ok {
		return c.res, err
	}
	c, err := r.results.Do(ctx, id, func(ctx context.Context) (cachedResult, error) {
		res, fromStore, err := throughStore(ctx, r.store, store.Results, id,
			func(b []byte) (*Result, error) {
				res, err := DecodeStoredResult(b)
				if err == nil && res.ID != id {
					// The envelope checksum already passed, so this is a
					// misfiled entry, not corruption; treat it as a miss.
					err = fmt.Errorf("stored result is %s, not %s", res.ID, id)
				}
				return res, err
			},
			(*Result).EncodeStored,
			func() (*Result, error) { return r.Run(ctx, id) })
		return cachedResult{res, fromStore}, err
	})
	return c.res, err
}

// persistResult writes a computed result through to the store,
// best-effort: persistence failures never fail the run.
func (r *Runner) persistResult(id string, res *Result) {
	if r.store == nil {
		return
	}
	if b, err := res.EncodeStored(); err == nil {
		_ = r.store.Put(store.Results, id, b)
	}
}

// ResultCached reports whether Cached(id) would be served from memory
// (the experiment has finished computing in this Runner).
func (r *Runner) ResultCached(id string) bool {
	_, _, ok := r.results.Peek(id)
	return ok
}

// ResultFromStore reports whether the memoized result for id was loaded
// from the persistent store rather than computed by this process. False
// while the experiment is still computing, was computed locally, or was
// never requested.
func (r *Runner) ResultFromStore(id string) bool {
	c, _, ok := r.results.Peek(id)
	return ok && c.fromStore
}

// env builds the experiment environment backed by this Runner's cache.
func (r *Runner) env() *experiments.Env {
	return &experiments.Env{Configs: r.calibrated}
}

// warm calibrates the pre-declared systems, honoring ctx between kinds.
func (r *Runner) warm(ctx context.Context) error {
	env := r.env()
	for _, k := range r.prewarm {
		if err := ctx.Err(); err != nil {
			return err
		}
		if _, err := env.System(k.kind()); err != nil {
			return fmt.Errorf("tensortee: calibrating %s: %w", k, err)
		}
	}
	return nil
}

// Run regenerates one experiment and returns its typed result. The
// context is checked before the (potentially long) generation starts;
// cancellation during generation takes effect at the next experiment
// boundary.
func (r *Runner) Run(ctx context.Context, id string) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := r.warm(ctx); err != nil {
		return nil, err
	}
	start := time.Now()
	rep, err := experiments.RunWith(r.env(), id)
	if err != nil {
		return nil, err
	}
	return newResult(rep, time.Since(start)), nil
}

// RunScenario compiles and runs a declarative custom scenario (see the
// Scenario type): a workload model, a set of systems with Table-1
// overrides, a metric set, and an optional sweep axis, executed through
// the same calibrated simulation pipeline as the registry experiments.
// Calibrated systems are shared through the Runner's calibration cache,
// keyed by the override fingerprint — two scenarios (or a scenario and a
// registry experiment) that resolve to the same configuration calibrate
// once. Invalid specs fail fast with errors matching ErrInvalidScenario
// (and the specific sentinels ErrUnknownModel, ErrBadSweep,
// ErrUnsafeOverride) before any simulation starts.
func (r *Runner) RunScenario(ctx context.Context, spec Scenario) (*Result, error) {
	res, _, err := r.RunScenarioCached(ctx, spec)
	return res, err
}

// RunScenarioCached is RunScenario with persistent-store integration:
// when a store is attached, a scenario whose fingerprint is already on
// disk (or on a peer) is served from the store — the bool reports that —
// and freshly computed scenarios write through for next time. Specs are
// validated before the store is consulted, so an invalid spec fails
// identically with or without a store.
func (r *Runner) RunScenarioCached(ctx context.Context, spec Scenario) (*Result, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	var fp string
	if r.store != nil {
		if err := spec.Validate(); err != nil {
			return nil, false, err
		}
		fp = spec.Fingerprint()
	}
	// The envelope already binds namespace, key and checksum, so a
	// decodable payload under this fingerprint is the scenario's result
	// (its ID is the scenario's name, not the fingerprint).
	return throughStore(ctx, r.store, store.Scenarios, fp, DecodeStoredResult, (*Result).EncodeStored,
		func() (*Result, error) {
			start := time.Now()
			rep, err := scenario.Run(r.env(), spec)
			if err != nil {
				return nil, err
			}
			return newResult(rep, time.Since(start)), nil
		})
}

// WarmAll populates the Runner's in-memory result cache for every
// registered experiment (all of ids, or the full registry when empty),
// serving each from the persistent store when possible and computing —
// and persisting — the rest. It returns how many came from the store
// versus were computed, the split a cold-start log line wants. Work fans
// out over the WithParallelism worker budget; the first error (or a
// cancelled ctx) stops the warm and is returned.
func (r *Runner) WarmAll(ctx context.Context, ids ...string) (fromStore, computed int, err error) {
	if len(ids) == 0 {
		ids = ExperimentIDs()
	}
	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	if err := r.warm(ctx); err != nil {
		return 0, 0, err
	}
	var nStore, nComp atomic.Int64
	err = r.fanOut(ctx, len(ids), func(i int) error {
		if _, err := r.Cached(ctx, ids[i]); err != nil {
			return fmt.Errorf("experiment %s: %w", ids[i], err)
		}
		if r.ResultFromStore(ids[i]) {
			nStore.Add(1)
		} else {
			nComp.Add(1)
		}
		return nil
	})
	return int(nStore.Load()), int(nComp.Load()), err
}

// RunAll regenerates the given experiments (all registered ones when ids
// is empty), fanning them out over a worker pool of WithParallelism
// goroutines. Results come back in ids order. On the first failure — or
// when ctx is cancelled — remaining experiments are skipped and the error
// is returned; cancellation surfaces as ctx.Err().
func (r *Runner) RunAll(ctx context.Context, ids ...string) ([]*Result, error) {
	if len(ids) == 0 {
		ids = ExperimentIDs()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := r.warm(ctx); err != nil {
		return nil, err
	}
	env := r.env()
	results := make([]*Result, len(ids))
	if err := r.fanOut(ctx, len(ids), func(i int) error {
		start := time.Now()
		rep, err := experiments.RunWith(env, ids[i])
		if err != nil {
			return fmt.Errorf("experiment %s: %w", ids[i], err)
		}
		results[i] = newResult(rep, time.Since(start))
		// Completed results also warm the Cached store, so RunAll (e.g.
		// tensorteed -warm) pre-populates what Cached will serve.
		r.results.Seed(ids[i], cachedResult{res: results[i]})
		r.persistResult(ids[i], results[i])
		return nil
	}); err != nil {
		return nil, err
	}
	return results, nil
}

// fanOut runs do(0..n-1) over a pool of WithParallelism workers. The
// first error, or a cancelled ctx, stops the pool: queued items drain
// without running and the error is returned. A cancellation racing the
// last item may leave no recorded error but a dead context; that is
// returned too, rather than reporting partial work as complete.
func (r *Runner) fanOut(ctx context.Context, n int, do func(i int) error) error {
	jobs := make(chan int, n)
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)

	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
		stopped  atomic.Bool
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		stopped.Store(true)
	}
	// A zero-value Runner (parallelism 0) still makes progress.
	workers := min(max(r.parallelism, 1), n)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if stopped.Load() {
					continue // drain: an error or cancellation already fired
				}
				if err := ctx.Err(); err != nil {
					fail(err)
					continue
				}
				if err := do(i); err != nil {
					fail(err)
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
