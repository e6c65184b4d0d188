package tensortee

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"tensortee/internal/config"
	"tensortee/internal/core"
	"tensortee/internal/experiments"
)

// fastIDs are experiments cheap enough to fan out in unit tests; fig5
// exercises the shared calibration cache from multiple workers.
var fastIDs = []string{"tab1", "tab2", "fig4", "hw", "gemm", "fig5"}

func TestRunAllParallel(t *testing.T) {
	r := NewRunner(WithParallelism(4))
	results, err := r.RunAll(context.Background(), fastIDs...)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(fastIDs) {
		t.Fatalf("results = %d, want %d", len(results), len(fastIDs))
	}
	for i, res := range results {
		if res == nil {
			t.Fatalf("results[%d] is nil", i)
		}
		if res.ID != fastIDs[i] {
			t.Errorf("results[%d].ID = %s, want %s (order must match ids)", i, res.ID, fastIDs[i])
		}
		if res.Elapsed <= 0 {
			t.Errorf("%s: elapsed not recorded", res.ID)
		}
	}
}

func TestRunAllDefaultsToRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	if raceEnabled {
		t.Skip("full registry sweep is too slow under the race detector; TestRunAllParallel covers the concurrency")
	}
	r := NewRunner(WithParallelism(0)) // 0 = GOMAXPROCS
	results, err := r.RunAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ids := ExperimentIDs()
	if len(results) != len(ids) {
		t.Fatalf("results = %d, want %d", len(results), len(ids))
	}
	for i, res := range results {
		if res.ID != ids[i] {
			t.Errorf("results[%d].ID = %s, want %s", i, res.ID, ids[i])
		}
	}
}

func TestZeroValueRunner(t *testing.T) {
	// A zero-value Runner (no NewRunner) must still run experiments —
	// parallelism floors at 1 and the nil cache means uncached systems.
	var r Runner
	res, err := r.RunAll(context.Background(), "tab1")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0] == nil || res[0].ID != "tab1" {
		t.Fatalf("zero-value RunAll = %+v", res)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	r := NewRunner()
	if _, err := r.Run(context.Background(), "bogus"); err == nil {
		t.Error("unknown experiment accepted")
	}
	if _, err := r.RunAll(context.Background(), "tab1", "bogus"); err == nil {
		t.Error("unknown experiment accepted by RunAll")
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := NewRunner()
	if _, err := r.Run(ctx, "tab1"); !errors.Is(err, context.Canceled) {
		t.Errorf("Run on cancelled ctx = %v, want context.Canceled", err)
	}
	if _, err := r.RunAll(ctx, "tab1", "tab2"); !errors.Is(err, context.Canceled) {
		t.Errorf("RunAll on cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestRunAllCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	r := NewRunner(WithParallelism(1))
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		// Heavy ids: calibration plus 12-model sweeps take far longer
		// than the cancellation delay below.
		_, err := r.RunAll(ctx, "fig16", "fig17", "fig21", "fig15")
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("RunAll after mid-run cancel = %v, want context.Canceled", err)
		}
		if elapsed := time.Since(start); elapsed > 30*time.Second {
			t.Errorf("cancellation took %v; remaining experiments were not skipped", elapsed)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("RunAll did not return after cancellation")
	}
}

// TestCalibrationCacheIdentical pins that sharing calibrated systems does
// not change any reported number: a cached run of fig5 must produce
// byte-identical tables and scalars to the uncached reference path
// (experiments.RunWith with a nil Env calibrates per experiment).
func TestCalibrationCacheIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("calibrates six systems")
	}
	cached, err := NewRunner().Run(context.Background(), "fig5")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := experiments.RunWith(nil, "fig5")
	if err != nil {
		t.Fatal(err)
	}
	uncached := newResult(rep, 0)
	if !reflect.DeepEqual(cached.Tables, uncached.Tables) {
		t.Errorf("cached tables differ from uncached:\n%s\nvs\n%s", cached.Text(), uncached.Text())
	}
	if !reflect.DeepEqual(cached.Scalars, uncached.Scalars) {
		t.Errorf("cached scalars %v differ from uncached %v", cached.Scalars, uncached.Scalars)
	}
}

// TestCalibrationCacheReused pins the cache actually short-circuits: with
// the cache on, a second experiment needing the same systems must not
// re-calibrate (it runs much faster than the first).
func TestCalibrationCacheReused(t *testing.T) {
	if testing.Short() {
		t.Skip("calibrates three systems")
	}
	r := NewRunner(WithSystems(NonSecure, BaselineSGXMGX, TensorTEE))
	ctx := context.Background()
	first, err := r.Run(ctx, "fig5") // warm + experiment
	if err != nil {
		t.Fatal(err)
	}
	second, err := r.Run(ctx, "fig5") // all systems cached
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Scalars, second.Scalars) {
		t.Errorf("repeated run not deterministic: %v vs %v", first.Scalars, second.Scalars)
	}
}

// TestCalibrationCacheFullCalibratesUncached pins the refusal fallback:
// with every calibration-cache slot holding an in-flight calibration, a
// new configuration still calibrates (uncached) instead of failing.
func TestCalibrationCacheFullCalibratesUncached(t *testing.T) {
	if testing.Short() {
		t.Skip("calibrates a system")
	}
	r := NewRunner()
	gate := make(chan struct{})
	defer close(gate)
	for i := 0; i < maxCachedSystems; i++ {
		if err := r.systems.Start(context.Background(), fmt.Sprint("in-flight-", i), func(context.Context) (*core.System, error) {
			<-gate
			return nil, errors.New("never used")
		}); err != nil {
			t.Fatal(err)
		}
	}
	sys, err := r.calibrated(config.Default(config.NonSecure))
	if err != nil || sys == nil {
		t.Fatalf("calibration with a full cache = %v, %v; want an uncached system", sys, err)
	}
	if n := r.systems.Len(); n != maxCachedSystems {
		t.Errorf("cache entries = %d, want the cap %d", n, maxCachedSystems)
	}
}

func TestRunnerSharedAcrossGoroutines(t *testing.T) {
	// One Runner, many concurrent Run calls: exercises the calibration
	// cache's single-flight behavior under the race detector.
	r := NewRunner()
	ctx := context.Background()
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			_, err := r.Run(ctx, "fig5")
			errs <- err
		}()
	}
	for i := 0; i < 4; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestCachedReturnsSameResult(t *testing.T) {
	r := NewRunner()
	ctx := context.Background()
	first, err := r.Cached(ctx, "tab2")
	if err != nil {
		t.Fatal(err)
	}
	if !r.ResultCached("tab2") {
		t.Error("ResultCached = false after Cached computed")
	}
	second, err := r.Cached(ctx, "tab2")
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Error("Cached recomputed: distinct *Result pointers for the same id")
	}
	// A memory hit starts no goroutine and builds no fill closure.
	if n := testing.AllocsPerRun(100, func() { _, _ = r.Cached(ctx, "tab2") }); n != 0 {
		t.Errorf("memory hit allocates %v times, want 0", n)
	}
	if r.ResultCached("tab1") {
		t.Error("ResultCached = true for an id never requested")
	}
}

func TestCachedConcurrentSingleFlight(t *testing.T) {
	// Many goroutines ask for the same id at once; they must all get the
	// one memoized Result (pointer identity proves a single computation).
	r := NewRunner()
	ctx := context.Background()
	const n = 8
	results := make(chan *Result, n)
	for i := 0; i < n; i++ {
		go func() {
			res, err := r.Cached(ctx, "gemm")
			if err != nil {
				t.Error(err)
				results <- nil
				return
			}
			results <- res
		}()
	}
	var first *Result
	for i := 0; i < n; i++ {
		res := <-results
		if res == nil {
			t.Fatal("Cached failed")
		}
		if first == nil {
			first = res
		} else if res != first {
			t.Fatal("concurrent Cached calls returned distinct results")
		}
	}
}

func TestRunAllSeedsResultCache(t *testing.T) {
	// tensorteed -warm relies on this: a RunAll populates the Cached
	// store, so the first Cached call per id is a memory hit, not a
	// recomputation.
	r := NewRunner(WithParallelism(2))
	ctx := context.Background()
	results, err := r.RunAll(ctx, "tab1", "tab2", "gemm")
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range []string{"tab1", "tab2", "gemm"} {
		if !r.ResultCached(id) {
			t.Errorf("%s not cached after RunAll", id)
		}
		res, err := r.Cached(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if res != results[i] {
			t.Errorf("%s: Cached recomputed instead of serving the RunAll result", id)
		}
	}
}

func TestCachedErrorsMemoized(t *testing.T) {
	r := NewRunner()
	ctx := context.Background()
	_, err1 := r.Cached(ctx, "bogus")
	if err1 == nil {
		t.Fatal("unknown experiment accepted")
	}
	_, err2 := r.Cached(ctx, "bogus")
	if err2 == nil {
		t.Fatal("unknown experiment accepted on second call")
	}
	if !r.ResultCached("bogus") {
		t.Error("error outcome not memoized")
	}
}

func TestCachedCancelledWaiterDoesNotPoison(t *testing.T) {
	r := NewRunner()
	// A first caller with a dead-on-arrival context must not block and
	// must not be recorded as the experiment's outcome.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Cached(cancelled, "tab1"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Cached on cancelled ctx = %v, want context.Canceled", err)
	}
	// A later caller with a live context gets the real result.
	res, err := r.Cached(context.Background(), "tab1")
	if err != nil {
		t.Fatalf("cache poisoned by the cancelled waiter: %v", err)
	}
	if res.ID != "tab1" {
		t.Fatalf("res.ID = %s", res.ID)
	}
}

func TestZeroValueRunnerCached(t *testing.T) {
	var r Runner
	res, err := r.Cached(context.Background(), "tab1")
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "tab1" {
		t.Fatalf("res.ID = %s", res.ID)
	}
}
