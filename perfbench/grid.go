package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"tensortee"
	"tensortee/internal/campaign"
	"tensortee/internal/scenario"
	"tensortee/internal/store"
)

// gridModel draws the seeded custom transformer the grid campaign runs on.
func gridModel(seed int64) scenario.ModelSpec {
	return randomModel(rand.New(rand.NewSource(seed)))
}

// gridSpec is the seeded grid campaign: npu_aes_engines x link_gbs x
// meta_cache_kb (24 points) over sgx-mgx and tensortee. No point is a
// Table-1 default, so none reuses a set-up calibration. The smoke grid
// keeps two points that are not defaults either.
func gridSpec(seed int64, smoke bool) campaign.Spec {
	axes := []campaign.Axis{
		{Axis: "npu_aes_engines", Values: []float64{1, 2, 4, 8}},
		{Axis: "link_gbs", Values: []float64{16, 32, 64}},
		{Axis: "meta_cache_kb", Values: []float64{64, 256}},
	}
	if smoke {
		axes = []campaign.Axis{{Axis: "npu_aes_engines", Values: []float64{2, 4}}}
	}
	return campaign.Spec{
		Name: fmt.Sprintf("grid-%d", seed),
		Base: scenario.Spec{
			Name:    "grid",
			Model:   gridModel(seed),
			Systems: []scenario.SystemSpec{{Kind: "sgx-mgx"}, {Kind: "tensortee"}},
		},
		Axes: axes,
	}
}

// pointRecorder is the benchmark's campaign RunFunc: it runs each point
// through Runner.RunScenarioCached exactly as tensorteed's manager does,
// timing the call and keeping the payload for the correctness gate.
type pointRecorder struct {
	tr     *tracer
	parent int

	mu       sync.Mutex
	ms       []float64
	payloads map[string][]byte // by scenario fingerprint
}

func (p *pointRecorder) runFunc(r *tensortee.Runner) campaign.RunFunc {
	return func(ctx context.Context, spec scenario.Spec) ([]byte, error) {
		sp := p.tr.begin("campaign.point", p.parent)
		t0 := time.Now()
		res, _, err := r.RunScenarioCached(ctx, spec)
		var payload []byte
		if err == nil {
			payload, err = res.EncodeStored()
		}
		ms := float64(time.Since(t0)) / 1e6
		p.tr.end(sp, "")
		p.mu.Lock()
		defer p.mu.Unlock()
		p.ms = append(p.ms, ms)
		if err == nil {
			p.payloads[spec.Fingerprint()] = payload
		}
		return payload, err
	}
}

// gridEnv is one pass's environment: a fresh temp-dir store, a Runner
// writing through to it, and a campaign manager running points on it.
type gridEnv struct {
	dir    string
	st     *store.Store
	runner *tensortee.Runner
	rec    *pointRecorder
	mgr    *campaign.Manager
}

func newGridEnv(ctx context.Context, tmp string) (*gridEnv, error) {
	dir, err := os.MkdirTemp(tmp, "grid-")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	r, err := readyRunner(ctx, tensortee.WithStore(st))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	rec := &pointRecorder{payloads: make(map[string][]byte)}
	return &gridEnv{dir: dir, st: st, runner: r, rec: rec, mgr: newGridManager(st, rec.runFunc(r))}, nil
}

// newGridManager builds a manager with the workload's worker count and no
// retries, so a failing point shows as failed.
func newGridManager(st *store.Store, run campaign.RunFunc) *campaign.Manager {
	return campaign.NewManager(campaign.Config{Run: run, Store: st, Workers: workers, Retries: 0})
}

func (e *gridEnv) close() {
	shutdown(e.mgr)
	os.RemoveAll(e.dir)
}

func shutdown(m *campaign.Manager) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = m.Shutdown(ctx) // every job has finished; nothing is left to drain
}

// runCampaign starts spec on m and waits for it to finish.
func runCampaign(ctx context.Context, m *campaign.Manager, spec campaign.Spec) (campaign.Status, float64, error) {
	t0 := time.Now()
	st, _, err := m.Start(spec)
	if err != nil {
		return campaign.Status{}, 0, err
	}
	final, err := m.Wait(ctx, st.ID)
	return final, time.Since(t0).Seconds(), err
}

// gridPassResult is one computed pass plus its restore passes.
type gridPassResult struct {
	computedWall float64
	restoreWalls []float64
	total        int
	calibrations int
}

// gridPass computes the campaign on env, counts every point as an
// operation, then restores it with a fresh Runner and manager over the
// same store, at least minRestores times and for at least restoreFor.
func gridPass(ctx context.Context, env *gridEnv, spec campaign.Spec, minRestores int, restoreFor time.Duration, rep *report) (gridPassResult, error) {
	var out gridPassResult
	setupCalibrations := len(env.st.Keys(store.Calibrations))
	final, wall, err := runCampaign(ctx, env.mgr, spec)
	if err != nil {
		return out, err
	}
	out.computedWall, out.total = wall, final.Total
	for i := 0; i < final.Computed; i++ {
		rep.op(nil)
	}
	for _, f := range final.Failures {
		rep.op(fmt.Errorf("point %s: %s", f.Point, f.Error))
	}
	if final.Computed+len(final.Failures) != final.Total {
		return out, fmt.Errorf("computed pass settled %d of %d points", final.Computed+len(final.Failures), final.Total)
	}
	out.calibrations = len(env.st.Keys(store.Calibrations)) - setupCalibrations

	for start := time.Now(); len(out.restoreWalls) < minRestores || time.Since(start) < restoreFor; {
		fresh := tensortee.NewRunner(tensortee.WithStore(env.st))
		m := newGridManager(env.st, (&pointRecorder{payloads: make(map[string][]byte)}).runFunc(fresh))
		st, wall, err := runCampaign(ctx, m, spec)
		shutdown(m)
		if err != nil {
			return out, err
		}
		if st.Restored != st.Total || st.Computed != 0 {
			rep.mismatch("restore pass restored %d and recomputed %d of %d points", st.Restored, st.Computed, st.Total)
		}
		out.restoreWalls = append(out.restoreWalls, wall)
	}
	return out, nil
}

// checkGrid is the campaign correctness gate: every computed payload must
// be what the store restores, and a seeded sample of points must match a
// fresh, uncached Runner.RunScenario of the same spec.
func checkGrid(ctx context.Context, env *gridEnv, spec campaign.Spec, seed int64, samples int, rep *report) error {
	stored := make(map[string]bool)
	for _, k := range env.st.Keys(store.Campaigns) {
		if b, ok := env.st.Get(store.Campaigns, k); ok {
			stored[string(b)] = true
		}
	}
	env.rec.mu.Lock()
	payloads := env.rec.payloads
	env.rec.mu.Unlock()
	for fp, p := range payloads {
		if !stored[string(p)] {
			rep.mismatch("campaign point %s: computed payload not restorable from the store", fp)
		}
	}

	plan, err := campaign.Compile(spec)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < samples; i++ {
		pspec, label, err := plan.Point(rng.Intn(plan.Total))
		if err != nil {
			return err
		}
		res, err := tensortee.NewRunner().RunScenario(ctx, pspec)
		if err != nil {
			return err
		}
		want, err := res.EncodeStored()
		if err != nil {
			return err
		}
		if got := payloads[pspec.Fingerprint()]; !bytes.Equal(got, want) {
			rep.mismatch("campaign point %s differs from a fresh RunScenario", label)
		}
	}
	return nil
}

// runGrid is the campaign-grid workload: the seeded grid computed on a
// fresh temp-dir store with two workers, then restored.
func runGrid(ctx context.Context, rc *runConfig, rep *report) error {
	tmp := filepath.Join(rc.out, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	spec := gridSpec(rc.seed, rc.smoke)
	env, setup, err := timeSetup(setupReps, func() (*gridEnv, error) { return newGridEnv(ctx, tmp) }, (*gridEnv).close)
	if err != nil {
		return err
	}
	// Each pass needs a store without the grid's points, so every pass
	// after the first gets its own environment.
	nextEnv := func() (*gridEnv, error) {
		if env != nil {
			e := env
			env = nil
			return e, nil
		}
		return newGridEnv(ctx, tmp)
	}

	if rc.trace {
		// Both passes' environments exist before either runs, so the
		// profiled pass does not include a set-up.
		envs := []*gridEnv{env, nil}
		if envs[1], err = newGridEnv(ctx, tmp); err != nil {
			env.close()
			return err
		}
		checked := false
		return tracedPass(ctx, rc, rep, func(tr *tracer, parent int) (float64, error) {
			e := envs[0]
			envs = envs[1:]
			defer e.close()
			e.rec.tr, e.rec.parent = tr, parent
			res, err := gridPass(ctx, e, spec, 1, 0, rep)
			if err != nil {
				return 0, err
			}
			if !checked {
				checked = true
				if err := checkGrid(ctx, e, spec, rc.seed, 1, rep); err != nil {
					return 0, err
				}
			}
			if tr != nil {
				reportCampaignLayer(rep, tr, res)
			}
			return res.computedWall, nil
		})
	}

	rep.set("setup_s", setup, "s")
	var walls, rates, restoreRates, pointMS []float64
	start := time.Now()
	for passes := 0; rc.measureFor(start, passes); passes++ {
		e, err := nextEnv()
		if err != nil {
			return err
		}
		res, err := gridPass(ctx, e, spec, minBatches, rc.measureWindow(0.3), rep)
		if err == nil && passes == 0 {
			err = checkGrid(ctx, e, spec, rc.seed, 2, rep)
		}
		pointMS = append(pointMS, e.rec.ms...)
		e.close()
		if err != nil {
			return err
		}
		walls = append(walls, res.computedWall)
		rates = append(rates, float64(res.total)/res.computedWall)
		for _, w := range res.restoreWalls {
			restoreRates = append(restoreRates, float64(res.total)/w)
		}
	}
	rep.set("wall_s", median(walls), "s")
	rep.set("points_per_s", median(rates), "points/s")
	rep.set("restore_points_per_s", sustainedRate(restoreRates), "points/s")
	// Every request of this workload is a computed point.
	rep.set("req_per_s", median(rates), "req/s")
	rep.set("req_p50_ms", median(pointMS), "ms")
	rep.set("req_p99_ms", tail(pointMS), "ms")
	rep.set("fill_p50_ms", median(pointMS), "ms")
	rep.set("fill_p99_ms", tail(pointMS), "ms")
	return nil
}

// reportCampaignLayer turns a traced pass into the campaign layer metrics:
// the median point time and calibration snapshots per computed point.
func reportCampaignLayer(rep *report, tr *tracer, res gridPassResult) {
	rep.set("campaign.point_ms.p50", median(tr.durations("campaign.point", "")), "ms")
	rep.set("campaign.calibrations_per_point", float64(res.calibrations)/float64(res.total), "ratio")
}
