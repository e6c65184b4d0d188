package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"tensortee"
)

// workers is the closed-loop worker (or client) count of every workload:
// the two CPUs of the machine the bounds were fixed on.
const workers = 2

// setupReps is how many times each workload sets up; setup_s is the median.
const setupReps = 5

// minBatches is the least number of timed batches behind a median rate.
const minBatches = 15

// figIDs are the CPU-TEE figures cpu-tee-figs regenerates; smokeFigIDs
// stand in for them in harness tests (light figures with goldens too).
var (
	figIDs      = []string{"fig18", "fig19"}
	smokeFigIDs = []string{"gemm", "hw"}
)

// goldenExts are the three renderings TestGoldenOutputs pins per figure.
var goldenExts = []string{"txt", "json", "csv"}

// goldens holds reference renderings by experiment id and extension.
type goldens map[string]map[string][]byte

// loadGoldens reads testdata/golden/<id>.{txt,json,csv} under root.
func loadGoldens(root string, ids []string) (goldens, error) {
	g := make(goldens, len(ids))
	for _, id := range ids {
		g[id] = make(map[string][]byte, len(goldenExts))
		for _, ext := range goldenExts {
			b, err := os.ReadFile(filepath.Join(root, "testdata", "golden", id+"."+ext))
			if err != nil {
				return nil, fmt.Errorf("reading reference: %w", err)
			}
			g[id][ext] = b
		}
	}
	return g, nil
}

// renderings renders a result the way TestGoldenOutputs does: Elapsed
// zeroed, JSON with a trailing newline.
func renderings(res *tensortee.Result) (map[string][]byte, error) {
	clone := *res
	clone.Elapsed = 0
	j, err := clone.JSON()
	if err != nil {
		return nil, err
	}
	return map[string][]byte{
		"txt":  []byte(clone.Text()),
		"json": append(j, '\n'),
		"csv":  []byte(clone.CSV()),
	}, nil
}

// checkGolden reports the first rendering of res that differs from want.
func checkGolden(res *tensortee.Result, want map[string][]byte) error {
	got, err := renderings(res)
	if err != nil {
		return err
	}
	for _, ext := range goldenExts {
		if !bytes.Equal(got[ext], want[ext]) {
			return fmt.Errorf("%s.%s differs from its golden (%d vs %d bytes)", res.ID, ext, len(got[ext]), len(want[ext]))
		}
	}
	return nil
}

type figsState struct {
	runner *tensortee.Runner
	want   goldens
}

// figsPass regenerates ids on r, one goroutine per worker, and returns the
// results in ids order, each figure's wall time in ms and the pass's wall
// time in s. Each figure runs through Runner.RunAll, which computes it
// afresh on every pass.
func figsPass(ctx context.Context, r *tensortee.Runner, ids []string, tr *tracer, parent int) ([]*tensortee.Result, []float64, float64, error) {
	results := make([]*tensortee.Result, len(ids))
	figMS := make([]float64, len(ids))
	errs := make([]error, len(ids))
	next := make(chan int, len(ids))
	for i := range ids {
		next <- i
	}
	close(next)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(ids)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				sp := tr.begin("experiments."+ids[i], parent)
				t0 := time.Now()
				out, err := r.RunAll(ctx, ids[i])
				figMS[i] = float64(time.Since(t0)) / 1e6
				tr.end(sp, "")
				if err != nil {
					errs[i] = err
					continue
				}
				results[i] = out[0]
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	for _, err := range errs {
		if err != nil {
			return nil, nil, 0, err
		}
	}
	return results, figMS, wall, nil
}

// checkFigs counts each regenerated figure as an operation and records a
// mismatch for any rendering that differs from its golden.
func checkFigs(rep *report, results []*tensortee.Result, want goldens) {
	for _, res := range results {
		err := checkGolden(res, want[res.ID])
		rep.op(err)
		if err != nil {
			rep.mismatch("%v", err)
		}
	}
}

// runFigs is the cpu-tee-figs workload: fig18 and fig19 regenerated on a
// fresh Runner without a store, two figures at a time, byte-compared
// against their goldens.
func runFigs(ctx context.Context, rc *runConfig, rep *report) error {
	ids := figIDs
	if rc.smoke {
		ids = smokeFigIDs
	}
	st, setup, err := timeSetup(setupReps, func() (*figsState, error) {
		want, err := loadGoldens(rc.root, ids)
		if err != nil {
			return nil, err
		}
		r, err := readyRunner(ctx)
		if err != nil {
			return nil, err
		}
		return &figsState{runner: r, want: want}, nil
	}, func(*figsState) {})
	if err != nil {
		return err
	}

	if rc.trace {
		return tracedPass(ctx, rc, rep, func(tr *tracer, parent int) (float64, error) {
			results, _, wall, err := figsPass(ctx, st.runner, ids, tr, parent)
			if err != nil {
				return 0, err
			}
			checkFigs(rep, results, st.want)
			if tr != nil {
				reportFigSpans(rep, tr, ids)
			}
			return wall, nil
		})
	}

	rep.set("setup_s", setup, "s")
	var walls, rates, figMS []float64
	start := time.Now()
	for passes := 0; rc.measureFor(start, passes); passes++ {
		results, ms, wall, err := figsPass(ctx, st.runner, ids, nil, 0)
		if err != nil {
			return err
		}
		checkFigs(rep, results, st.want)
		walls = append(walls, wall)
		rates = append(rates, float64(len(ids))/wall)
		figMS = append(figMS, ms...)
	}
	rep.set("wall_s", median(walls), "s")
	rep.set("points_per_s", median(rates), "points/s")
	// Every request of this workload is a figure fill, and nothing is
	// restored: without a store, the figure rate stands in for both.
	rep.set("restore_points_per_s", median(rates), "points/s")
	rep.set("req_per_s", median(rates), "req/s")
	rep.set("req_p50_ms", median(figMS), "ms")
	rep.set("req_p99_ms", tail(figMS), "ms")
	rep.set("fill_p50_ms", median(figMS), "ms")
	rep.set("fill_p99_ms", tail(figMS), "ms")
	return nil
}

// reportFigSpans turns the traced figure spans into experiments.<id>_s.
func reportFigSpans(rep *report, tr *tracer, ids []string) {
	for _, id := range ids {
		if ms := tr.durations("experiments."+id, ""); len(ms) > 0 {
			rep.set("experiments."+id+"_s", median(ms)/1e3, "s")
		}
	}
}
