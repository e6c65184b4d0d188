// Command perfbench is the repository benchmark. It drives the simulator
// stack, campaigns and the tensorteed HTTP handler in-process, checks every
// simulated output against a reference, and prints host-time metrics by
// name and unit. README.md describes the workloads and metrics.
//
//	perfbench --workload cpu-tee-figs --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the per-layer drivers and a traced pass and prints the per-layer
// metrics. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 2, "failed": 0, "metrics": {...}}
//
// The exit code is non-zero when any output differs from its reference.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"tensortee"
)

// workloads maps each --workload name to its runner.
var workloads = map[string]func(ctx context.Context, rc *runConfig, rep *report) error{
	"cpu-tee-figs":  runFigs,
	"campaign-grid": runGrid,
	"serve-mix":     runServe,
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// root is the repository checkout (goldens are read from it).
	root string
	// out receives spans, the CPU profile and the run summary.
	out string
	// smoke shrinks every workload to a few seconds (harness tests).
	smoke bool
	tr    *tracer // nil in untraced runs
}

// measureFor reports whether another measured pass should start: always
// the first, then until the run's seconds are spent.
func (rc *runConfig) measureFor(start time.Time, passes int) bool {
	return passes == 0 || time.Since(start).Seconds() < rc.seconds
}

// measureWindow is the given share of the run's seconds: the length of a
// measurement that follows a workload's main pass.
func (rc *runConfig) measureWindow(share float64) time.Duration {
	return time.Duration(share * rc.seconds * float64(time.Second))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates one run's outcome.
type report struct {
	metrics   map[string]metric
	attempted int
	failed    int
	// mismatches lists outputs that differ from their reference; any one
	// makes the run incorrect.
	mismatches []string
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// mismatch records an output that differs from its reference.
func (r *report) mismatch(format string, args ...any) {
	r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
}

// op counts one attempted operation, failed when err is non-nil.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.failed <= 5 {
			fmt.Fprintf(os.Stderr, "perfbench: failed: %v\n", err)
		}
	}
}

// output is the result line's schema.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "cpu-tee-figs, campaign-grid or serve-mix")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds per run (at least one pass runs)")
	trace := fs.Int("trace", 0, "1 runs the per-layer drivers and a traced pass")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	// The benchmark runs from the checkout root.
	rc := &runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, root: ".",
		out: filepath.Join(".bench_out", fmt.Sprintf("%s-s%d-t%d", *workload, *seed, *trace))}
	if err := os.MkdirAll(rc.out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if rc.trace {
		rc.tr = newTracer()
	}

	rep := newReport()
	if err := fn(context.Background(), rc, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if !rc.trace {
		rep.set("peak_rss_mb", peakRSSMB(), "MB")
	}
	for n, m := range rep.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s is %v\n", n, m.Value)
			return 1
		}
	}
	if err := writeSummary(rc, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	printReport(stdout, rc, rep)
	for _, m := range rep.mismatches {
		fmt.Fprintf(stderr, "perfbench: output mismatch: %s\n", m)
	}
	if len(rep.mismatches) > 0 {
		return 1
	}
	return 0
}

// environment names what a run's numbers depend on besides the code.
func environment(rc *runConfig) string {
	return fmt.Sprintf("workload=%s seed=%d seconds=%g trace=%t nproc=%d GOMAXPROCS=%d go=%s os=%s/%s",
		rc.workload, rc.seed, rc.seconds, rc.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// printReport writes the human-readable metric table, then the JSON
// result as the last line.
func printReport(w io.Writer, rc *runConfig, rep *report) {
	fmt.Fprintf(w, "# %s\n", environment(rc))
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.metrics[n]
		fmt.Fprintf(w, "%-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "# attempted=%d failed=%d mismatches=%d\n", rep.attempted, rep.failed, len(rep.mismatches))
	// run has checked every value is finite, the only way Marshal fails here.
	b, _ := json.Marshal(output{
		Correct:   len(rep.mismatches) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	})
	fmt.Fprintf(w, "%s\n", b)
}

// writeSummary keeps the run's environment, metrics and mismatches beside
// its spans, and writes the spans collected by a traced run.
func writeSummary(rc *runConfig, rep *report) error {
	var b strings.Builder
	printReport(&b, rc, rep)
	for _, m := range rep.mismatches {
		fmt.Fprintf(&b, "mismatch: %s\n", m)
	}
	if err := os.WriteFile(filepath.Join(rc.out, "summary.txt"), []byte(b.String()), 0o644); err != nil {
		return err
	}
	if rc.tr == nil {
		return nil
	}
	return rc.tr.write(rc.out)
}

// peakRSSMB is the process's peak resident set size in MB (Linux reports
// ru_maxrss in KB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// readyRunner builds a Runner with the workload's worker count and the
// three Table-1 systems calibrated, the start-up every Runner-backed
// surface pays before its first request.
func readyRunner(ctx context.Context, opts ...tensortee.RunnerOption) (*tensortee.Runner, error) {
	opts = append(opts, tensortee.WithParallelism(workers),
		tensortee.WithSystems(tensortee.NonSecure, tensortee.BaselineSGXMGX, tensortee.TensorTEE))
	r := tensortee.NewRunner(opts...)
	// Any run calibrates the declared systems first; tab1 itself is instant.
	if _, err := r.Run(ctx, "tab1"); err != nil {
		return nil, err
	}
	return r, nil
}

// timeSetup builds a workload's state reps times and reports the median
// set-up time in seconds. Each build starts after a garbage collection, so
// none pays for the garbage of the one before. Every state but the last is
// torn down; the caller owns the last.
func timeSetup[T any](reps int, build func() (T, error), teardown func(T)) (T, float64, error) {
	var last T
	var secs []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		start := time.Now()
		st, err := build()
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		if i < reps-1 {
			teardown(st)
		} else {
			last = st
		}
	}
	return last, median(secs), nil
}
