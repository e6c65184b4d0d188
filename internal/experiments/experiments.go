// Package experiments contains one generator per table and figure of the
// paper's evaluation (Section 6). Each generator runs the corresponding
// simulation and renders the same rows/series the paper reports, so the
// CLI (cmd/tensorteesim) and the benchmark harness (bench_test.go) share
// a single source of truth. EXPERIMENTS.md records paper-vs-measured for
// every generator.
package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"tensortee/internal/config"
	"tensortee/internal/core"
	"tensortee/internal/stats"
)

// Sweep runs n independent sweep points on a bounded worker pool
// (min(n, GOMAXPROCS) goroutines) and waits for all of them. Generators
// and the scenario engine use it to fan out thread-count and config
// points over per-point Sim instances; each job writes its result into
// its own slot, and the caller assembles rows in the original order
// afterwards, so the rendered output is identical to the serial sweep.
func Sweep(n int, job func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				job(i)
			}
		}()
	}
	wg.Wait()
}

// Report is one experiment's rendered result plus the key scalar outcomes
// that tests assert on.
type Report struct {
	ID     string
	Title  string
	Tables []*stats.Table
	Notes  []string
	// Scalars holds named headline numbers (e.g. "avg_speedup").
	Scalars map[string]float64
}

func newReport(id, title string) *Report {
	return &Report{ID: id, Title: title, Scalars: map[string]float64{}}
}

// String renders the report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	for _, t := range r.Tables {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	if len(r.Scalars) > 0 {
		keys := make([]string, 0, len(r.Scalars))
		for k := range r.Scalars {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "%s = %.4g\n", k, r.Scalars[k])
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Env carries the execution environment a generator runs under. The zero
// value (and a nil *Env) is valid: systems are then built and calibrated
// on demand, uncached — the historical behavior.
type Env struct {
	// Configs supplies calibrated systems for explicit (possibly
	// non-default) configurations; nil means core.NewSystemFromConfig,
	// uncached. Providers may cache: calibration is the expensive part of
	// building a system, and every returned *core.System is safe for
	// concurrent read-only use (TrainStep and friends construct their
	// per-call simulators fresh).
	Configs func(cfg config.Config) (*core.System, error)
}

// System resolves a calibrated system for kind's default configuration.
func (e *Env) System(kind config.SystemKind) (*core.System, error) {
	return e.SystemFromConfig(config.Default(kind))
}

// SystemFromConfig resolves a calibrated system for an explicit
// configuration through the provider (or directly, uncached).
func (e *Env) SystemFromConfig(cfg config.Config) (*core.System, error) {
	if e != nil && e.Configs != nil {
		return e.Configs(cfg)
	}
	return core.NewSystemFromConfig(cfg)
}

// Generator produces a report within an environment.
type Generator func(env *Env) (*Report, error)

// Experiment is one registry entry: the generator plus the paper-artifact
// metadata every consumer of the experiment index (CLI -list, the HTTP
// daemon's /v1/experiments, EXPERIMENTS.md) shares.
type Experiment struct {
	// ID is the stable experiment id (e.g. "fig16").
	ID string
	// Artifact names the paper artifact the experiment reproduces
	// (e.g. "Figure 16", "Table 1", "Section 6.2").
	Artifact string
	// About is a one-line description of what regenerates.
	About string
	// Heavy marks experiments that calibrate end-to-end systems or run
	// long iteration sweeps; harnesses may gate these in slow builds.
	Heavy bool
	// Gen produces the report.
	Gen Generator
}

// Registry maps experiment ids to generators, in the paper's order.
func Registry() []Experiment {
	return []Experiment{
		{"tab1", "Table 1", "System simulation configuration (CPU, NPU, interconnect)", false, Tab1},
		{"tab2", "Table 2", "The twelve LLM training workloads with derived parameter counts", false, Tab2},
		{"fig3", "Figure 3", "Motivation: SGX Adam-step slowdown vs thread count", true, Fig3},
		{"fig4", "Figure 4", "Optimizer tensor inventory: few tensors, large sizes", false, Fig4},
		{"fig5", "Figure 5", "GPT2-M step breakdown, Non-Secure vs SGX+MGX", true, Fig5},
		{"fig15", "Figures 7/15", "Compute/communication overlap: serialized baseline vs direct channel", true, Fig15},
		{"fig16", "Figure 16", "Headline: per-batch latency, all models x three systems", true, Fig16},
		{"fig17", "Figure 17", "Per-model phase breakdown across systems", true, Fig17},
		{"fig18", "Figure 18", "Meta Table hit-rate convergence across iterations", true, Fig18},
		{"fig19", "Figure 19", "CPU TEE comparison (SGX / SoftVN / TensorTEE) at iteration counts", true, Fig19},
		{"fig20", "Figure 20", "NPU MAC granularity sweep vs delayed tensor verification", false, Fig20},
		{"fig21", "Figure 21", "Gradient-transfer decomposition: staged re-encryption vs direct", true, Fig21},
		{"gemm", "Section 6.2", "Tiled-GEMM tensor detection (~98.8% hit_in after one pass)", false, GEMMDetection},
		{"hw", "Section 6.5", "On-chip storage accounting (~24 KB total)", false, HardwareOverhead},
	}
}

// Run finds and runs one experiment by id with an on-demand environment.
func Run(id string) (*Report, error) {
	return RunWith(nil, id)
}

// RunWith finds and runs one experiment by id under env.
func RunWith(env *Env, id string) (*Report, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e.Gen(env)
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q", id)
}
