package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"tensortee/internal/campaign"
)

// repoRoot is the checkout the benchmark directory sits in.
const repoRoot = ".."

// smoke runs one workload at its smoke size and returns its report.
func smoke(t *testing.T, workload, root string, trace bool) *report {
	t.Helper()
	rc := &runConfig{workload: workload, seed: 7, seconds: 0.2, trace: trace, root: root, out: t.TempDir(), smoke: true}
	if trace {
		rc.tr = newTracer()
	}
	rep := newReport()
	if err := workloads[workload](context.Background(), rc, rep); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return rep
}

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestMixGenDeterministic(t *testing.T) {
	ids := serveIDs(false)
	seq := func(seed int64, client int) []op {
		g := newMixGen(seed, client, ids)
		ops := make([]op, 2000)
		for i := range ops {
			ops[i] = g.next()
		}
		return ops
	}
	if a, b := seq(3, 0), seq(3, 0); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and client gave different mixes")
	}
	if reflect.DeepEqual(seq(3, 0), seq(4, 0)) || reflect.DeepEqual(seq(3, 0), seq(3, 1)) {
		t.Fatal("different seeds or clients gave the same mix")
	}

	counts := make(map[opKind]int)
	paths := make(map[string]int)
	const n = 40000
	g := newMixGen(1, 0, ids)
	for i := 0; i < n; i++ {
		o := g.next()
		counts[o.kind]++
		if o.kind == opMisc {
			paths[o.path]++
		}
		if o.kind == opLookup && (o.lookup < 0 || o.lookup >= g.posts) {
			t.Fatalf("lookup %d of %d posts", o.lookup, g.posts)
		}
	}
	want := map[opKind]float64{opGet: 0.60, opRevalidate: 0.15, opMisc: 0.05, opPost: 0.15, opLookup: 0.05}
	for k, w := range want {
		if got := float64(counts[k]) / n; math.Abs(got-w) > 0.01 {
			t.Errorf("op kind %d: share %.3f, want %.2f", k, got, w)
		}
	}
	// The misc slice is split evenly over its paths.
	for _, p := range miscPaths {
		if got := float64(paths[p]) / n; math.Abs(got-0.05/float64(len(miscPaths))) > 0.004 {
			t.Errorf("misc path %s: share %.4f, want %.4f", p, got, 0.05/float64(len(miscPaths)))
		}
	}
}

func TestGridSpecDeterministic(t *testing.T) {
	if !reflect.DeepEqual(gridSpec(5, false), gridSpec(5, false)) {
		t.Fatal("same seed gave different grids")
	}
	if reflect.DeepEqual(gridSpec(5, false).Base.Model, gridSpec(6, false).Base.Model) {
		t.Fatal("seeds 5 and 6 drew the same model")
	}
	for seed := int64(1); seed <= 50; seed++ {
		plan, err := campaign.Compile(gridSpec(seed, false))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if plan.Total != 24 {
			t.Fatalf("seed %d: %d points, want 24", seed, plan.Total)
		}
	}
}

func TestPercentile(t *testing.T) {
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{[]float64{4, 1, 3, 2}, 50, 2.5},
		{[]float64{4, 1, 3, 2}, 25, 1.75},
		{[]float64{4, 1, 3, 2}, 0, 1},
		{[]float64{4, 1, 3, 2}, 100, 4},
		{[]float64{3, 1, 2}, 50, 2},
		{[]float64{7}, 99, 7},
		{[]float64{10, 20}, 99, 19.9},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v, %g) = %g, want %g", c.xs, c.p, got, c.want)
		}
	}
	var hundred []float64
	for i := 1; i <= 100; i++ {
		hundred = append(hundred, float64(i))
	}
	if got := percentile(hundred, 99); math.Abs(got-99.01) > 1e-9 {
		t.Errorf("p99 of 1..100 = %g, want 99.01", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of an empty sample is not NaN")
	}

	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	tails := []struct {
		n    int
		want float64
	}{
		{2, 1.5},       // median: no percentile has ten samples beyond it
		{24, 14.41667}, // p58.3, ten of 24 beyond it: rank 13.4167
		{1000, 990.01}, // p99, exactly ten beyond it
		{5000, 4950.01},
	}
	for _, c := range tails {
		if got := tail(seq(c.n)); math.Abs(got-c.want) > 1e-4 {
			t.Errorf("tail of 1..%d = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "pass", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "req", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "req", Start: 30 * ms, End: 60 * ms}, // overlaps 2
		{ID: 4, Parent: 3, Name: "store", Start: 35 * ms, End: 45 * ms},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 50 * ms, 2: 30 * ms, 3: 20 * ms, 4: 10 * ms}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
}

func TestPackageShares(t *testing.T) {
	top := `File: perfbench
Showing nodes accounting for 10s, 100% of 10s total
      flat  flat%   sum%        cum   cum%
     4.00s 40.00% 40.00%      6.00s 60.00%  tensortee/internal/cpusim.(*Sim).Run
     2.50s 25.00% 65.00%      2.50s 25.00%  tensortee/internal/cache.(*Cache).Access (inline)
     1.00s 10.00% 75.00%      1.00s 10.00%  tensortee/internal/cpusim.(*Sim).access
     1.00s 10.00% 85.00%      1.00s 10.00%  runtime.mallocgc
     0.50s  5.00% 90.00%      0.50s  5.00%  tensortee.(*Runner).Run
     1.00s 10.00%   100%      1.00s 10.00%  net/http.(*conn).serve
`
	got := packageShares(top)
	want := map[string]float64{"internal/cpusim": 50, "internal/cache": 25, "runtime": 10, "tensortee": 5, "net/http": 10}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("shares %v, want %v", got, want)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSmokeWorkloadsEmitEveryMetric runs every workload at its smoke size
// and checks that each end-to-end metric BENCHMARK.json names is emitted,
// and that a traced run emits every per-layer metric.
func TestSmokeWorkloadsEmitEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, m := range append(bf.EndToEnd, bf.PerLayer...) {
		if !metricName.MatchString(m.Name) {
			t.Errorf("metric name %q", m.Name)
		}
	}
	for _, w := range bf.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	for _, w := range bf.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			rep := smoke(t, w.Name, repoRoot, false)
			rep.set("peak_rss_mb", peakRSSMB(), "MB") // set by run() after the workload
			assertEmitted(t, rep, bf.EndToEnd)
		})
	}
	t.Run("traced", func(t *testing.T) {
		if testing.Short() {
			t.Skip("the traced smoke runs every per-layer driver")
		}
		rep := smoke(t, "campaign-grid", repoRoot, true)
		var want []struct{ Name, Unit string }
		for _, m := range bf.PerLayer {
			// The smoke size regenerates light figures in place of
			// fig18/fig19.
			if strings.HasPrefix(m.Name, "experiments.") {
				continue
			}
			want = append(want, m)
		}
		for _, id := range smokeFigIDs {
			want = append(want, struct{ Name, Unit string }{"experiments." + id + "_s", "s"})
		}
		assertEmitted(t, rep, want)
	})
}

func assertEmitted(t *testing.T, rep *report, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(rep.mismatches) > 0 || rep.failed > 0 || rep.attempted == 0 {
		t.Fatalf("attempted %d, failed %d, mismatches %v", rep.attempted, rep.failed, rep.mismatches)
	}
	for _, m := range want {
		got, ok := rep.metrics[m.Name]
		if !ok {
			t.Errorf("metric %s not emitted", m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
		if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			t.Errorf("metric %s = %v", m.Name, got.Value)
		}
	}
	for name := range rep.metrics {
		if !metricName.MatchString(name) {
			t.Errorf("emitted metric name %q", name)
		}
	}
}

// TestTamperedReferenceFailsGate flips one byte of a golden and checks
// that the run reports the mismatch, prints correct=false and exits
// non-zero.
func TestTamperedReferenceFailsGate(t *testing.T) {
	root := t.TempDir()
	dst := filepath.Join(root, "testdata", "golden")
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, id := range smokeFigIDs {
		for _, ext := range goldenExts {
			b, err := os.ReadFile(filepath.Join(repoRoot, "testdata", "golden", id+"."+ext))
			if err != nil {
				t.Fatal(err)
			}
			if id == smokeFigIDs[0] && ext == "csv" {
				b[len(b)/2] ^= 1
			}
			if err := os.WriteFile(filepath.Join(dst, id+"."+ext), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	rep := smoke(t, "cpu-tee-figs", root, false)
	if len(rep.mismatches) == 0 {
		t.Fatal("a tampered golden passed the gate")
	}

	var out bytes.Buffer
	rc := &runConfig{workload: "cpu-tee-figs", seed: 1, root: root, out: t.TempDir()}
	printReport(&out, rc, rep)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res output
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct {
		t.Fatal("result line says correct")
	}
}

func TestTamperedCounterFailsGate(t *testing.T) {
	rep := newReport()
	got := map[string]uint64{}
	for k, v := range referenceCounters["dram"] {
		got[k] = v
	}
	checkCounters(rep, "dram", got)
	if len(rep.mismatches) != 0 {
		t.Fatalf("reference counters mismatch themselves: %v", rep.mismatches)
	}
	got["run.end_ps"]++
	checkCounters(rep, "dram", got)
	if len(rep.mismatches) != 1 {
		t.Fatalf("a moved counter gave %d mismatches, want 1", len(rep.mismatches))
	}
}

func TestTamperedScenarioFailsGate(t *testing.T) {
	g := newMixGen(1, 0, serveIDs(true))
	o := g.next()
	for o.kind != opPost {
		o = g.next()
	}
	rep := newReport()
	body := []byte(`{"id":"scenario:tampered"}`)
	if err := checkPosts(context.Background(), []postRecord{{spec: o.spec, format: "json", ok: true, body: body}}, rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.mismatches) != 1 {
		t.Fatalf("a tampered scenario body gave %d mismatches, want 1", len(rep.mismatches))
	}
}

// TestRunRejectsBadFlags checks the command line: an unknown workload or
// trace value exits non-zero before any result is printed.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "serve-mix", "--trace", "2"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
