package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"tensortee"
	"tensortee/internal/cache"
	"tensortee/internal/config"
	"tensortee/internal/core"
	"tensortee/internal/cpusim"
	"tensortee/internal/dram"
	"tensortee/internal/mee"
	"tensortee/internal/npumac"
	"tensortee/internal/npusim"
	"tensortee/internal/sim"
	"tensortee/internal/store"
	"tensortee/internal/tenanalyzer"
	"tensortee/internal/tensor"
	"tensortee/internal/trace"
	"tensortee/internal/workload"
)

// driverCtx is what a per-layer driver gets: the run, the report, the
// driver's span and the simulated counters it observed.
type driverCtx struct {
	rc       *runConfig
	rep      *report
	parent   int
	counters map[string]uint64
}

// timed runs fn inside a span named name and returns its wall time per
// unit of work in ns.
func (d *driverCtx) timed(name string, units int, fn func()) float64 {
	sp := d.rc.tr.begin(name, d.parent)
	t0 := time.Now()
	fn()
	el := time.Since(t0)
	d.rc.tr.end(sp, "")
	return float64(el.Nanoseconds()) / float64(units)
}

// count records a simulated counter for the reference check.
func (d *driverCtx) count(name string, v uint64) { d.counters[name] = v }

// layerDriver feeds one layer the inputs the workloads feed it. A layer
// that a workload's own traced pass already reports is skipped there.
type layerDriver struct {
	name       string
	suppliedBy string // workload whose traced pass reports this layer
	run        func(ctx context.Context, d *driverCtx) error
}

var ladder = []layerDriver{
	{"cache", "", driveCache},
	{"mee", "", driveMEE},
	{"dram", "", driveDRAM},
	{"tenanalyzer", "", driveAnalyzer},
	{"cpusim", "", driveCPUSim},
	{"npusim", "", driveNPU},
	{"core", "", driveCore},
	{"store", "", driveStore},
	{"runner", "", driveRunner},
	{"experiments", "cpu-tee-figs", driveExperiments},
	{"campaign", "campaign-grid", driveCampaign},
	{"server", "serve-mix", driveServer},
}

// runLadder runs every driver the workload does not cover itself, checks
// their simulated counters against the references, and writes the
// observed counters to counters.txt.
func runLadder(ctx context.Context, rc *runConfig, rep *report) error {
	var lines []string
	for _, l := range ladder {
		if l.suppliedBy == rc.workload {
			continue
		}
		d := &driverCtx{rc: rc, rep: rep, counters: make(map[string]uint64)}
		d.parent = rc.tr.begin("driver."+l.name, 0)
		err := l.run(ctx, d)
		rc.tr.end(d.parent, "")
		if err != nil {
			return fmt.Errorf("%s driver: %w", l.name, err)
		}
		for _, k := range sortedKeys(d.counters) {
			lines = append(lines, fmt.Sprintf("%s.%s %d", l.name, k, d.counters[k]))
		}
		checkCounters(rep, l.name, d.counters)
	}
	return os.WriteFile(filepath.Join(rc.out, "counters.txt"), []byte(strings.Join(lines, "\n")+"\n"), 0o644)
}

func sortedKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// checkCounters compares a driver's simulated counters with the fixed
// references: a host-only speed-up must leave every one unchanged.
func checkCounters(rep *report, layer string, got map[string]uint64) {
	want := referenceCounters[layer]
	for _, k := range sortedKeys(got) {
		w, ok := want[k]
		switch {
		case !ok:
			rep.mismatch("%s.%s = %d has no reference", layer, k, got[k])
		case w != got[k]:
			rep.mismatch("%s.%s = %d, reference %d", layer, k, got[k], w)
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			rep.mismatch("%s.%s was not observed", layer, k)
		}
	}
}

// lineBytes is the cacheline size of every Table-1 configuration.
const lineBytes = 64

// fig19Bytes is fig18/fig19's sampled optimizer-state footprint.
const fig19Bytes = 64 << 20

// fig19Inventory lays out fig19's GPT2-M optimizer state the way the
// experiment does: one w/g/m/v quad per layer group, scaled to 64 MB, on
// the Table-1 CPU with its caches scaled down to match.
func fig19Inventory() (config.Config, []trace.AdamTensors, int) {
	cfg := config.Default(config.BaselineSGXMGX)
	cfg.CPU.L1SizeBytes /= 2
	cfg.CPU.L2SizeBytes /= 8
	cfg.CPU.L3SizeBytes /= 8
	m, err := workload.ModelByName("GPT2-M")
	if err != nil {
		panic(err) // GPT2-M is a Table-2 model
	}
	perGroup := make(map[string]int)
	var order []string
	var total int64
	for _, t := range m.ParamTensors() {
		group := "misc"
		if i := strings.IndexByte(t.Name, '.'); i > 0 && t.Name[0] == 'l' {
			group = t.Name[:i]
		}
		if _, seen := perGroup[group]; !seen {
			order = append(order, group)
		}
		perGroup[group] += t.Elems
		total += int64(t.Elems)
	}
	arena := tensor.NewArena(0, lineBytes)
	scale := float64(fig19Bytes) / 16 / float64(total)
	var quads []trace.AdamTensors
	for _, g := range order {
		quads = append(quads, trace.NewAdamTensors(arena, g, max(int(float64(perGroup[g])*scale), 1024)))
	}
	return cfg, quads, int(arena.Next()/lineBytes) + 64
}

// adamStreams builds fig19's 8-thread Adam streams over quads.
func adamStreams(cfg config.Config, quads []trace.AdamTensors) []trace.Stream {
	return trace.AdamStreams(quads, trace.AdamConfig{
		LineBytes:      cfg.CPU.LineBytes,
		ComputePerLine: sim.Cycles(40, cfg.CPU.FreqHz),
		Cores:          cfg.CPU.Cores,
	})
}

// adamRuns flattens fig19's Adam streams into one run sequence,
// interleaving the cores run by run.
func adamRuns(cfg config.Config, quads []trace.AdamTensors) []trace.Run {
	var perCore [][]trace.Run
	for _, s := range adamStreams(cfg, quads) {
		rs := s.(trace.RunStream)
		var runs []trace.Run
		for r, ok := rs.NextRun(); ok; r, ok = rs.NextRun() {
			runs = append(runs, r)
		}
		perCore = append(perCore, runs)
	}
	var out []trace.Run
	for i := 0; ; i++ {
		more := false
		for _, runs := range perCore {
			if i < len(runs) {
				out = append(out, runs[i])
				more = true
			}
		}
		if !more {
			return out
		}
	}
}

// driveCache times L3-geometry accesses: repeated sweeps of a resident
// half-cache working set (hits) and a streaming sweep of never-reused
// lines four times the capacity (misses).
func driveCache(_ context.Context, d *driverCtx) error {
	cfg := config.Default(config.BaselineSGXMGX)
	c := cache.New("l3", cfg.CPU.L3SizeBytes, cfg.CPU.L3Ways, lineBytes)
	lines := cfg.CPU.L3SizeBytes / lineBytes
	hot, sweeps := lines/2, 16
	for i := 0; i < hot; i++ {
		c.Access(uint64(i)*lineBytes, false)
	}
	hit := d.timed("cache.access.hit", hot*sweeps, func() {
		for s := 0; s < sweeps; s++ {
			for i := 0; i < hot; i++ {
				c.Access(uint64(i)*lineBytes, s%2 == 1)
			}
		}
	})
	st := c.Stats()
	d.count("hit.hits", st.Hits)
	d.count("hit.misses", st.Misses)

	c.Reset()
	cold := 4 * lines
	miss := d.timed("cache.access.miss", cold, func() {
		for i := 0; i < cold; i++ {
			c.Access(uint64(i)*lineBytes, i%2 == 1)
		}
	})
	st = c.Stats()
	d.count("miss.hits", st.Hits)
	d.count("miss.misses", st.Misses)
	d.count("miss.writebacks", st.Writebacks)
	d.rep.set("cache.ns_per_access.hit", hit, "ns")
	d.rep.set("cache.ns_per_access.miss", miss, "ns")
	return nil
}

// driveMEE streams fig19's 64 MB footprint through the encryption engine
// in the Adam streams' 8-line bursts: SGX reads, SGX writes and
// tensor-mode hit-in reads.
func driveMEE(_ context.Context, d *driverCtx) error {
	cfg := config.Default(config.BaselineSGXMGX)
	lines := fig19Bytes / lineBytes
	const burst = 8
	engine := func(mode mee.Mode) *mee.Engine {
		mem := dram.New(dram.DDR4_2400(), cfg.HostDRAM.Channels)
		return mee.NewEngine(mode, &cfg, mem, mee.NewLayout(0, lines+64, lineBytes, cfg.Protection.MerkleArity))
	}
	type pass struct {
		name string
		mode mee.Mode
		step func(e *mee.Engine, at sim.Time, addr uint64) sim.Time
	}
	passes := []pass{
		{"read_run.sgx", mee.ModeSGX, func(e *mee.Engine, at sim.Time, addr uint64) sim.Time {
			return e.ReadRun(at, addr, burst).DataReady
		}},
		{"write_run.sgx", mee.ModeSGX, func(e *mee.Engine, at sim.Time, addr uint64) sim.Time {
			return e.WriteRun(at, addr, burst)
		}},
		{"read_run.tensor", mee.ModeTensor, func(e *mee.Engine, at sim.Time, addr uint64) sim.Time {
			return e.TensorReadRun(at, addr, burst, mee.THitIn).DataReady
		}},
	}
	for _, p := range passes {
		e := engine(p.mode)
		var at sim.Time
		ns := d.timed("mee."+p.name, lines, func() {
			for a := 0; a < lines; a += burst {
				at = p.step(e, at, uint64(a)*lineBytes)
			}
		})
		d.rep.set("mee.ns_per_line."+p.name, ns, "ns")
		st := e.Stats()
		d.count(p.name+".end_ps", uint64(at))
		d.count(p.name+".extra_lines", st.ExtraLines())
		d.count(p.name+".meta_hits", st.MetaCacheHits)
		d.count(p.name+".meta_misses", st.MetaCacheMisses)
		d.count(p.name+".aes_ops", st.AESOps)
		if p.name == "read_run.sgx" {
			d.rep.set("mee.meta_hit_ratio", float64(st.MetaCacheHits)/float64(st.MetaCacheHits+st.MetaCacheMisses), "ratio")
		}
	}
	return nil
}

// driveDRAM times streaming 64-line runs over 64 MB and seeded random
// single-line reads over 1 GB on the host DDR4 model.
func driveDRAM(_ context.Context, d *driverCtx) error {
	cfg := config.Default(config.BaselineSGXMGX)
	lines := fig19Bytes / lineBytes
	const run = 64
	mem := dram.New(dram.DDR4_2400(), cfg.HostDRAM.Channels)
	var at sim.Time
	ns := d.timed("dram.access_run", lines, func() {
		for a := 0; a < lines; a += run {
			at = mem.AccessRun(at, uint64(a)*lineBytes, run, lineBytes, a%(2*run) != 0)
		}
	})
	d.rep.set("dram.ns_per_line.access_run", ns, "ns")
	st := mem.Stats()
	d.count("run.end_ps", uint64(at))
	d.count("run.reads", st.Reads)
	d.count("run.writes", st.Writes)
	d.count("run.row_hits", st.RowHits)
	d.count("run.activates", st.Activates)

	mem = dram.New(dram.DDR4_2400(), cfg.HostDRAM.Channels)
	rng := rand.New(rand.NewSource(1))
	const accesses = 1 << 18
	addrs := make([]uint64, accesses)
	for i := range addrs {
		addrs[i] = uint64(rng.Int63n(1<<24)) * lineBytes
	}
	at = 0
	ns = d.timed("dram.access.random", accesses, func() {
		for _, a := range addrs {
			at = mem.Access(at, a, false)
		}
	})
	d.rep.set("dram.ns_per_access.random", ns, "ns")
	st = mem.Stats()
	d.count("random.end_ps", uint64(at))
	d.count("random.row_hits", st.RowHits)
	d.count("random.row_conflicts", st.RowConfl)
	return nil
}

// driveAnalyzer lets the TenAnalyzer detect fig19's tensors the way it
// does in the memory controller, behind the caches of two 8-thread
// TensorTEE iterations, then times the iteration's reads against the
// converged Meta Table once run by run and once line by line.
func driveAnalyzer(_ context.Context, d *driverCtx) error {
	cfg, quads, lines := fig19Inventory()
	runs := adamRuns(cfg, quads)
	ac := tenanalyzer.DefaultConfig()
	ac.Entries = cfg.Protection.MetaTableSize
	ac.FilterEntries = cfg.Protection.FilterEntries
	ac.FilterDepth = cfg.Protection.FilterDepth
	vns := tenanalyzer.NewArrayVNStore(0, lines*lineBytes, lineBytes)
	a := tenanalyzer.New(ac, vns)
	s := cpusim.New(cfg, cpusim.Options{Mode: mee.ModeTensor, DataLines: lines, Store: vns, Analyzer: a})
	for it := 0; it < 2; it++ {
		s.Run(adamStreams(cfg, quads))
	}
	readLines := 0
	for _, r := range runs {
		if !r.Write {
			readLines += r.Lines
		}
	}
	a.ResetStats()
	ns := d.timed("tenanalyzer.read_run", readLines, func() {
		for _, r := range runs {
			if r.Write {
				continue
			}
			for addr, n := r.Addr, r.Lines; n > 0; {
				_, k := a.ReadRun(addr, n)
				addr += uint64(k) * r.Stride
				n -= k
			}
		}
	})
	st := a.Stats()
	d.rep.set("tenanalyzer.ns_per_line.read_run", ns, "ns")
	d.rep.set("tenanalyzer.hit_in_ratio", st.HitInRate(), "ratio")
	d.count("read_run.hit_in", st.HitIn)
	d.count("read_run.hit_boundary", st.HitBoundary)
	d.count("read_run.miss", st.Miss)
	d.count("live_entries", uint64(a.LiveEntries()))

	a.ResetStats()
	ns = d.timed("tenanalyzer.read", readLines, func() {
		for _, r := range runs {
			if r.Write {
				continue
			}
			for i := 0; i < r.Lines; i++ {
				a.Read(r.Addr + uint64(i)*r.Stride)
			}
		}
	})
	st = a.Stats()
	d.rep.set("tenanalyzer.ns_per_access.read", ns, "ns")
	d.count("read.hit_in", st.HitIn)
	d.count("read.miss", st.Miss)
	return nil
}

// driveCPUSim runs fig19's GPT2-M Adam inventory at 8 threads: one
// iteration to reach steady state, then one timed iteration per MEE mode.
func driveCPUSim(_ context.Context, d *driverCtx) error {
	cfg, quads, lines := fig19Inventory()
	modes := []struct {
		name string
		mode mee.Mode
	}{{"off", mee.ModeOff}, {"sgx", mee.ModeSGX}, {"tensor", mee.ModeTensor}}
	for _, m := range modes {
		s := cpusim.New(cfg, cpusim.Options{Mode: m.mode, DataLines: lines})
		s.Run(adamStreams(cfg, quads))
		var res cpusim.Result
		ns := d.timed("cpusim.run."+m.name, 1, func() { res = s.Run(adamStreams(cfg, quads)) })
		d.rep.set("cpusim.ns_per_access."+m.name, ns/float64(res.Accesses), "ns")
		d.rep.set("cpusim.accesses", float64(res.Accesses), "count")
		d.count(m.name+".makespan_ps", uint64(res.Makespan))
		d.count(m.name+".accesses", res.Accesses)
		d.count(m.name+".dram_reads", res.DRAMReads)
		d.count(m.name+".dram_writes", res.DRAMWrites)
		d.count(m.name+".mee_extra_lines", res.MEE.ExtraLines())
		d.count(m.name+".analyzer_hit_in", res.Analyzer.HitIn)
	}
	return nil
}

// driverModel is the campaign's custom model at a fixed seed, so the
// NPU and core drivers' counters have fixed references.
func driverModel() workload.Model {
	m := gridModel(1)
	return workload.Model{Name: "custom", BatchSize: m.Batch, Layers: m.Layers, Hidden: m.Hidden,
		Heads: m.Heads, FFNDim: m.FFNDim, Vocab: m.Vocab, SeqLen: m.SeqLen}
}

// driveNPU times one forward plus backward RunLayers of the campaign's
// model on each of the campaign's two NPU protection schemes.
func driveNPU(_ context.Context, d *driverCtx) error {
	m := driverModel()
	fwd, bwd := m.ForwardGEMMs(), m.BackwardGEMMs()
	schemes := []struct {
		name   string
		kind   config.SystemKind
		scheme npumac.Scheme
	}{{"sgx-mgx", config.BaselineSGXMGX, npumac.SchemeCacheline}, {"tensortee", config.TensorTEE, npumac.SchemeTensorDelayed}}
	const reps = 200
	var total float64
	for _, s := range schemes {
		cfg := config.Default(s.kind)
		var f, b npusim.Result
		total += d.timed("npusim.model."+s.name, reps, func() {
			for i := 0; i < reps; i++ {
				n := npusim.New(npusim.FromSystem(&cfg, s.scheme, cfg.Protection.MACGranBytes))
				f, b = n.RunLayers(fwd), n.RunLayers(bwd)
			}
		})
		d.count(s.name+".fwd_ps", uint64(f.Total))
		d.count(s.name+".bwd_ps", uint64(b.Total))
	}
	d.rep.set("npusim.us_per_model", total/float64(len(schemes))/1e3, "us")
	return nil
}

// driveCore times the calibration of each Table-1 system and one
// TrainStep of the campaign's model on the calibrated TensorTEE system.
func driveCore(_ context.Context, d *driverCtx) error {
	kinds := []struct {
		name string
		kind config.SystemKind
	}{{"nonsecure", config.NonSecure}, {"sgx-mgx", config.BaselineSGXMGX}, {"tensortee", config.TensorTEE}}
	var sys *core.System
	for _, k := range kinds {
		var err error
		ns := d.timed("core.calibrate."+k.name, 1, func() { sys, err = core.NewSystem(k.kind) })
		if err != nil {
			return err
		}
		d.rep.set("core.calibrate_ms."+k.name, ns/1e6, "ms")
		snap := sys.Snapshot()
		d.count(k.name+".cost_per_byte_bits", snap.CostPerByteBits)
		d.count(k.name+".warmup_per_byte_bits", snap.WarmupPerByteBits)
	}
	m := driverModel()
	const reps = 200
	var step core.StepBreakdown
	ns := d.timed("core.train_step", reps, func() {
		for i := 0; i < reps; i++ {
			step = sys.TrainStep(m)
		}
	})
	d.rep.set("core.train_step_us", ns/1e3, "us")
	d.count("train_step_ps", uint64(step.Total()))
	return nil
}

// driveStore puts 64 checkpoint-sized payloads into a temp-dir store and
// reads each back five times.
func driveStore(ctx context.Context, d *driverCtx) error {
	res, err := tensortee.NewRunner().Run(ctx, "tab2")
	if err != nil {
		return err
	}
	payload, err := res.EncodeStored()
	if err != nil {
		return err
	}
	tmp := filepath.Join(d.rc.out, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(tmp, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	const keys, reads = 64, 5
	var puts, gets []float64
	for i := 0; i < keys; i++ {
		var perr error
		puts = append(puts, d.timed("store.put", 1, func() { perr = st.Put(store.Campaigns, fmt.Sprintf("bench.p%05d", i), payload) })/1e6)
		if perr != nil {
			return perr
		}
	}
	for r := 0; r < reads; r++ {
		for i := 0; i < keys; i++ {
			var b []byte
			var ok bool
			gets = append(gets, d.timed("store.get", 1, func() { b, ok = st.Get(store.Campaigns, fmt.Sprintf("bench.p%05d", i)) })/1e3)
			if !ok || !bytes.Equal(b, payload) {
				d.rep.mismatch("store entry %d did not read back", i)
			}
		}
	}
	stats := st.Stats()
	d.rep.set("store.put_ms.p50", median(puts), "ms")
	d.rep.set("store.get_us.p50", median(gets), "us")
	d.rep.set("store.bytes_written", float64(stats.Bytes), "bytes")
	d.count("entries", uint64(stats.Entries))
	return nil
}

// driveRunner times Runner.Cached memory hits.
func driveRunner(ctx context.Context, d *driverCtx) error {
	r := tensortee.NewRunner()
	if _, err := r.Cached(ctx, "tab1"); err != nil {
		return err
	}
	const batches, per = 10, 2000
	var us []float64
	for b := 0; b < batches; b++ {
		var err error
		us = append(us, d.timed("runner.cached", per, func() {
			for i := 0; i < per && err == nil; i++ {
				_, err = r.Cached(ctx, "tab1")
			}
		})/1e3)
		if err != nil {
			return err
		}
	}
	d.rep.set("runner.cached_us", median(us), "us")
	return nil
}

// driveExperiments regenerates the CPU-TEE figures once on a fresh Runner
// (cpu-tee-figs's own pass, for the workloads that do not run it).
func driveExperiments(ctx context.Context, d *driverCtx) error {
	ids := figIDs
	if d.rc.smoke {
		ids = smokeFigIDs
	}
	want, err := loadGoldens(d.rc.root, ids)
	if err != nil {
		return err
	}
	results, _, _, err := figsPass(ctx, tensortee.NewRunner(tensortee.WithParallelism(workers)), ids, d.rc.tr, d.parent)
	if err != nil {
		return err
	}
	checkFigs(d.rep, results, want)
	reportFigSpans(d.rep, d.rc.tr, ids)
	return nil
}

// driveCampaign computes and restores the two-point smoke grid.
func driveCampaign(ctx context.Context, d *driverCtx) error {
	tmp := filepath.Join(d.rc.out, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	env, err := newGridEnv(ctx, tmp)
	if err != nil {
		return err
	}
	defer env.close()
	env.rec.tr, env.rec.parent = d.rc.tr, d.parent
	spec := gridSpec(d.rc.seed, true)
	res, err := gridPass(ctx, env, spec, 1, 0, d.rep)
	if err != nil {
		return err
	}
	reportCampaignLayer(d.rep, d.rc.tr, res)
	return nil
}

// serverDriverRequests is the server driver's request count, both clients
// together.
const serverDriverRequests = 4000

// driveServer sends serverDriverRequests requests of the seeded mix to a
// daemon warmed with the light figures. That is enough POSTs for the
// 256-entry scenario cache to turn over, so lookups of early POSTs reach
// the disk tier.
func driveServer(ctx context.Context, d *driverCtx) error {
	tmp := filepath.Join(d.rc.out, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	ids := serveIDs(true)
	want, err := loadGoldens(d.rc.root, ids)
	if err != nil {
		return err
	}
	env, err := newServeEnv(ctx, tmp, ids, want)
	if err != nil {
		return err
	}
	defer env.close()
	res, err := runMix(ctx, env, d.rc.seed, ids, serverDriverRequests/workers, time.Minute, 0, d.rc.tr, d.parent, d.rep)
	if err != nil {
		return err
	}
	reportServerLayer(d.rep, d.rc.tr)
	return checkPosts(ctx, res.posts, d.rep)
}
