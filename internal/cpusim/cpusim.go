// Package cpusim is the gem5-lite host-CPU timing model: multiple cores
// with private L1/L2 and a shared L3, expanding each core's stream of runs
// line by line into a memory controller fronted by the MEE (and, in
// TensorTEE mode, the TenAnalyzer). It reproduces the CPU-side results of
// the paper: the SGX slowdown on the memory-intensive Adam step (Figure 3)
// and the iteration-by-iteration recovery of TensorTEE (Figures 18/19).
//
// Core model: each core issues from its stream with a bounded number of
// outstanding misses (memory-level parallelism). Cache hits cost their
// level's latency; misses pay the full MEE + DRAM path. Writes dirty the
// caches and reach the controller as writebacks, which is exactly the
// filtered write stream the TenAnalyzer observes (Figure 12).
package cpusim

import (
	"fmt"

	"tensortee/internal/cache"
	"tensortee/internal/config"
	"tensortee/internal/dram"
	"tensortee/internal/mee"
	"tensortee/internal/sim"
	"tensortee/internal/tenanalyzer"
	"tensortee/internal/trace"
)

// Result summarizes one run.
type Result struct {
	// Makespan is the time from first issue to last completion.
	Makespan sim.Time
	// Accesses is the number of stream operations replayed.
	Accesses uint64
	// DRAMReads / DRAMWrites are line transfers that reached memory.
	DRAMReads, DRAMWrites uint64
	// MEE is the encryption-engine activity.
	MEE mee.Stats
	// Analyzer is the TenAnalyzer activity (zero unless tensor mode).
	Analyzer tenanalyzer.Stats
}

// BytesMoved returns total DRAM traffic in bytes (64 B lines).
func (r Result) BytesMoved() int64 {
	return int64(r.DRAMReads+r.DRAMWrites) * 64
}

// Sim is a reusable CPU simulator instance. Cache and Meta Table state
// persists across Run calls, which is what makes iteration sweeps
// meaningful (Figure 18's hit-rate convergence).
type Sim struct {
	cfg      config.Config
	mode     mee.Mode
	mem      *dram.Memory
	engine   *mee.Engine
	analyzer *tenanalyzer.Analyzer
	store    tenanalyzer.VNStore

	l1, l2 []*cache.Cache
	l3     *cache.Cache

	l1Lat, l2Lat, l3Lat sim.Dur
	issueGap            sim.Dur

	now sim.Time // end of the previous run; runs are back to back
}

// Options configures simulator construction.
type Options struct {
	// Mode selects the protection scheme charged by the MEE.
	Mode mee.Mode
	// DataLines sizes the protected region's metadata layout.
	DataLines int
	// Store is the off-chip VN array for tensor mode; when nil a dense
	// array store over [0, DataLines*64) is created.
	Store tenanalyzer.VNStore
	// Analyzer supplies a pre-built TenAnalyzer (tensor mode); when nil
	// and Mode == ModeTensor, one with the paper's sizing is created.
	Analyzer *tenanalyzer.Analyzer
}

// New builds a simulator from the Table-1 configuration.
func New(cfg config.Config, opts Options) *Sim {
	if opts.DataLines <= 0 {
		opts.DataLines = 1 << 22 // 256 MB default protected span
	}
	mem := dram.New(dram.DDR4_2400(), cfg.HostDRAM.Channels)
	layout := mee.NewLayout(0, opts.DataLines, cfg.CPU.LineBytes, cfg.Protection.MerkleArity)
	s := &Sim{
		cfg:      cfg,
		mode:     opts.Mode,
		mem:      mem,
		engine:   mee.NewEngine(opts.Mode, &cfg, mem, layout),
		l3:       cache.New("l3", cfg.CPU.L3SizeBytes, cfg.CPU.L3Ways, cfg.CPU.LineBytes),
		l1Lat:    sim.Cycles(float64(cfg.CPU.L1LatCycles), cfg.CPU.FreqHz),
		l2Lat:    sim.Cycles(float64(cfg.CPU.L2LatCycles), cfg.CPU.FreqHz),
		l3Lat:    sim.Cycles(float64(cfg.CPU.L3LatCycles), cfg.CPU.FreqHz),
		issueGap: sim.Cycles(1, cfg.CPU.FreqHz),
	}
	for i := 0; i < cfg.CPU.Cores; i++ {
		s.l1 = append(s.l1, cache.New(fmt.Sprintf("l1-%d", i), cfg.CPU.L1SizeBytes, cfg.CPU.L1Ways, cfg.CPU.LineBytes))
		s.l2 = append(s.l2, cache.New(fmt.Sprintf("l2-%d", i), cfg.CPU.L2SizeBytes, cfg.CPU.L2Ways, cfg.CPU.LineBytes))
	}
	if opts.Mode == mee.ModeTensor {
		s.store = opts.Store
		if s.store == nil {
			s.store = tenanalyzer.NewArrayVNStore(0, opts.DataLines*cfg.CPU.LineBytes, cfg.CPU.LineBytes)
		}
		s.analyzer = opts.Analyzer
		if s.analyzer == nil {
			ac := tenanalyzer.DefaultConfig()
			ac.Entries = cfg.Protection.MetaTableSize
			ac.FilterEntries = cfg.Protection.FilterEntries
			ac.FilterDepth = cfg.Protection.FilterDepth
			ac.LineBytes = cfg.CPU.LineBytes
			s.analyzer = tenanalyzer.New(ac, s.store)
		}
	}
	return s
}

// Analyzer exposes the TenAnalyzer (nil unless tensor mode).
func (s *Sim) Analyzer() *tenanalyzer.Analyzer { return s.analyzer }

// Engine exposes the MEE for stats inspection.
func (s *Sim) Engine() *mee.Engine { return s.engine }

// completionHeap is the sorted circular ring of outstanding miss
// completion times (ascending from head). It replaces container/heap,
// whose Push(x any)/Pop() boxed every sim.Time into a fresh interface
// allocation on the hottest path of the simulator. The window is bounded
// by the MLP depth (10), DRAM completions arrive mostly in order — so
// insertion scans one or two slots from the tail — and popping the
// minimum just advances the head instead of sliding the whole window
// down (the previous slice version paid a 9-word memmove per miss).
// Only the minimum is ever observed, so the representation cannot change
// any result.
type completionHeap struct {
	buf  []sim.Time // power-of-two capacity
	mask int
	head int // index of the minimum
	n    int
}

func (h *completionHeap) push(t sim.Time) {
	if h.n == len(h.buf) {
		grown := make([]sim.Time, max(16, 2*len(h.buf)))
		for i := 0; i < h.n; i++ {
			grown[i] = h.buf[(h.head+i)&h.mask]
		}
		h.buf, h.mask, h.head = grown, len(grown)-1, 0
	}
	i := h.n
	for i > 0 && h.buf[(h.head+i-1)&h.mask] > t {
		h.buf[(h.head+i)&h.mask] = h.buf[(h.head+i-1)&h.mask]
		i--
	}
	h.buf[(h.head+i)&h.mask] = t
	h.n++
}

func (h *completionHeap) popMin() sim.Time {
	top := h.buf[h.head]
	h.head = (h.head + 1) & h.mask
	h.n--
	return top
}

// coreState is one core's replay cursor: the core pulls a run from its
// stream and expands it locally, one line per issue.
type coreState struct {
	id          int
	stream      trace.Stream
	run         trace.Run // current run
	runPos      int       // lines of run already issued
	nextReady   sim.Time
	outstanding completionHeap
	lastDone    sim.Time
}

// refill pulls the core's next non-empty run; false when the stream is
// done.
func (c *coreState) refill() bool {
	for {
		r, ok := c.stream.NextRun()
		if !ok {
			return false
		}
		if r.Lines > 0 {
			c.run, c.runPos = r, 0
			return true
		}
	}
}

// Run replays one stream per core (len(streams) <= Cores) to completion
// and returns the run's timing. State persists into the next Run.
func (s *Sim) Run(streams []trace.Stream) Result {
	if len(streams) > len(s.l1) {
		panic(fmt.Sprintf("cpusim: %d streams exceed %d cores", len(streams), len(s.l1)))
	}
	start := s.now
	s.engine.ResetStats()
	memBefore := s.mem.Stats()

	// A value slice keeps the per-access earliest-core scan on contiguous
	// memory (the scan runs once per replayed access).
	cores := make([]coreState, len(streams))
	for i, st := range streams {
		cores[i] = coreState{id: i, stream: st, nextReady: start}
	}

	var accesses uint64
	active := len(cores)
	mlp := s.cfg.CPU.MemLevelPar
	for active > 0 {
		// Pick the core with the earliest ready time (deterministic
		// tie-break on id) — a global time-ordered interleave. Finished
		// cores park their ready time at the sentinel maximum, so the
		// election is a pure min-scan with no flag checks; active > 0
		// guarantees a live core wins.
		c := &cores[0]
		for i := 1; i < len(cores); i++ {
			if cores[i].nextReady < c.nextReady {
				c = &cores[i]
			}
		}

		if c.runPos >= c.run.Lines && !c.refill() {
			c.nextReady = ^sim.Time(0) // park: never wins the election
			active--
			continue
		}
		addr := c.run.Addr + uint64(c.runPos)*c.run.Stride
		c.runPos++
		accesses++

		at := c.nextReady + c.run.Compute

		// Memory-level parallelism: block issue when the miss window is
		// full until the oldest outstanding miss retires.
		for c.outstanding.n >= mlp {
			oldest := c.outstanding.popMin()
			if oldest > at {
				at = oldest
			}
		}

		done, missed := s.access(at, c.id, addr, c.run.Write)
		if missed {
			c.outstanding.push(done)
		}
		if done > c.lastDone {
			c.lastDone = done
		}
		c.nextReady = at + s.issueGap
	}

	end := start
	for _, c := range cores {
		if c.lastDone > end {
			end = c.lastDone
		}
	}
	if bu := s.mem.BusyUntil(); bu > end {
		end = bu
	}
	s.now = end

	memAfter := s.mem.Stats()
	res := Result{
		Makespan:   end - start,
		Accesses:   accesses,
		DRAMReads:  memAfter.Reads - memBefore.Reads,
		DRAMWrites: memAfter.Writes - memBefore.Writes,
		MEE:        s.engine.Stats(),
	}
	if s.analyzer != nil {
		res.Analyzer = s.analyzer.Stats()
	}
	return res
}

// access walks the cache hierarchy and, on miss, the MEE path. Returns the
// completion time of the access and whether it reached DRAM.
func (s *Sim) access(at sim.Time, core int, addr uint64, write bool) (done sim.Time, missed bool) {
	// Dirty victims collect into a fixed stack array (at most one per
	// cache level): the previous per-access make([]uint64, 0, 2) was the
	// single largest allocation source in the whole simulator, and even
	// the shared scratch slice paid header churn per access.
	var wbs [3]uint64
	nwb := 0

	var hitLevel int
	if r := s.l1[core].Access(addr, write); r.Hit {
		hitLevel = 1
	} else {
		if r.HasWriteback {
			wbs[nwb] = r.WritebackAddr
			nwb++
		}
		if r2 := s.l2[core].Access(addr, false); r2.Hit {
			hitLevel = 2
		} else {
			if r2.HasWriteback {
				wbs[nwb] = r2.WritebackAddr
				nwb++
			}
			if r3 := s.l3.Access(addr, false); r3.Hit {
				hitLevel = 3
			} else {
				if r3.HasWriteback {
					wbs[nwb] = r3.WritebackAddr
					nwb++
				}
			}
		}
	}

	switch hitLevel {
	case 1:
		done = at + s.l1Lat
	case 2:
		done = at + s.l2Lat
	case 3:
		done = at + s.l3Lat
	default:
		// DRAM fill through the MEE. Writes allocate: the demand fetch is a
		// read; the dirty data leaves later as a writeback.
		done = s.readThroughMEE(at, addr)
		missed = true
	}

	// Dirty victims retire in the background (posted writes).
	for i := 0; i < nwb; i++ {
		s.writeThroughMEE(at, wbs[i])
	}
	return done, missed
}

func (s *Sim) readThroughMEE(at sim.Time, addr uint64) sim.Time {
	if s.analyzer == nil {
		return s.engine.Read(at, addr).DataReady
	}
	outcome, _ := s.analyzer.Read(addr)
	return s.engine.TensorRead(at, addr, toMEEOutcome(outcome)).DataReady
}

func (s *Sim) writeThroughMEE(at sim.Time, addr uint64) {
	if s.analyzer == nil {
		s.engine.Write(at, addr)
		return
	}
	outcome, _ := s.analyzer.Write(addr)
	s.engine.TensorWrite(at, addr, toMEEOutcome(outcome))
}

func toMEEOutcome(o tenanalyzer.Outcome) mee.TensorOutcome {
	switch o {
	case tenanalyzer.HitIn:
		return mee.THitIn
	case tenanalyzer.HitBoundary:
		return mee.THitBoundary
	default:
		return mee.TMiss
	}
}

// DropCaches invalidates all cache contents (cold-start between unrelated
// phases) without touching the Meta Table.
func (s *Sim) DropCaches() {
	for i := range s.l1 {
		s.l1[i].Reset()
		s.l2[i].Reset()
	}
	s.l3.Reset()
}

// Flush drains every dirty line through the memory controller — the
// write-back an enclave performs on exit, and the quiesce point at which
// the Meta Table may be saved for a context switch (Section 4.2): after
// Flush, all pending write-epoch updates have reached the analyzer and the
// off-chip VN array.
func (s *Sim) Flush() {
	at := s.now
	drain := func(c *cache.Cache) {
		for _, addr := range c.DrainDirty() {
			s.writeThroughMEE(at, addr)
		}
	}
	for i := range s.l1 {
		drain(s.l1[i])
		drain(s.l2[i])
	}
	drain(s.l3)
	if bu := s.mem.BusyUntil(); bu > s.now {
		s.now = bu
	}
}
