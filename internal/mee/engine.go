package mee

import (
	"fmt"

	"tensortee/internal/cache"
	"tensortee/internal/config"
	"tensortee/internal/dram"
	"tensortee/internal/sim"
)

// Mode selects the VN-management scheme the engine charges for.
type Mode int

const (
	// ModeOff disables protection (NonSecure reference).
	ModeOff Mode = iota
	// ModeSGX is the per-cacheline VN+MAC+Merkle baseline of Section 5.1.
	ModeSGX
	// ModeTensor is the TensorTEE path: the caller supplies the VN source
	// decision per access (hit-in / hit-boundary / miss), typically from
	// internal/tenanalyzer.
	ModeTensor
)

func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModeSGX:
		return "sgx"
	case ModeTensor:
		return "tensor"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Layout maps a protected data region onto metadata addresses: the VN
// array, the MAC array, and the Merkle tree levels, all placed far above
// the data so they never collide with workload addresses.
type Layout struct {
	DataBase  uint64
	DataLines int
	LineBytes int
	Arity     int

	vnBase   uint64
	macBase  uint64
	treeBase []uint64 // base address per tree level (level 0 = leaves)
	treeLen  []int    // nodes per level

	// lineShift strength-reduces the division in lineIdx (LineBytes is a
	// power of two for every configuration in this repo); -1 keeps the
	// division. The shift computes the identical quotient, so all
	// metadata addresses are unchanged.
	lineShift int
}

// metaSlotBytes is the storage of one VN or MAC slot (56 bits rounded to 8
// bytes in the address map; the 7/8 packing shows up in storage accounting,
// not the line-granular traffic model, where a 64B metadata line holds 8
// slots either way).
const metaSlotBytes = 8

// NewLayout computes the metadata map for a region.
func NewLayout(dataBase uint64, dataLines, lineBytes, arity int) *Layout {
	const metaSpace = uint64(1) << 44
	alignUp := func(x uint64) uint64 {
		return (x + uint64(lineBytes) - 1) &^ uint64(lineBytes-1)
	}
	l := &Layout{
		DataBase:  dataBase,
		DataLines: dataLines,
		LineBytes: lineBytes,
		Arity:     arity,
		vnBase:    metaSpace,
		macBase:   alignUp(metaSpace + uint64(dataLines)*metaSlotBytes),
		lineShift: sim.Pow2Shift(lineBytes),
	}
	// Tree over VN lines.
	slotsPerLine := lineBytes / metaSlotBytes
	nodes := (dataLines + slotsPerLine - 1) / slotsPerLine // VN lines = leaves
	base := alignUp(l.macBase + uint64(dataLines)*metaSlotBytes)
	for {
		nodes = (nodes + arity - 1) / arity
		if nodes == 0 {
			break
		}
		l.treeBase = append(l.treeBase, base)
		l.treeLen = append(l.treeLen, nodes)
		base += uint64(nodes) * uint64(lineBytes)
		if nodes == 1 {
			break
		}
	}
	return l
}

// lineIdx converts a data address to a line index.
func (l *Layout) lineIdx(addr uint64) int {
	if l.lineShift >= 0 {
		return int((addr - l.DataBase) >> uint(l.lineShift))
	}
	return int((addr - l.DataBase) / uint64(l.LineBytes))
}

// VNLineAddr returns the metadata line holding addr's VN.
func (l *Layout) VNLineAddr(addr uint64) uint64 {
	slot := l.vnBase + uint64(l.lineIdx(addr))*metaSlotBytes
	return slot &^ uint64(l.LineBytes-1)
}

// MACLineAddr returns the metadata line holding addr's MAC.
func (l *Layout) MACLineAddr(addr uint64) uint64 {
	slot := l.macBase + uint64(l.lineIdx(addr))*metaSlotBytes
	return slot &^ uint64(l.LineBytes-1)
}

// TreeDepth reports the number of tree levels above the VN lines
// (excluding the on-chip root).
func (l *Layout) TreeDepth() int { return len(l.treeBase) }

// TreeNodeAddr returns the address of the tree node covering addr at the
// given level (0 = first level above the VN lines).
func (l *Layout) TreeNodeAddr(level int, addr uint64) uint64 {
	slotsPerLine := l.LineBytes / metaSlotBytes
	node := l.lineIdx(addr) / slotsPerLine // VN line index
	for i := 0; i <= level; i++ {
		node /= l.Arity
	}
	if node >= l.treeLen[level] {
		node = l.treeLen[level] - 1
	}
	return l.treeBase[level] + uint64(node)*uint64(l.LineBytes)
}

// MetadataBytes reports the off-chip metadata storage for the region: 7-byte
// VN + 7-byte MAC per line plus tree nodes.
func (l *Layout) MetadataBytes(vnBytes, macBytes int) int64 {
	n := int64(l.DataLines) * int64(vnBytes+macBytes)
	for _, ln := range l.treeLen {
		n += int64(ln) * int64(l.LineBytes)
	}
	return n
}

// Stats counts engine activity.
type Stats struct {
	DataReads, DataWrites   uint64
	VNReads, VNWrites       uint64 // off-chip VN line transfers
	MACReads, MACWrites     uint64 // off-chip MAC line transfers
	TreeReads, TreeWrites   uint64 // off-chip tree node transfers
	MetaCacheHits           uint64
	MetaCacheMisses         uint64
	AESOps, MACOps          uint64
	HitIn, HitBoundary, Mis uint64 // tensor-mode outcome counts
}

// ExtraLines reports total off-chip metadata line transfers.
func (s Stats) ExtraLines() uint64 {
	return s.VNReads + s.VNWrites + s.MACReads + s.MACWrites + s.TreeReads + s.TreeWrites
}

// Engine charges timing for protected memory accesses. It owns the MEE
// metadata cache and shares the DRAM device with the data path.
//
// The AES/MAC units are modeled as fully pipelined fixed-latency stages
// (Table 1: 40-cycle latency each): their throughput matches the memory
// system, so only their latency and placement in the dependency chain
// matter. What makes the SGX path slow is not engine bandwidth but the
// metadata traffic and the serial VN→pad→release dependency.
type Engine struct {
	Mode   Mode
	Layout *Layout

	mem       *dram.Memory
	metaCache *cache.Cache

	aesLat  sim.Dur // AES pad latency (40 CPU cycles)
	macLat  sim.Dur // MAC latency
	metaLat sim.Dur // metadata cache hit latency

	// memo is the metadata-cache transition memo: a direct-mapped table
	// of line -> way handles validated by the cache's per-set generation
	// (the set-state fingerprint). Consecutive data lines share their
	// VN/MAC metadata lines eight to one, so most metaAccess calls
	// revalidate a handle in O(1) instead of scanning the set; any tag
	// movement in the set bumps its generation and forces the full
	// (exact) lookup. A memo hit performs precisely the Access hit-path
	// state transitions, so the memo is invisible to timing and stats —
	// TestMetaMemoParity pins this against a memo-disabled twin.
	memo    [metaMemoSlots]metaMemo
	memoOff bool // test hook: force every metaAccess through the full scan

	stats Stats
}

const metaMemoSlots = 256

type metaMemo struct {
	line uint64
	h    cache.Handle
}

// NewEngine builds an MEE for the host memory controller from the CPU
// configuration.
func NewEngine(mode Mode, cfg *config.Config, mem *dram.Memory, layout *Layout) *Engine {
	cpu := cfg.CPU
	e := &Engine{
		Mode:      mode,
		Layout:    layout,
		mem:       mem,
		metaCache: cache.NewHashed("meecache", cpu.MetaCacheSize, cpu.MetaCacheWays, cpu.LineBytes),
		aesLat:    sim.Cycles(float64(cpu.AESLatCycles), cpu.FreqHz),
		macLat:    sim.Cycles(float64(cpu.MACLatCycles), cpu.FreqHz),
		metaLat:   sim.Cycles(8, cpu.FreqHz),
	}
	return e
}

// Stats returns cumulative counters.
func (e *Engine) Stats() Stats { return e.stats }

// MetaCacheStats exposes the metadata cache counters.
func (e *Engine) MetaCacheStats() cache.Stats { return e.metaCache.Stats() }

// metaAccess runs one metadata line through the metadata cache; on miss it
// fetches from DRAM and counts the fetch in *kind. Returns the time the
// line is available and whether it missed. Dirty victims are written back
// to DRAM (traffic, off the critical path) and counted by noteWriteback.
func (e *Engine) metaAccess(at sim.Time, lineAddr uint64, write bool, kind *uint64) (ready sim.Time, missed bool) {
	// Memo fast path: a still-valid handle proves residency and takes the
	// exact Access hit path without a scan. Metadata lines are never at
	// address 0 (the map starts at 1<<44), so empty slots cannot match.
	slot := &e.memo[(lineAddr*0x9E3779B97F4A7C15)>>56&(metaMemoSlots-1)]
	if !e.memoOff && slot.line == lineAddr && e.metaCache.AccessVia(slot.h, lineAddr, write) {
		e.stats.MetaCacheHits++
		return at + e.metaLat, false
	}
	r, h := e.metaCache.AccessTrack(lineAddr, write)
	slot.line, slot.h = lineAddr, h
	if r.HasWriteback {
		// Background writeback: charge DRAM occupancy, not latency.
		e.mem.Access(at, r.WritebackAddr, true)
		e.noteWriteback(r.WritebackAddr)
	}
	if r.Hit {
		e.stats.MetaCacheHits++
		return at + e.metaLat, false
	}
	e.stats.MetaCacheMisses++
	*kind++
	return e.mem.Access(at, lineAddr, false), true
}

// noteWriteback classifies a metadata writeback address for stats.
func (e *Engine) noteWriteback(addr uint64) {
	l := e.Layout
	switch {
	case addr >= l.macBase && addr < l.macBase+uint64(l.DataLines)*metaSlotBytes:
		e.stats.MACWrites++
	case addr >= l.vnBase && addr < l.vnBase+uint64(l.DataLines)*metaSlotBytes:
		e.stats.VNWrites++
	default:
		e.stats.TreeWrites++
	}
}

// ReadResult reports the timing of a protected read.
type ReadResult struct {
	// DataReady is when decrypted data can be consumed (speculative in
	// delayed-verification schemes).
	DataReady sim.Time
	// Verified is when integrity verification completes.
	Verified sim.Time
}

// Read charges a protected read of one line at address addr issued at time
// at. The data fetch itself is included (the engine fronts the memory
// controller).
func (e *Engine) Read(at sim.Time, addr uint64) ReadResult {
	e.stats.DataReads++
	tData := e.mem.Access(at, addr, false)
	if e.Mode == ModeOff {
		return ReadResult{DataReady: tData, Verified: tData}
	}

	// VN acquisition.
	tVN, vnMissed := e.metaAccess(at, e.Layout.VNLineAddr(addr), false, &e.stats.VNReads)
	if vnMissed {
		// Merkle walk: serial levels until a metadata-cache hit; each level
		// costs a MAC verification.
		t := tVN
		for lvl := 0; lvl < e.Layout.TreeDepth(); lvl++ {
			nodeAddr := e.Layout.TreeNodeAddr(lvl, addr)
			ready, missed := e.metaAccess(t, nodeAddr, false, &e.stats.TreeReads)
			t = ready + e.macLat
			e.stats.MACOps++
			if !missed {
				break // cached tree nodes are already verified
			}
		}
		tVN = t
	}

	// AES pad generation can start once the VN is known; in SGX the VN
	// arrives after a fetch, in tensor mode it is on-chip at issue.
	padDone := tVN + e.aesLat
	e.stats.AESOps++
	dataReady := sim.Max(tData, padDone)

	// Data MAC verification: fetch the MAC line, recompute, compare.
	tMAC, _ := e.metaAccess(at, e.Layout.MACLineAddr(addr), false, &e.stats.MACReads)
	verDone := sim.Max(tData, tMAC) + e.macLat
	e.stats.MACOps++

	// The SGX-like baseline releases data only after verification.
	done := sim.Max(dataReady, verDone)
	return ReadResult{DataReady: done, Verified: done}
}

// max returns the componentwise latest of r and o.
func (r ReadResult) max(o ReadResult) ReadResult {
	return ReadResult{DataReady: sim.Max(r.DataReady, o.DataReady), Verified: sim.Max(r.Verified, o.Verified)}
}

// Write charges a protected write (dirty LLC eviction) of one line at addr
// issued at time at, returning when the line (and its metadata updates)
// retire. Writes are posted: the returned time matters for occupancy, not
// for the core's critical path.
func (e *Engine) Write(at sim.Time, addr uint64) sim.Time {
	e.stats.DataWrites++
	if e.Mode == ModeOff {
		return e.mem.Access(at, addr, true)
	}

	// VN increment: RMW on the VN line through the metadata cache.
	tVN, vnMissed := e.metaAccess(at, e.Layout.VNLineAddr(addr), true, &e.stats.VNReads)
	t := tVN
	if vnMissed {
		// Verify the fetched VN before trusting it (walk), then update the
		// tree path; cached levels absorb the update (dirty lines).
		for lvl := 0; lvl < e.Layout.TreeDepth(); lvl++ {
			nodeAddr := e.Layout.TreeNodeAddr(lvl, addr)
			ready, missed := e.metaAccess(t, nodeAddr, true, &e.stats.TreeReads)
			t = ready + e.macLat
			e.stats.MACOps++
			if !missed {
				break
			}
		}
	} else {
		// Tree path update hits in the metadata cache: one MAC op for the
		// leaf-level re-hash, absorbed by dirty lines.
		t += e.macLat
		e.stats.MACOps++
	}

	// Encrypt (pad can be generated as soon as the new VN is known).
	padDone := t + e.aesLat
	e.stats.AESOps++
	tData := e.mem.Access(padDone, addr, true)

	// Recompute and store the data MAC.
	tMACLine, _ := e.metaAccess(at, e.Layout.MACLineAddr(addr), true, &e.stats.MACReads)
	tMAC := sim.Max(padDone, tMACLine) + e.macLat
	e.stats.MACOps++

	return sim.Max(tData, tMAC)
}

// TensorOutcome is the Meta-Table lookup result the TenAnalyzer reports for
// an access in tensor mode (Figure 10/12).
type TensorOutcome int

const (
	// THitIn: address inside a live entry — VN on chip, no metadata access.
	THitIn TensorOutcome = iota
	// THitBoundary: address extends an entry — VN used speculatively while
	// an off-chip VN check runs in the background.
	THitBoundary
	// TMiss: no entry — fall back to the cacheline path.
	TMiss
)

// TensorRead charges a read under tensor-mode management. outcome comes
// from the TenAnalyzer lookup.
func (e *Engine) TensorRead(at sim.Time, addr uint64, outcome TensorOutcome) ReadResult {
	switch outcome {
	case THitIn:
		e.stats.DataReads++
		e.stats.HitIn++
		// VN on-chip at issue: pad generation overlaps the data fetch
		// entirely; line-MAC accumulation for delayed tensor verification
		// happens off the critical path.
		tData := e.mem.Access(at, addr, false)
		padDone := at + e.aesLat
		e.stats.AESOps++
		ready := sim.Max(tData, padDone)
		ver := ready + e.macLat
		e.stats.MACOps++
		// Data is released at ready; verification completes in background
		// and is enforced at the tensor barrier.
		return ReadResult{DataReady: ready, Verified: ver}
	case THitBoundary:
		e.stats.HitBoundary++
		// Structure establishment: the entry VN is speculative and the
		// extension is confirmed by the off-chip VN (and, on a metadata
		// miss, its Merkle path) before coverage grows. During detection
		// the access therefore still pays the cacheline-granularity read
		// path — this is why the paper's first iteration costs roughly as
		// much as SGX (Figure 19) even though hit_all is already high
		// (Figure 18).
		return e.Read(at, addr)
	default:
		e.stats.Mis++
		// Full cacheline-granularity path.
		return e.Read(at, addr)
	}
}

// TensorWrite charges a write under tensor-mode management.
func (e *Engine) TensorWrite(at sim.Time, addr uint64, outcome TensorOutcome) sim.Time {
	switch outcome {
	case THitIn, THitBoundary:
		e.stats.DataWrites++
		if outcome == THitIn {
			e.stats.HitIn++
		} else {
			e.stats.HitBoundary++
		}
		// The write epoch is tracked in the DRAM-backed bitmap through its
		// 6 KB on-chip cache (Section 4.2): one bit per line, so the
		// off-chip bitmap traffic is 1/512 of the data traffic and is
		// absorbed by the cache. Off-chip per-line VNs are reconciled only
		// when an entry is invalidated or evicted — rare — so no VN line
		// traffic is charged here.
		padDone := at + e.aesLat
		e.stats.AESOps++
		tData := e.mem.Access(padDone, addr, true)
		tMAC := padDone + e.macLat
		e.stats.MACOps++
		return sim.Max(tData, tMAC)
	default:
		e.stats.Mis++
		return e.Write(at, addr)
	}
}

// --- span (run-length) entry points ------------------------------------------
//
// The Run methods charge a whole span of n consecutive data lines issued
// in one burst at time `at` — the shape perfbench's per-layer probes and
// the span parity tests replay (cpusim drives the engine per line). Each
// is a loop of the single-line call, so it is by construction identical,
// state- and stats-wise, to n sequential single-line calls; the returned
// time aggregates the span (latest completion).

// ReadRun charges n consecutive protected line reads issued at time at,
// returning the span's aggregate timing (latest data release and latest
// verification).
func (e *Engine) ReadRun(at sim.Time, addr uint64, n int) ReadResult {
	var agg ReadResult
	lb := uint64(e.Layout.LineBytes)
	for i := 0; i < n; i++ {
		agg = agg.max(e.Read(at, addr+uint64(i)*lb))
	}
	return agg
}

// WriteRun charges n consecutive protected line writes issued at time at
// (a drained dirty span), returning when the last line and its metadata
// updates retire.
func (e *Engine) WriteRun(at sim.Time, addr uint64, n int) sim.Time {
	var last sim.Time
	lb := uint64(e.Layout.LineBytes)
	for i := 0; i < n; i++ {
		last = sim.Max(last, e.Write(at, addr+uint64(i)*lb))
	}
	return last
}

// TensorReadRun charges a span of n consecutive reads sharing one
// TenAnalyzer outcome (from tenanalyzer.ReadRun).
func (e *Engine) TensorReadRun(at sim.Time, addr uint64, n int, outcome TensorOutcome) ReadResult {
	var agg ReadResult
	lb := uint64(e.Layout.LineBytes)
	for i := 0; i < n; i++ {
		agg = agg.max(e.TensorRead(at, addr+uint64(i)*lb, outcome))
	}
	return agg
}

// ResetStats zeroes counters (cache contents are preserved).
func (e *Engine) ResetStats() { e.stats = Stats{} }
