package tenanalyzer

import (
	"fmt"
	"sort"

	"tensortee/internal/sim"
)

// Outcome classifies a Meta Table lookup (Figures 10 and 12).
type Outcome int

const (
	// Miss: no entry covers the address; the access pays the full
	// cacheline-granularity metadata cost and feeds the Tensor Filter.
	Miss Outcome = iota
	// HitIn: the address is inside a live entry; the VN is on chip.
	HitIn
	// HitBoundary: the address extends an entry; the entry VN is used
	// speculatively while an off-chip confirmation runs in the background.
	HitBoundary
)

func (o Outcome) String() string {
	switch o {
	case Miss:
		return "miss"
	case HitIn:
		return "hit_in"
	case HitBoundary:
		return "hit_boundary"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// VNStore is the off-chip per-cacheline version-number array (plus its
// Merkle protection, charged by the MEE). The analyzer keeps every valid
// entry consistent with it; on any doubt the entry is invalidated and the
// store remains the truth.
type VNStore interface {
	// Get returns the VN of the line at addr.
	Get(addr uint64) uint64
	// Set overwrites the VN of the line at addr.
	Set(addr uint64, vn uint64)
}

// MapVNStore is a sparse VNStore for tests and functional runs.
type MapVNStore struct {
	m map[uint64]uint64
}

// NewMapVNStore returns an empty store (all VNs zero).
func NewMapVNStore() *MapVNStore { return &MapVNStore{m: make(map[uint64]uint64)} }

// Get implements VNStore.
func (s *MapVNStore) Get(addr uint64) uint64 { return s.m[addr] }

// Set implements VNStore.
func (s *MapVNStore) Set(addr uint64, vn uint64) { s.m[addr] = vn }

// Config sizes the analyzer's hardware structures.
type Config struct {
	Entries       int    // Meta Table entries (512, Section 6.5)
	FilterEntries int    // Tensor Filter entries (10)
	FilterDepth   int    // addresses collected per slot (4)
	LineBytes     int    // cacheline size (64)
	MaxStride     uint64 // innermost stride limit (10-bit field: 1024)
	// MergeBudget caps merge attempts triggered by one event, reflecting
	// the limited merge bandwidth of the hardware ("attempts to merge a few
	// recently updated entries when creating new entries").
	MergeBudget int
	// MaxMergeRatio bounds how far apart (relative to their span) two
	// same-shape entries may sit and still be merged into a new dimension.
	// It is the "inferred dimension as constraint" accuracy guard of
	// Figure 11: tile rows of one tensor sit within a few row-strides of
	// each other, while unrelated tensors are megabytes apart.
	MaxMergeRatio uint64
	// DisableMerging turns off entry merging (ablation: without it,
	// per-core chunk entries never consolidate, Figure 11's motivation).
	DisableMerging bool
	// DisableBoundaryExt turns off hit-boundary extension (ablation: the
	// filter alone then detects fixed 4-line fragments, so coverage never
	// completes — the "gradual coverage" of Figure 10 is load-bearing).
	DisableBoundaryExt bool
}

// DefaultConfig returns the paper's Section 6.5 sizing.
func DefaultConfig() Config {
	return Config{
		Entries:       512,
		FilterEntries: 10,
		FilterDepth:   4,
		LineBytes:     64,
		MaxStride:     1024,
		MergeBudget:   2,
		MaxMergeRatio: 256,
	}
}

// Stats counts analyzer activity. Hit rates over (HitIn + HitBoundary +
// Miss) reproduce Figure 18.
type Stats struct {
	HitIn       uint64
	HitBoundary uint64
	Miss        uint64
	Creations   uint64
	Extensions  uint64
	Merges      uint64
	Evictions   uint64
	Invalidates uint64
	// InvalAssert1 counts invalidations from a line being rewritten twice
	// within one epoch (mixed update frequencies, Figure 12 corner cases).
	InvalAssert1 uint64
	HintInstall  uint64
}

// Accesses returns total lookups.
func (s Stats) Accesses() uint64 { return s.HitIn + s.HitBoundary + s.Miss }

// HitAllRate returns (hit_in + hit_boundary)/accesses (Figure 18 hit_all).
func (s Stats) HitAllRate() float64 {
	a := s.Accesses()
	if a == 0 {
		return 0
	}
	return float64(s.HitIn+s.HitBoundary) / float64(a)
}

// HitInRate returns hit_in/accesses.
func (s Stats) HitInRate() float64 {
	a := s.Accesses()
	if a == 0 {
		return 0
	}
	return float64(s.HitIn) / float64(a)
}

// HitBoundaryRate returns hit_boundary/accesses.
func (s Stats) HitBoundaryRate() float64 {
	a := s.Accesses()
	if a == 0 {
		return 0
	}
	return float64(s.HitBoundary) / float64(a)
}

// Analyzer is the TenAnalyzer unit: Meta Table + Tensor Filter.
type Analyzer struct {
	cfg    Config
	store  VNStore
	filter *filter

	entries []Entry
	free    []int // free entry slots

	// Lookup index: entry ids sorted by base, with a running prefix
	// maximum of bounding-box ends so containment walks terminate early.
	sorted       []int
	prefixMaxEnd []uint64
	indexDirty   bool

	// boundary address -> entry id for O(1) hit-boundary checks. An
	// open-addressed table rather than a Go map: the working set is
	// bounded by the live entries (<= 512), every boundary extension
	// deletes and reinserts a key, and every detection-phase miss
	// probes — the custom table keeps all of that in a few hot cache
	// lines.
	boundaries boundaryMap

	// winTab is the run-window memo: a small direct-mapped, address-
	// indexed table mapping a line address to the Meta Table entry owning
	// its innermost run, with the run's precomputed [lo, hi) extent and
	// the canonical index of its first line. A window hit answers the
	// whole lookup in O(1) — no Contains walk, no binary search — which
	// is what breaks the per-line lookup floor for streaming spans that
	// revisit the same runs line after line. Windows are validated
	// against shapeGen: any entry drop, merge, or table restore bumps it
	// and invalidates every window at once (extensions grow coverage
	// without moving canonical indices, so they need no bump). Exactness:
	// valid entries never overlap (creation, hints, extensions and merges
	// all reject covered lines), so a still-valid window can only name the
	// entry the search would find, with the index Contains would compute.
	winTab    [winTabSlots]entryWindow
	shapeGen  uint64
	lineShift int // Pow2Shift(LineBytes); <0 disables the window memo

	// missTab is winTab's negative counterpart: [lo, hi) intervals known
	// to contain no covered line of any entry, installed when a full
	// lookup concludes a miss with addr outside every bounding box (hi
	// is then the next entry base). Validated against missGen, which
	// bumps on anything that can only ADD coverage — promotion, hints,
	// boundary extensions, restores. Drops and merges never add coverage
	// (a merged entry covers exactly the union of its parents), so they
	// leave miss windows valid. This is what keeps the detection-phase
	// write stream — which lands in the uncovered gaps between shifted
	// per-core chunks — off the binary search.
	missTab [winTabSlots]missWindow
	missGen uint64

	// Recently created/completed entries: merge candidates (small ring).
	recent []int

	clock uint64
	stats Stats
}

// New builds an analyzer over the given off-chip VN store.
func New(cfg Config, store VNStore) *Analyzer {
	if cfg.Entries <= 0 || cfg.FilterEntries <= 0 || cfg.FilterDepth < 2 {
		panic(fmt.Sprintf("tenanalyzer: bad config %+v", cfg))
	}
	if cfg.LineBytes <= 0 {
		cfg.LineBytes = 64
	}
	if cfg.MaxStride == 0 {
		cfg.MaxStride = 1024
	}
	if cfg.MergeBudget <= 0 {
		cfg.MergeBudget = 2
	}
	if cfg.MaxMergeRatio == 0 {
		cfg.MaxMergeRatio = 256
	}
	a := &Analyzer{
		cfg:        cfg,
		store:      store,
		filter:     newFilter(cfg.FilterEntries, cfg.FilterDepth, cfg.MaxStride),
		entries:    make([]Entry, cfg.Entries),
		boundaries: newBoundaryMap(),
		lineShift:  sim.Pow2Shift(cfg.LineBytes),
	}
	for i := cfg.Entries - 1; i >= 0; i-- {
		a.free = append(a.free, i)
	}
	return a
}

// Stats returns cumulative counters.
func (a *Analyzer) Stats() Stats { return a.stats }

// ResetStats zeroes the counters (table contents are preserved) — used for
// per-iteration hit-rate series (Figure 18).
func (a *Analyzer) ResetStats() { a.stats = Stats{} }

// LiveEntries reports the number of valid Meta Table entries.
func (a *Analyzer) LiveEntries() int { return a.cfg.Entries - len(a.free) }

// lineAddr truncates to the line base.
func (a *Analyzer) lineAddr(addr uint64) uint64 {
	return addr &^ uint64(a.cfg.LineBytes-1)
}

// --- lookup ---------------------------------------------------------------

func (a *Analyzer) rebuildIndex() {
	a.sorted = a.sorted[:0]
	for i := range a.entries {
		if a.entries[i].valid {
			a.sorted = append(a.sorted, i)
		}
	}
	sort.Slice(a.sorted, func(x, y int) bool {
		return a.entries[a.sorted[x]].Base < a.entries[a.sorted[y]].Base
	})
	a.prefixMaxEnd = a.prefixMaxEnd[:0]
	var maxEnd uint64
	for _, id := range a.sorted {
		if e := a.entries[id].BoundEnd(); e > maxEnd {
			maxEnd = e
		}
		a.prefixMaxEnd = append(a.prefixMaxEnd, maxEnd)
	}
	a.indexDirty = false
}

// fixPrefix recomputes the running prefix maximum from position p on.
func (a *Analyzer) fixPrefix(p int) {
	var run uint64
	if p > 0 {
		run = a.prefixMaxEnd[p-1]
	}
	for i := p; i < len(a.sorted); i++ {
		if e := a.entries[a.sorted[i]].BoundEnd(); e > run {
			run = e
		}
		a.prefixMaxEnd[i] = run
	}
}

// insertID adds one entry to the sorted index in place — detection
// promotes entries at the streaming frontier, so the insertion point is
// near the end and the suffix fix is O(1) amortized, replacing the full
// re-sort the dirty flag used to force on the next lookup. A dirty index
// stays dirty (the rebuild will see the entry).
func (a *Analyzer) insertID(id int) {
	if a.indexDirty {
		return
	}
	base := a.entries[id].Base
	n := len(a.sorted)
	p := sort.Search(n, func(i int) bool { return a.entries[a.sorted[i]].Base > base })
	a.sorted = append(a.sorted, 0)
	copy(a.sorted[p+1:], a.sorted[p:])
	a.sorted[p] = id
	a.prefixMaxEnd = append(a.prefixMaxEnd, 0)
	a.fixPrefix(p)
}

// removeID drops one entry from the sorted index in place (the entry's
// Base must still be readable; callers remove before recycling).
func (a *Analyzer) removeID(id int) {
	if a.indexDirty {
		return
	}
	base := a.entries[id].Base
	n := len(a.sorted)
	p := sort.Search(n, func(i int) bool { return a.entries[a.sorted[i]].Base >= base })
	for p < n && a.sorted[p] != id {
		p++
	}
	if p == n {
		a.indexDirty = true // not found: fall back to a rebuild
		return
	}
	a.sorted = append(a.sorted[:p], a.sorted[p+1:]...)
	a.prefixMaxEnd = a.prefixMaxEnd[:n-1]
	a.fixPrefix(p)
}

const winTabSlots = 256

// entryWindow caches one innermost run of one entry: any line-aligned
// address in [lo, hi) belongs to entry id at canonical index
// idx0 + (addr-lo)/LineBytes, as long as gen still matches shapeGen.
type entryWindow struct {
	lo, hi uint64
	id     int
	idx0   int
	gen    uint64
}

// winSlot hashes a line address to its window slot. 64 KB granularity
// keeps a tensor's bursts on few slots while separating the w/g/m/v
// streams that interleave per burst.
func winSlot(addr uint64) int {
	return int(((addr >> 16) * 0x9E3779B97F4A7C15) >> 56 & (winTabSlots - 1))
}

// missWindow is a cached uncovered interval: no entry contains any line
// in [lo, hi) while gen still matches missGen.
type missWindow struct {
	lo, hi uint64
	gen    uint64
}

// noteWindow installs the innermost run containing (addr -> id, lineIdx)
// into the window memo. Only line-granular innermost dimensions qualify
// (strided runs leave gaps a plain range check cannot represent).
func (a *Analyzer) noteWindow(id int, addr uint64, lineIdx int) {
	if a.lineShift < 0 {
		return
	}
	e := &a.entries[id]
	d0 := e.Dims[0]
	if d0.Stride != uint64(a.cfg.LineBytes) {
		return
	}
	r := lineIdx % d0.Count
	lo := addr - uint64(r)<<uint(a.lineShift)
	a.winTab[winSlot(addr)] = entryWindow{
		lo:   lo,
		hi:   lo + uint64(d0.Count)<<uint(a.lineShift),
		id:   id,
		idx0: lineIdx - r,
		gen:  a.shapeGen,
	}
}

// lookup finds the entry containing addr (exact line containment) and its
// canonical line index.
func (a *Analyzer) lookup(addr uint64) (id, lineIdx int, ok bool) {
	// O(1) fast path: a still-valid run window answers without Contains.
	if w := &a.winTab[winSlot(addr)]; w.gen == a.shapeGen && addr >= w.lo && addr < w.hi {
		return w.id, w.idx0 + int((addr-w.lo)>>uint(a.lineShift)), true
	}
	// O(1) negative answer: addr sits in a still-valid uncovered window.
	if w := &a.missTab[winSlot(addr)]; w.gen == a.missGen && addr >= w.lo && addr < w.hi {
		return 0, 0, false
	}
	if a.indexDirty {
		a.rebuildIndex()
	}
	n := len(a.sorted)
	if n == 0 {
		return 0, 0, false
	}
	// O(1) miss rejects: prefixMaxEnd[n-1] is the maximum bounding end
	// over all valid entries, sorted[0] the minimum base. An address at
	// the streaming frontier (the common detection-phase miss) is beyond
	// every bounding box and never needs the binary search.
	if addr >= a.prefixMaxEnd[n-1] || addr < a.entries[a.sorted[0]].Base {
		return 0, 0, false
	}
	// First entry with Base > addr; candidates are to the left.
	p := sort.Search(n, func(i int) bool {
		return a.entries[a.sorted[i]].Base > addr
	})
	boxHit := false
	for i := p - 1; i >= 0; i-- {
		if a.prefixMaxEnd[i] <= addr {
			break // nothing further left can reach addr
		}
		e := &a.entries[a.sorted[i]]
		if idx, in := e.Contains(addr); in {
			a.noteWindow(a.sorted[i], addr, idx)
			return a.sorted[i], idx, true
		}
		if addr < e.BoundEnd() {
			// Inside a strided entry's box but between its lines: the
			// neighboring addresses may be covered, so no window.
			boxHit = true
		}
	}
	if !boxHit {
		// addr is outside every bounding box: every entry left of the
		// insertion point ends at or before addr (walked or pruned via
		// the prefix max), and entries from p on start after it — so
		// [addr, nextBase) contains no covered line until something adds
		// coverage (missGen bumps).
		hi := ^uint64(0)
		if p < n {
			hi = a.entries[a.sorted[p]].Base
		}
		a.missTab[winSlot(addr)] = missWindow{lo: addr, hi: hi, gen: a.missGen}
	}
	return 0, 0, false
}

// noteEndGrowth updates the prefix-max index after an extension (base
// order unchanged, only one bounding end grew).
func (a *Analyzer) noteEndGrowth(id int) {
	a.missGen++ // the extension adds coverage: drop cached miss windows
	if a.indexDirty {
		return
	}
	end := a.entries[id].BoundEnd()
	// Find position of id in sorted (binary search by base, then scan equal
	// bases — rare).
	n := len(a.sorted)
	base := a.entries[id].Base
	p := sort.Search(n, func(i int) bool {
		return a.entries[a.sorted[i]].Base >= base
	})
	for p < n && a.sorted[p] != id {
		p++
	}
	for i := p; i < n && a.prefixMaxEnd[i] < end; i++ {
		a.prefixMaxEnd[i] = end
	}
}

// overlapsExisting reports whether a candidate range [base, end) would
// overlap any valid entry's bounding box. Exact for contiguous candidates;
// strided candidates use coveredByExisting per line instead.
func (a *Analyzer) overlapsExisting(base, end uint64) bool {
	if a.indexDirty {
		a.rebuildIndex()
	}
	n := len(a.sorted)
	p := sort.Search(n, func(i int) bool {
		return a.entries[a.sorted[i]].Base >= end
	})
	for i := p - 1; i >= 0; i-- {
		if a.prefixMaxEnd[i] <= base {
			break
		}
		e := &a.entries[a.sorted[i]]
		if e.Base < end && base < e.BoundEnd() {
			return true
		}
	}
	return false
}

// coveredByExisting reports whether any of the given lattice lines is
// already owned by a valid entry (exact containment, so interleaved tiles
// of the same matrix do not falsely collide on bounding boxes).
func (a *Analyzer) coveredByExisting(base, stride uint64, count int) bool {
	for i := 0; i < count; i++ {
		if _, _, ok := a.lookup(base + uint64(i)*stride); ok {
			return true
		}
	}
	return false
}

// --- read dataflow (Figure 10) ---------------------------------------------

// Read processes a read request and returns the lookup outcome plus the VN
// the MEE must use for decryption. For misses the VN comes from the
// off-chip store (that fetch is the cost the caller charges).
func (a *Analyzer) Read(addr uint64) (Outcome, uint64) {
	addr = a.lineAddr(addr)
	a.clock++

	if id, lineIdx, ok := a.lookup(addr); ok {
		e := &a.entries[id]
		e.lastUse = a.clock
		a.stats.HitIn++
		return HitIn, e.EffectiveVN(lineIdx)
	}

	if id, ok := a.boundaries.get(addr); ok && !a.cfg.DisableBoundaryExt {
		e := &a.entries[id]
		// Extension is allowed mid-epoch (UF set): the new run joins with
		// its bitmap bits unflipped, so its effective VN is the entry VN,
		// which the off-chip confirmation below checks. Without this, the
		// writeback stream trailing a streaming read (Adam) would pin UF
		// and shatter detection into fragments.
		if e.valid && e.BoundaryAddr() == addr {
			// Speculatively use the entry VN; confirm against the off-chip
			// VN (the background DRAM access of Figure 10) and extend on
			// success — "gradual coverage of tensor detection". For
			// multi-dimensional entries the extension adds a whole inner
			// run, so every line of the run must confirm, not just the
			// first (the VN lines of a run are adjacent, so this is still
			// one metadata burst in hardware).
			a.stats.HitBoundary++
			e.lastUse = a.clock
			offchip := a.store.Get(addr)
			if offchip == e.VN && a.runUniform(e) {
				a.boundaries.del(addr)
				e.Extend()
				a.stats.Extensions++
				a.boundaries.set(e.BoundaryAddr(), id)
				a.noteEndGrowth(id)
				a.filter.invalidateRange(e.Base, e.BoundEnd())
			}
			return HitBoundary, offchip
		}
		a.boundaries.del(addr) // stale
	}

	// Miss: VN from DRAM; request feeds the Tensor Filter.
	a.stats.Miss++
	vn := a.store.Get(addr)
	if s := a.filter.observe(addr, vn, a.clock); s != nil {
		a.promote(s)
	}
	return Miss, vn
}

// ReadRun classifies a span of n consecutive lines starting at addr (the
// read dataflow of Figure 10, span-granular). It returns the outcome
// shared by the first consumed lines (1 <= consumed <= n) and applies
// exactly the state mutations of consumed sequential Read calls; callers
// re-enter it for the rest of the span. It consumes one line per call,
// through Read.
//
// Per-line VNs are not returned: span callers are timing models, and the
// per-line Read remains the source of decryption VNs.
func (a *Analyzer) ReadRun(addr uint64, n int) (Outcome, int) {
	o, _ := a.Read(addr)
	return o, 1
}

// runUniform confirms that every line the next extension would add shares
// the entry's VN and is not owned by another entry.
func (a *Analyzer) runUniform(e *Entry) bool {
	if len(e.Dims) == 1 {
		// 1D streaming entries extend one line at a time — the dominant
		// detection-phase case; avoid RunAddrs' per-extension allocation.
		addr := e.Base + uint64(e.Dims[0].Count)*e.Dims[0].Stride
		if a.store.Get(addr) != e.VN {
			return false
		}
		_, _, owned := a.lookup(addr)
		return !owned
	}
	for _, addr := range e.RunAddrs() {
		if a.store.Get(addr) != e.VN {
			return false
		}
		if id, _, ok := a.lookup(addr); ok {
			_ = id
			return false
		}
	}
	return true
}

// --- write dataflow (Figure 12) ---------------------------------------------

// Write processes a write (an LLC writeback reaching the memory
// controller) and returns the outcome plus the VN the MEE must use to
// encrypt the line (the post-update VN for covered lines).
//
// The off-chip per-line VN is always refreshed so the store stays the
// truth; for covered lines this refresh is background traffic (charged as
// such by the MEE layer).
func (a *Analyzer) Write(addr uint64) (Outcome, uint64) {
	addr = a.lineAddr(addr)
	a.clock++

	id, lineIdx, ok := a.lookup(addr)
	if !ok {
		// Miss: only the off-chip VN update (Figure 12 right).
		a.stats.Miss++
		vn := a.store.Get(addr) + 1
		a.store.Set(addr, vn)
		return Miss, vn
	}

	e := &a.entries[id]
	e.lastUse = a.clock
	lines := e.Lines()

	// Hit edge (first/last address) and hit in both count as Meta Table
	// hits in the Figure-18 hit-rate series.
	a.stats.HitIn++

	// Assert1: the line must not have been updated yet in this epoch. A
	// violation means the entry mixes tensors with different update
	// frequencies (Figure 12 corner cases) — invalidate and fall back.
	if e.bitmap[lineIdx] != e.BS {
		a.stats.InvalAssert1++
		a.invalidate(id)
		vn := a.store.Get(addr) + 1
		a.store.Set(addr, vn)
		return HitIn, vn
	}

	if !e.UF {
		// Start updating (hit edge "start" or any first write of an epoch;
		// tiled writes may begin mid-tensor).
		e.UF = true
	}
	e.bitmap[lineIdx] = !e.BS
	e.flipped++
	newVN := e.VN + 1
	a.store.Set(addr, newVN)

	// Finish updating: the epoch completes when every covered line has
	// been rewritten exactly once. Figure 12 phrases the completion check
	// at the final-address arrival; tracking the flipped counter instead
	// makes the check order-insensitive, which matters because LLC
	// writebacks from parallel cores reach the controller slightly out of
	// program order. Assert2's protective role (several tensors with
	// different update frequencies sharing an entry) is covered by
	// Assert1 above, which fires on the second epoch's first overlap.
	if e.flipped == lines {
		e.VN = newVN
		e.BS = !e.BS
		e.UF = false
		e.flipped = 0
		a.noteRecent(id)
		a.mergeAround(id)
	}
	return HitIn, newVN
}

// --- entry lifecycle --------------------------------------------------------

// promote turns a completed filter slot into a Meta Table entry.
func (a *Analyzer) promote(s *filterSlot) {
	if a.coveredByExisting(s.base, s.stride, s.count) {
		return
	}
	// Re-check the tensor condition against the store: all collected lines
	// must still share the VN (they were checked one by one on miss, but
	// an intervening write may have changed one).
	for i := 0; i < s.count; i++ {
		if a.store.Get(s.base+uint64(i)*s.stride) != s.vn {
			return
		}
	}
	id := a.alloc()
	a.entries[id] = Entry{
		Base:    s.base,
		Dims:    []Dim{{Count: s.count, Stride: s.stride}},
		VN:      s.vn,
		bitmap:  make([]bool, s.count),
		lastUse: a.clock,
		valid:   true,
	}
	a.stats.Creations++
	a.boundaries.set(a.entries[id].BoundaryAddr(), id)
	a.insertID(id)
	a.missGen++ // new coverage: drop cached miss windows
	a.noteRecent(id)
	a.mergeAround(id)
}

// alloc returns a free entry slot, evicting the LRU entry if needed.
func (a *Analyzer) alloc() int {
	if n := len(a.free); n > 0 {
		id := a.free[n-1]
		a.free = a.free[:n-1]
		return id
	}
	victim := -1
	for i := range a.entries {
		e := &a.entries[i]
		if !e.valid {
			continue
		}
		if victim == -1 || e.lastUse < a.entries[victim].lastUse {
			victim = i
		}
	}
	a.stats.Evictions++
	a.dropEntry(victim)
	id := a.free[len(a.free)-1]
	a.free = a.free[:len(a.free)-1]
	return id
}

// invalidate drops an entry after an assert violation. The off-chip VNs
// remain correct, so subsequent accesses simply fall back.
func (a *Analyzer) invalidate(id int) {
	a.stats.Invalidates++
	a.dropEntry(id)
}

func (a *Analyzer) dropEntry(id int) {
	e := &a.entries[id]
	if !e.valid {
		return
	}
	a.boundaries.del(e.BoundaryAddr())
	a.removeID(id)
	e.valid = false
	e.bitmap = nil
	a.free = append(a.free, id)
	// Invalidate every run window at once: the dropped slot may be
	// reused, and a merge replacing the surviving entry's shape always
	// drops its partner through here first.
	a.shapeGen++
	for i, r := range a.recent {
		if r == id {
			a.recent = append(a.recent[:i], a.recent[i+1:]...)
			break
		}
	}
}

// noteRecent records a merge candidate (bounded ring).
func (a *Analyzer) noteRecent(id int) {
	const ringSize = 8
	for i, r := range a.recent {
		if r == id {
			a.recent = append(a.recent[:i], a.recent[i+1:]...)
			break
		}
	}
	a.recent = append(a.recent, id)
	if len(a.recent) > ringSize {
		a.recent = a.recent[1:]
	}
}

// --- merging (Figure 11) ------------------------------------------------------

// mergeAround tries to merge entry id with recently updated entries, up to
// the configured merge budget. Merging requires matching tile dims, stride,
// and VN, with both entries quiescent (UF clear); directions follow
// Figure 11 (2 for 1D, 4 for 2D, 6 for 3D).
func (a *Analyzer) mergeAround(id int) {
	if a.cfg.DisableMerging {
		return
	}
	budget := a.cfg.MergeBudget
	for budget > 0 {
		merged := false
		for i := len(a.recent) - 1; i >= 0; i-- {
			other := a.recent[i]
			if other == id || !a.entries[other].valid || !a.entries[id].valid {
				continue
			}
			if a.tryMerge(id, other) {
				a.stats.Merges++
				budget--
				merged = true
				break
			}
		}
		if !merged {
			return
		}
	}
}

// cloneDims copies a dim slice.
func cloneDims(d []Dim) []Dim { return append([]Dim(nil), d...) }

// validDims checks that a dim list admits unambiguous greedy address
// decomposition: strides strictly ascending and, at every level, the reach
// of all inner dimensions stays below the level's stride.
func validDims(dims []Dim) bool {
	if len(dims) == 0 || len(dims) > MaxDims {
		return false
	}
	var reach uint64
	for i, d := range dims {
		if d.Count <= 0 || d.Stride == 0 {
			return false
		}
		if i > 0 {
			if d.Stride <= dims[i-1].Stride {
				return false
			}
			if reach >= d.Stride {
				return false
			}
		}
		reach += uint64(d.Count-1) * d.Stride
	}
	return true
}

// insertDim places nd into dims keeping strides ascending, returning false
// if the result is invalid.
func insertDim(dims []Dim, nd Dim) ([]Dim, bool) {
	if len(dims) >= MaxDims {
		return nil, false
	}
	out := make([]Dim, 0, len(dims)+1)
	placed := false
	for _, d := range dims {
		if !placed && nd.Stride < d.Stride {
			out = append(out, nd)
			placed = true
		}
		out = append(out, d)
	}
	if !placed {
		out = append(out, nd)
	}
	if !validDims(out) {
		return nil, false
	}
	return out, true
}

// tryMerge merges entries x and y when their line lattices compose into one
// valid lattice (Figure 11: "merging in multiple directions ... requires
// that the tile dims, stride, and VN match"). Returns whether it happened.
func (a *Analyzer) tryMerge(x, y int) bool {
	ea, eb := &a.entries[x], &a.entries[y]
	if !ea.valid || !eb.valid || ea.UF || eb.UF || ea.VN != eb.VN {
		return false
	}
	loID, hiID := x, y
	if eb.Base < ea.Base {
		loID, hiID = y, x
	}
	lo, hi := &a.entries[loID], &a.entries[hiID]
	d := hi.Base - lo.Base
	if d == 0 {
		return false
	}

	loDims := cloneDims(lo.Dims)
	hiDims := cloneDims(hi.Dims)
	// Rank normalization: a lower-rank entry that matches the other's inner
	// dims is one slice of its outer dimension (a new tile row joining a
	// growing tile, Figure 11b).
	switch {
	case len(hiDims) == len(loDims)-1 && sameShape(hiDims, loDims[:len(loDims)-1]):
		hiDims = append(hiDims, Dim{Count: 1, Stride: loDims[len(loDims)-1].Stride})
	case len(loDims) == len(hiDims)-1 && sameShape(loDims, hiDims[:len(hiDims)-1]):
		loDims = append(loDims, Dim{Count: 1, Stride: hiDims[len(hiDims)-1].Stride})
	}
	if len(loDims) != len(hiDims) {
		return false
	}

	// Shapes must agree everywhere except at most one dimension's count.
	diff := -1
	for i := range loDims {
		if loDims[i].Stride != hiDims[i].Stride {
			return false
		}
		if loDims[i].Count != hiDims[i].Count {
			if diff != -1 {
				return false
			}
			diff = i
		}
	}

	if diff >= 0 {
		// Extend dimension diff: hi must start exactly where lo's runs end
		// along that dimension.
		j := diff
		if d != uint64(loDims[j].Count)*loDims[j].Stride {
			return false
		}
		merged := cloneDims(loDims)
		merged[j].Count = loDims[j].Count + hiDims[j].Count
		if !validDims(merged) {
			return false
		}
		a.commitMerge(loID, hiID, merged)
		return true
	}

	// Identical shapes: either double an existing dimension or create a new
	// one at offset d. Union(lo, lo+d) is exactly lo ∪ hi, so no phantom
	// coverage can appear.
	for j := range loDims {
		if d == uint64(loDims[j].Count)*loDims[j].Stride {
			merged := cloneDims(loDims)
			merged[j].Count *= 2
			if validDims(merged) {
				a.commitMerge(loID, hiID, merged)
				return true
			}
		}
	}
	if d/lo.Span() <= a.cfg.MaxMergeRatio {
		if merged, ok := insertDim(loDims, Dim{Count: 2, Stride: d}); ok {
			a.commitMerge(loID, hiID, merged)
			return true
		}
	}
	return false
}

// commitMerge replaces lo with the merged shape and drops hi. The merged
// MAC is the XOR of both tensor MACs — exactly why the XOR construction is
// used (Section 4.3).
func (a *Analyzer) commitMerge(loID, hiID int, dims []Dim) {
	lo, hi := &a.entries[loID], &a.entries[hiID]
	merged := Entry{
		Base:    lo.Base,
		Dims:    dims,
		VN:      lo.VN,
		MAC:     lo.MAC ^ hi.MAC,
		lastUse: a.clock,
		valid:   true,
	}
	merged.bitmap = make([]bool, merged.Lines())

	a.boundaries.del(lo.BoundaryAddr())
	a.boundaries.del(hi.BoundaryAddr())
	a.dropEntry(hiID)
	a.entries[loID] = merged
	// Same base, grown bounding end: lo keeps its index position and the
	// prefix maxima only grow (the merged lattice is exactly lo ∪ hi, so
	// no miss window can be invalidated — noteEndGrowth's missGen bump is
	// merely conservative).
	a.noteEndGrowth(loID)
	a.boundaries.set(merged.BoundaryAddr(), loID)
	a.noteRecent(loID)
}

// --- hints and transfer support ----------------------------------------------

// InstallHint pre-populates an entry from tensor-structure information
// carried by an NPU data-transfer instruction (address, size, stride) —
// Section 4.2's fast path for tensor structure creation on the CPU. The
// hint is only accepted if every covered line currently shares one VN.
func (a *Analyzer) InstallHint(base uint64, size int, stride uint64) bool {
	base = a.lineAddr(base)
	if stride == 0 {
		stride = uint64(a.cfg.LineBytes)
	}
	if stride > a.cfg.MaxStride {
		return false
	}
	count := size / int(stride)
	if count < 1 {
		return false
	}
	if stride == uint64(a.cfg.LineBytes) {
		// Contiguous hint: bounding box equals exact coverage.
		if a.overlapsExisting(base, base+uint64(count)*stride) {
			return false
		}
	} else if a.coveredByExisting(base, stride, count) {
		return false
	}
	vn := a.store.Get(base)
	for i := 1; i < count; i++ {
		if a.store.Get(base+uint64(i)*stride) != vn {
			return false
		}
	}
	id := a.alloc()
	a.entries[id] = Entry{
		Base:    base,
		Dims:    []Dim{{Count: count, Stride: stride}},
		VN:      vn,
		bitmap:  make([]bool, count),
		lastUse: a.clock,
		valid:   true,
	}
	a.stats.HintInstall++
	a.boundaries.set(a.entries[id].BoundaryAddr(), id)
	a.insertID(id)
	a.missGen++ // new coverage: drop cached miss windows
	a.filter.invalidateRange(base, base+uint64(count)*stride)
	return true
}

// RegionMeta looks up the tensor metadata for a transfer request covering
// [base, base+size): the shared VN and the tensor MAC. ok is false when no
// single quiescent entry covers the whole region (the transfer then falls
// back to per-line metadata).
func (a *Analyzer) RegionMeta(base uint64, size int) (vn, mac uint64, ok bool) {
	base = a.lineAddr(base)
	id, _, found := a.lookup(base)
	if !found {
		return 0, 0, false
	}
	e := &a.entries[id]
	if e.UF {
		return 0, 0, false
	}
	lastLine := a.lineAddr(base + uint64(size) - 1)
	if _, in := e.Contains(lastLine); !in {
		return 0, 0, false
	}
	return e.VN, e.MAC, true
}

// SetRegionMAC records the tensor MAC for the entry covering base (used by
// the integration layer as line MACs are XOR-accumulated).
func (a *Analyzer) SetRegionMAC(base uint64, mac uint64) bool {
	id, _, found := a.lookup(a.lineAddr(base))
	if !found {
		return false
	}
	a.entries[id].MAC = mac
	return true
}

// --- context switching ---------------------------------------------------------

// Snapshot is a serializable Meta Table image (the Meta Table is saved and
// restored across enclave context switches, Section 4.2).
type Snapshot struct {
	Entries []Entry
}

// Save captures all valid entries. Bitmaps are deep-copied.
func (a *Analyzer) Save() Snapshot {
	var s Snapshot
	for i := range a.entries {
		if a.entries[i].valid {
			e := a.entries[i]
			e.bitmap = append([]bool(nil), e.bitmap...)
			e.Dims = append([]Dim(nil), e.Dims...)
			e.lines = 0 // snapshots carry shape, not memo state
			s.Entries = append(s.Entries, e)
		}
	}
	return s
}

// Restore replaces the table contents with a snapshot (filter state is
// architecturally transient and cleared).
func (a *Analyzer) Restore(s Snapshot) {
	for i := range a.entries {
		a.entries[i].valid = false
		a.entries[i].bitmap = nil
	}
	a.free = a.free[:0]
	for i := a.cfg.Entries - 1; i >= len(s.Entries); i-- {
		a.free = append(a.free, i)
	}
	a.boundaries.reset()
	for i, e := range s.Entries {
		if i >= a.cfg.Entries {
			break
		}
		e.bitmap = append([]bool(nil), e.bitmap...)
		e.Dims = append([]Dim(nil), e.Dims...)
		a.entries[i] = e
		a.boundaries.set(e.BoundaryAddr(), i)
	}
	a.filter.reset()
	a.indexDirty = true
	a.recent = nil
	a.shapeGen++ // restored entries invalidate every cached run window
	a.missGen++  // and any cached miss window
}

// --- introspection ----------------------------------------------------------

// EntryAt returns a copy of the valid entry covering addr, for tests and
// debugging.
func (a *Analyzer) EntryAt(addr uint64) (Entry, bool) {
	id, _, ok := a.lookup(a.lineAddr(addr))
	if !ok {
		return Entry{}, false
	}
	e := a.entries[id]
	e.bitmap = append([]bool(nil), e.bitmap...)
	e.Dims = append([]Dim(nil), e.Dims...)
	e.lines = 0 // drop the memo: copies compare by shape, not cache state
	return e, true
}

// CheckInvariant verifies that every valid entry's effective VN matches the
// off-chip store for every covered line; it returns the first discrepancy.
// Tests call this after random interleavings.
func (a *Analyzer) CheckInvariant() error {
	for i := range a.entries {
		e := &a.entries[i]
		if !e.valid {
			continue
		}
		lines := e.Lines()
		for idx := 0; idx < lines; idx++ {
			addr := e.AddrOf(idx)
			want := a.store.Get(addr)
			got := e.EffectiveVN(idx)
			if got != want {
				return fmt.Errorf("tenanalyzer: entry %d line %d (0x%x): on-chip VN %d != off-chip %d", i, idx, addr, got, want)
			}
		}
	}
	return nil
}

// ArrayVNStore is a dense VNStore over a contiguous line range — the fast
// representation the simulators use for large sweeps.
type ArrayVNStore struct {
	base      uint64
	lineBytes int
	lineShift int // Pow2Shift(lineBytes); <0 keeps the division
	vns       []uint64
}

// NewArrayVNStore covers [base, base+size) with per-line VNs.
func NewArrayVNStore(base uint64, size, lineBytes int) *ArrayVNStore {
	lines := (size + lineBytes - 1) / lineBytes
	return &ArrayVNStore{
		base:      base,
		lineBytes: lineBytes,
		lineShift: sim.Pow2Shift(lineBytes),
		vns:       make([]uint64, lines),
	}
}

func (s *ArrayVNStore) idx(addr uint64) int {
	// The shift computes the identical quotient for the power-of-two
	// line sizes every simulator uses; writes update the store once per
	// line, so the division was showing up in profiles.
	if s.lineShift >= 0 {
		return int((addr - s.base) >> uint(s.lineShift))
	}
	return int((addr - s.base) / uint64(s.lineBytes))
}

// Get implements VNStore. Addresses outside the range read as zero.
func (s *ArrayVNStore) Get(addr uint64) uint64 {
	i := s.idx(addr)
	if i < 0 || i >= len(s.vns) {
		return 0
	}
	return s.vns[i]
}

// Set implements VNStore. Out-of-range writes are dropped.
func (s *ArrayVNStore) Set(addr uint64, vn uint64) {
	i := s.idx(addr)
	if i >= 0 && i < len(s.vns) {
		s.vns[i] = vn
	}
}
