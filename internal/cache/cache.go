// Package cache models set-associative write-back, write-allocate caches
// with LRU replacement: the per-core L1/L2, the shared L3, and the MEE's
// 32 KB metadata cache (Table 1).
//
// The model is a functional tag store (hits and victims are exact for the
// access stream it sees); latency is charged by the callers.
package cache

import (
	"fmt"
	"math/bits"
	"sort"

	"tensortee/internal/sim"
)

// Result describes the outcome of a cache access.
type Result struct {
	Hit bool
	// WritebackAddr is the line address of a dirty victim evicted by this
	// access, or NoWriteback.
	WritebackAddr uint64
	HasWriteback  bool
}

// Line state lives in one interleaved slab — per set, the ways' tag
// words followed by the ways' LRU words — so the scan of Access, the
// hottest loop in the whole simulator, touches two adjacent hardware
// cache lines per set instead of two distant ones in parallel arrays
// (for the big L3 the second line was a second cold miss; adjacent lines
// ride the same prefetch). The valid bit folds into the tag word itself
// — tags hold lineAddr+1 with 0 meaning invalid — so the hit scan is a
// pure 8-word compare; the dirty bit folds into the top bit of the LRU
// word (clock stamps use the low 63 bits, far beyond any run length). A
// packed rank-permutation encoding (one word per set) was tried and
// reverted: the per-access rank shuffle was pure added ALU work.

// dirtyBit marks a dirty line in the top bit of its LRU word; the low 63
// bits are the recency stamp.
const dirtyBit = uint64(1) << 63

// Cache is a single level tag store.
type Cache struct {
	name      string
	lineBytes int
	sets      int
	ways      int
	hashed    bool
	slab      []uint64 // per set: ways tag words, then ways LRU words
	clock     uint64

	// gens is a per-set generation counter, bumped whenever a tag in the
	// set changes (fill, invalidate, reset). It is the cheap set-state
	// fingerprint behind Handle revalidation (the MEE's metadata memo):
	// while a set's generation is unchanged, residency answers about its
	// lines stay valid (LRU-only updates never move tags). Maintenance costs a
	// store per fill, so it switches on with the first AccessTrack call
	// (handles cannot predate it); the data caches, which never ask for
	// handles, skip it entirely.
	gens      []uint64
	trackGens bool

	// Strength-reduced indexing (hot path): lineShift replaces the
	// division by lineBytes when it is a power of two, setMask the modulo
	// by sets. A shift/mask computes the exact same quotient/remainder as
	// the division it replaces, so hit/miss/victim behavior is unchanged;
	// -1 means "not a power of two, keep dividing".
	//
	// Non-power-of-two set counts (the 9 MB L3 has 18432 = 9<<11 sets)
	// decompose as odd<<k: the low k bits mask off, and the odd modulo of
	// the high bits uses Lemire's exact fastmod (divisionless; valid for
	// 32-bit dividends, with a division fallback beyond). key % (odd<<k)
	// == ((key>>k) % odd) << k | (key & (1<<k - 1)) is an identity, so
	// set indices are bit-for-bit the historical ones.
	lineShift  int
	setMask    uint64
	setShift   uint   // k of the odd<<k decomposition
	setOdd     uint64 // odd factor of sets
	setLowMask uint64 // 1<<k - 1
	oddMagic   uint64 // ceil(2^64 / setOdd), Lemire's M

	hits, misses, writebacks uint64
}

// New constructs a cache of size bytes with the given associativity and
// line size, using plain modulo set indexing (data caches).
func New(name string, sizeBytes, ways, lineBytes int) *Cache {
	return build(name, sizeBytes, ways, lineBytes, false)
}

// NewHashed constructs a cache whose set index XOR-folds higher address
// bits — the indexing used by the MEE metadata cache, where the VN/MAC
// lines of power-of-two-spaced tensors would otherwise alias onto one set.
func NewHashed(name string, sizeBytes, ways, lineBytes int) *Cache {
	return build(name, sizeBytes, ways, lineBytes, true)
}

func build(name string, sizeBytes, ways, lineBytes int, hashed bool) *Cache {
	if sizeBytes <= 0 || ways <= 0 || lineBytes <= 0 {
		panic(fmt.Sprintf("cache %s: invalid geometry size=%d ways=%d line=%d", name, sizeBytes, ways, lineBytes))
	}
	lines := sizeBytes / lineBytes
	if lines < ways {
		ways = lines
	}
	sets := lines / ways
	if sets == 0 {
		sets = 1
	}
	c := &Cache{
		name:      name,
		lineBytes: lineBytes,
		sets:      sets,
		ways:      ways,
		hashed:    hashed,
		slab:      make([]uint64, 2*sets*ways),
		gens:      make([]uint64, sets),
		lineShift: sim.Pow2Shift(lineBytes),
	}
	if sim.Pow2Shift(sets) > 0 {
		c.setMask = uint64(sets - 1)
	} else {
		// Non-power-of-two sets (or a single set, whose mask would
		// collide with the sentinel): odd<<k decomposition.
		k := uint(bits.TrailingZeros64(uint64(sets)))
		c.setShift = k
		c.setOdd = uint64(sets) >> k
		c.setLowMask = 1<<k - 1
		c.oddMagic = ^uint64(0)/c.setOdd + 1
	}
	return c
}

// oddMod computes hi % c.setOdd: divisionless (Lemire fastmod) for
// 32-bit dividends, exact division beyond.
func (c *Cache) oddMod(hi uint64) uint64 {
	if hi>>32 == 0 {
		low := c.oddMagic * hi // wrapping multiply
		m, _ := bits.Mul64(low, c.setOdd)
		return m
	}
	return hi % c.setOdd
}

// setViews returns the tag and LRU word views of one set.
func (c *Cache) setViews(set int) (tags, lru []uint64) {
	base := 2 * set * c.ways
	return c.slab[base : base+c.ways], c.slab[base+c.ways : base+2*c.ways]
}

// LineBytes returns the cache line size.
func (c *Cache) LineBytes() int { return c.lineBytes }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// index returns the set and tag for addr. The tag is the full line
// address, so victim addresses reconstruct exactly under either indexing.
// Hashed indexing uses Fibonacci (multiplicative) hashing: plain XOR folds
// leave power-of-two strides (1 MB-spaced tensors) colliding pairwise.
func (c *Cache) index(addr uint64) (set int, tag uint64) {
	var lineAddr uint64
	if c.lineShift >= 0 {
		lineAddr = addr >> uint(c.lineShift)
	} else {
		lineAddr = addr / uint64(c.lineBytes)
	}
	tag = lineAddr
	key := lineAddr
	if c.hashed {
		key = (lineAddr * 0x9E3779B97F4A7C15) >> 40
	}
	if c.setMask != 0 {
		set = int(key & c.setMask)
	} else {
		set = int(c.oddMod(key>>c.setShift)<<c.setShift | key&c.setLowMask)
	}
	return
}

// Access performs a read or write of the line containing addr, allocating
// on miss and reporting any dirty victim that must be written back.
//
// The body mirrors AccessTrack minus the handle bookkeeping rather than
// delegating to it: this is the hottest function in the simulator and
// the extra call layer is measurable.
func (c *Cache) Access(addr uint64, write bool) Result {
	// index() inlined by hand: the call shows up at this call frequency.
	var lineAddr uint64
	if c.lineShift >= 0 {
		lineAddr = addr >> uint(c.lineShift)
	} else {
		lineAddr = addr / uint64(c.lineBytes)
	}
	key := lineAddr
	if c.hashed {
		key = (lineAddr * 0x9E3779B97F4A7C15) >> 40
	}
	var set int
	if c.setMask != 0 {
		set = int(key & c.setMask)
	} else {
		set = int(c.oddMod(key>>c.setShift)<<c.setShift | key&c.setLowMask)
	}
	tagKey := lineAddr + 1 // 0 is the invalid sentinel, so keys start at 1
	c.clock++
	base := 2 * set * c.ways

	// Fused scan: one pass both finds a hit and tracks the victim the
	// miss path would pick (first invalid way, else the valid way with the
	// strictly smallest LRU stamp, first winning ties). The pass visits
	// ways in the same order as the historical two-pass scan, so the
	// selected victim — and with it every future hit/miss — is identical;
	// fusing only removes the second walk over the set on misses, the
	// hottest loop in the whole simulator. The set subslices let the
	// compiler drop the per-way bounds checks; invalid ways are tracked
	// separately so valid ways cost one compare and one LRU load each.
	tags := c.slab[base : base+c.ways]
	lru := c.slab[base+c.ways : base+2*c.ways]
	firstInv := -1
	victim := 0
	victimLru := ^uint64(0)
	for i := 0; i < len(tags); i++ {
		t := tags[i]
		if t == tagKey {
			stamp := c.clock | lru[i]&dirtyBit
			if write {
				stamp |= dirtyBit
			}
			lru[i] = stamp
			c.hits++
			return Result{Hit: true}
		}
		if t == 0 {
			if firstInv < 0 {
				firstInv = i
			}
		} else if s := lru[i] &^ dirtyBit; s < victimLru {
			victim, victimLru = i, s
		}
	}
	c.misses++

	res := Result{Hit: false}
	if firstInv >= 0 {
		victim = firstInv
	} else if lru[victim]&dirtyBit != 0 {
		c.writebacks++
		res.HasWriteback = true
		res.WritebackAddr = (tags[victim] - 1) * uint64(c.lineBytes)
	}
	tags[victim] = tagKey
	stamp := c.clock
	if write {
		stamp |= dirtyBit
	}
	lru[victim] = stamp
	if c.trackGens {
		c.gens[set]++
	}
	return res
}

// Probe reports whether addr's line is resident without touching LRU state.
func (c *Cache) Probe(addr uint64) bool {
	set, tag := c.index(addr)
	tags, _ := c.setViews(set)
	for i := range tags {
		if tags[i] == tag+1 {
			return true
		}
	}
	return false
}

// Handle is a revalidatable pointer to a resident line: the way it was
// found in plus the set generation observed at that time. While the
// generation is unchanged (no tag in the set moved), the line is still in
// that way and AccessVia can take the O(1) hit path without a scan.
type Handle struct {
	set, way int32
	gen      uint64
}

// AccessTrack is Access plus a Handle to the line's way (the hit way, or
// the way just filled on a miss). The returned handle carries the
// post-access set generation, so it revalidates until the set's tags next
// change. The first AccessTrack call switches generation maintenance on.
func (c *Cache) AccessTrack(addr uint64, write bool) (Result, Handle) {
	if !c.trackGens {
		c.trackGens = true
	}
	set, tag := c.index(addr)
	tags, lru := c.setViews(set)
	for i := range tags {
		if tags[i] == tag+1 {
			// Replay as the exact Access hit (clock, recency, dirty,
			// counter), then hand out the way.
			c.clock++
			stamp := c.clock | lru[i]&dirtyBit
			if write {
				stamp |= dirtyBit
			}
			lru[i] = stamp
			c.hits++
			return Result{Hit: true}, Handle{set: int32(set), way: int32(i), gen: c.gens[set]}
		}
	}
	// Miss: the full Access path fills (and bumps the generation); the
	// filled line is resident afterwards, so its way is findable. Rather
	// than duplicating the victim logic, run Access and rescan the set —
	// misses fetch from DRAM anyway, so the extra scan is noise.
	r := c.Access(addr, write)
	for i := range tags {
		if tags[i] == tag+1 {
			return r, Handle{set: int32(set), way: int32(i), gen: c.gens[set]}
		}
	}
	panic("cache: filled line not found in its set")
}

// AccessVia performs one access through a handle: when the handle's set
// generation is current and its way still holds addr's line, the access is
// the exact Access hit path (clock, recency, dirty bit, hit counter)
// without any scan, and AccessVia reports true. A stale handle leaves all
// state untouched and reports false — the caller falls back to Access.
func (c *Cache) AccessVia(h Handle, addr uint64, write bool) bool {
	if h.gen != c.gens[h.set] {
		return false
	}
	var lineAddr uint64
	if c.lineShift >= 0 {
		lineAddr = addr >> uint(c.lineShift)
	} else {
		lineAddr = addr / uint64(c.lineBytes)
	}
	i := 2*int(h.set)*c.ways + int(h.way)
	if c.slab[i] != lineAddr+1 {
		return false
	}
	c.clock++
	stamp := c.clock | c.slab[i+c.ways]&dirtyBit
	if write {
		stamp |= dirtyBit
	}
	c.slab[i+c.ways] = stamp
	c.hits++
	return true
}

// Invalidate drops addr's line if resident, returning a dirty victim if any.
func (c *Cache) Invalidate(addr uint64) Result {
	set, tag := c.index(addr)
	tags, lru := c.setViews(set)
	for i := range tags {
		if tags[i] == tag+1 {
			res := Result{Hit: true}
			if lru[i]&dirtyBit != 0 {
				c.writebacks++
				res.HasWriteback = true
				res.WritebackAddr = tag * uint64(c.lineBytes)
			}
			tags[i] = 0
			lru[i] &^= dirtyBit
			if c.trackGens {
				c.gens[set]++
			}
			return res
		}
	}
	return Result{}
}

// DrainDirty removes and returns the addresses of all dirty lines (in
// ascending address order) — the write-back flush an enclave performs on
// exit. Clean lines stay resident. Tags stay put (clean lines remain
// resident), so handles and set generations stay valid: only the dirty
// bits change.
func (c *Cache) DrainDirty() []uint64 {
	var out []uint64
	for set := 0; set < c.sets; set++ {
		tags, lru := c.setViews(set)
		for i := range tags {
			if tags[i] != 0 && lru[i]&dirtyBit != 0 {
				out = append(out, (tags[i]-1)*uint64(c.lineBytes))
				lru[i] &^= dirtyBit
				c.writebacks++
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Stats are cumulative access counters.
type Stats struct {
	Hits, Misses, Writebacks uint64
}

// Stats returns the cumulative counters.
func (c *Cache) Stats() Stats {
	return Stats{Hits: c.hits, Misses: c.misses, Writebacks: c.writebacks}
}

// HitRate reports hits/(hits+misses), 0 when untouched.
func (s Stats) HitRate() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Hits) / float64(t)
}

// Reset clears contents and counters. Set generations keep advancing
// (rather than resetting) so handles issued before the reset can never
// revalidate against the emptied sets.
func (c *Cache) Reset() {
	for i := range c.slab {
		c.slab[i] = 0
	}
	if c.trackGens {
		for i := range c.gens {
			c.gens[i]++
		}
	}
	c.clock, c.hits, c.misses, c.writebacks = 0, 0, 0, 0
}
