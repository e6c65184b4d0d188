package cache

import (
	"testing"
	"testing/quick"
)

func TestGeometry(t *testing.T) {
	c := New("l1", 32<<10, 8, 64)
	if c.Sets() != 64 || c.Ways() != 8 || c.LineBytes() != 64 {
		t.Errorf("geometry = %d sets, %d ways", c.Sets(), c.Ways())
	}
}

func TestTinyCacheClampsWays(t *testing.T) {
	c := New("tiny", 128, 8, 64) // only 2 lines
	if c.Ways() != 2 || c.Sets() != 1 {
		t.Errorf("tiny cache = %d sets x %d ways", c.Sets(), c.Ways())
	}
}

func TestHitMiss(t *testing.T) {
	c := New("c", 1<<10, 2, 64)
	if r := c.Access(0, false); r.Hit {
		t.Error("cold access hit")
	}
	if r := c.Access(0, false); !r.Hit {
		t.Error("second access missed")
	}
	if r := c.Access(63, false); !r.Hit {
		t.Error("same-line offset missed")
	}
	if r := c.Access(64, false); r.Hit {
		t.Error("next line hit")
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way, map three lines into one set; the least recently used goes.
	c := New("c", 2*64, 2, 64) // 1 set, 2 ways
	c.Access(0, false)         // A
	c.Access(64, false)        // B
	c.Access(0, false)         // touch A (B is now LRU)
	c.Access(128, false)       // C evicts B
	if !c.Probe(0) {
		t.Error("A evicted but was MRU")
	}
	if c.Probe(64) {
		t.Error("B should have been evicted")
	}
	if !c.Probe(128) {
		t.Error("C not resident")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := New("c", 2*64, 2, 64)
	c.Access(0, true) // dirty A
	c.Access(64, false)
	r := c.Access(128, false) // evicts A (LRU, dirty)
	if !r.HasWriteback {
		t.Fatal("dirty eviction produced no writeback")
	}
	if r.WritebackAddr != 0 {
		t.Errorf("writeback addr = %#x, want 0", r.WritebackAddr)
	}
	if c.Stats().Writebacks != 1 {
		t.Error("writeback not counted")
	}
}

func TestCleanEvictionNoWriteback(t *testing.T) {
	c := New("c", 2*64, 2, 64)
	c.Access(0, false)
	c.Access(64, false)
	r := c.Access(128, false)
	if r.HasWriteback {
		t.Error("clean eviction produced a writeback")
	}
}

func TestWritebackAddressReconstruction(t *testing.T) {
	c := New("c", 1<<12, 2, 64) // 32 sets
	// Fill one set with two dirty lines, then force an eviction and check
	// the reconstructed address matches the original line address.
	base := uint64(7 * 64) // set 7
	span := uint64(32 * 64)
	c.Access(base, true)
	c.Access(base+span, true)
	r := c.Access(base+2*span, true)
	if !r.HasWriteback {
		t.Fatal("no writeback")
	}
	if r.WritebackAddr != base {
		t.Errorf("writeback addr %#x, want %#x", r.WritebackAddr, base)
	}
}

func TestProbeDoesNotDisturbLRU(t *testing.T) {
	c := New("c", 2*64, 2, 64)
	c.Access(0, false)
	c.Access(64, false) // 0 is LRU
	c.Probe(0)          // must not promote
	c.Access(128, false)
	if c.Probe(0) {
		t.Error("probe promoted the line (LRU disturbed)")
	}
}

func TestInvalidate(t *testing.T) {
	c := New("c", 1<<10, 2, 64)
	c.Access(0, true)
	r := c.Invalidate(0)
	if !r.Hit || !r.HasWriteback {
		t.Errorf("invalidate of dirty line = %+v", r)
	}
	if c.Probe(0) {
		t.Error("line still resident after invalidate")
	}
	if r := c.Invalidate(0); r.Hit {
		t.Error("double invalidate hit")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New("bad", 0, 1, 64)
}

func TestHitRate(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Error("empty hit rate should be 0")
	}
	s.Hits, s.Misses = 9, 1
	if s.HitRate() != 0.9 {
		t.Errorf("HitRate = %g", s.HitRate())
	}
}

func TestReset(t *testing.T) {
	c := New("c", 1<<10, 2, 64)
	c.Access(0, true)
	c.Reset()
	if c.Probe(0) {
		t.Error("contents survived reset")
	}
	if c.Stats() != (Stats{}) {
		t.Error("stats survived reset")
	}
}

// Property: cache behaviour matches a reference model (map + LRU list) for
// arbitrary access streams — hits, misses, and writeback addresses all agree.
func TestMatchesReferenceModelProperty(t *testing.T) {
	type ref struct {
		lines map[uint64]bool // line -> dirty
		order []uint64        // LRU order, most recent last
	}
	const ways = 4
	f := func(stream []struct {
		Addr  uint16
		Write bool
	}) bool {
		c := New("p", ways*64, ways, 64) // one set of 4 ways
		r := ref{lines: map[uint64]bool{}}
		for _, acc := range stream {
			line := uint64(acc.Addr) / 64
			res := c.Access(uint64(acc.Addr), acc.Write)

			_, present := r.lines[line]
			if res.Hit != present {
				return false
			}
			if present {
				for i, l := range r.order {
					if l == line {
						r.order = append(r.order[:i], r.order[i+1:]...)
						break
					}
				}
			} else if len(r.order) == ways {
				victim := r.order[0]
				r.order = r.order[1:]
				dirty := r.lines[victim]
				delete(r.lines, victim)
				if dirty != res.HasWriteback {
					return false
				}
				if dirty && res.WritebackAddr != victim*64 {
					return false
				}
			} else if res.HasWriteback {
				return false
			}
			r.order = append(r.order, line)
			r.lines[line] = r.lines[line] || acc.Write
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestIndexMatchesPlainModulo pins the strength-reduced set indexing
// (shift/mask and the odd<<k Lemire decomposition) against the plain
// division it replaced, across the repo's real geometries and awkward
// ones, including dividends past 32 bits (the fallback path).
func TestIndexMatchesPlainModulo(t *testing.T) {
	geoms := []struct{ size, ways, line int }{
		{32 << 10, 8, 64},  // L1: 64 sets
		{256 << 10, 8, 64}, // L2: 512 sets
		{9 << 20, 8, 64},   // L3: 18432 sets (9<<11, non-pow2)
		{12 << 10, 3, 64},  // odd ways, 64 sets
		{3 << 10, 8, 64},   // 6 sets (3<<1)
		{64, 8, 64},        // single set
		{28 << 10, 7, 64},  // 64 sets with 7 ways
		{18 << 10, 8, 96},  // non-pow2 line size: division path
	}
	addrs := []uint64{0, 1, 63, 64, 65, 4096, 1 << 20, 1 << 32, (1 << 44) + 8*64, ^uint64(0) >> 2}
	for i := uint64(0); i < 10000; i++ {
		addrs = append(addrs, i*64, i*6400+i, (1<<33)+i*64)
	}
	for _, g := range geoms {
		for _, hashed := range []bool{false, true} {
			c := build("t", g.size, g.ways, g.line, hashed)
			for _, addr := range addrs {
				lineAddr := addr / uint64(g.line)
				key := lineAddr
				if hashed {
					key = (lineAddr * 0x9E3779B97F4A7C15) >> 40
				}
				wantSet := int(key % uint64(c.sets))
				gotSet, gotTag := c.index(addr)
				if gotSet != wantSet || gotTag != lineAddr {
					t.Fatalf("geom %+v hashed=%v addr %#x: index=(%d,%#x), want (%d,%#x)",
						g, hashed, addr, gotSet, gotTag, wantSet, lineAddr)
				}
				// Access hand-inlines the same computation; Probe goes
				// through index(). Allocating via Access and finding the
				// line via Probe pins the two copies to the same set.
				c.Access(addr, false)
				if !c.Probe(addr) {
					t.Fatalf("geom %+v hashed=%v addr %#x: Access and index() disagree on the set", g, hashed, addr)
				}
			}
		}
	}
}
