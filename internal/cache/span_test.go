package cache

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestAccessViaMatchesAccess drives a randomized stream through twin
// caches: the oracle uses plain Access, the fast twin goes through
// AccessTrack handles and revalidates them with AccessVia whenever the
// stream re-touches the same line. Every Result, all counters, and the
// final dirty sets must stay identical — a handle hit is exactly an
// Access hit.
func TestAccessViaMatchesAccess(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	oracle := NewHashed("o", 4096, 4, 64)
	fast := NewHashed("f", 4096, 4, 64)

	handles := map[uint64]Handle{}
	for i := 0; i < 20000; i++ {
		addr := uint64(rng.Intn(1<<9)) * 64 // 8x the capacity: constant eviction
		write := rng.Intn(3) == 0

		want := oracle.Access(addr, write)
		var got Result
		if h, ok := handles[addr]; ok && fast.AccessVia(h, addr, write) {
			got = Result{Hit: true}
		} else {
			var nh Handle
			got, nh = fast.AccessTrack(addr, write)
			handles[addr] = nh
		}
		if got != want {
			t.Fatalf("access %d (addr %#x write %v): via %+v, oracle %+v", i, addr, write, got, want)
		}
	}
	if fast.Stats() != oracle.Stats() {
		t.Fatalf("stats diverge: via %+v, oracle %+v", fast.Stats(), oracle.Stats())
	}
	if !reflect.DeepEqual(fast.DrainDirty(), oracle.DrainDirty()) {
		t.Fatal("dirty sets diverge")
	}
}

// TestAccessViaStaleHandle pins the revalidation conditions: a handle
// goes stale the moment any tag in its set changes (eviction of another
// way, invalidation, reset), and a stale AccessVia must refuse without
// touching state.
func TestAccessViaStaleHandle(t *testing.T) {
	c := New("c", 2*64, 2, 64) // one set, two ways
	_, h := c.AccessTrack(0, false)
	if !c.AccessVia(h, 0, false) {
		t.Fatal("fresh handle should revalidate")
	}
	c.Access(64, false) // fills the second way: generation bump
	before := c.Stats()
	if c.AccessVia(h, 0, false) {
		t.Fatal("handle must go stale after a tag change in its set")
	}
	if c.Stats() != before {
		t.Fatal("stale AccessVia must not touch counters")
	}
	// Re-acquired handle works again until the next tag change.
	r, h2 := c.AccessTrack(0, false)
	if !r.Hit || !c.AccessVia(h2, 0, true) {
		t.Fatal("re-acquired handle should revalidate")
	}
	c.Reset()
	if c.AccessVia(h2, 0, false) {
		t.Fatal("reset must invalidate all handles")
	}
}

// TestAccessViaWrongLine pins that a current-generation handle whose way
// now holds a different line refuses (the way was reused for another fill
// bumps the generation, but also guard the direct tag compare).
func TestAccessViaWrongLine(t *testing.T) {
	c := New("c", 2*64, 2, 64)
	_, h := c.AccessTrack(0, false)
	// Same-generation handle pointed at the wrong address must miss the
	// tag compare even though the generation matches.
	if c.AccessVia(h, 128, false) {
		t.Fatal("handle for line 0 must not hit line 2")
	}
}

// TestWideWaysReference drives a 16-way single-set cache against an
// in-test reference LRU model (mirroring
// TestMatchesReferenceModelProperty's semantics at higher
// associativity, where victim scans cover two hardware lines).
func TestWideWaysReference(t *testing.T) {
	const ways = 16
	c := New("wide", ways*64, ways, 64)
	type line struct {
		addr  uint64
		dirty bool
	}
	var order []line // LRU order, most recent last
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		addr := uint64(rng.Intn(3*ways)) * 64
		write := rng.Intn(3) == 0
		res := c.Access(addr, write)
		pos := -1
		for j, l := range order {
			if l.addr == addr {
				pos = j
				break
			}
		}
		if res.Hit != (pos >= 0) {
			t.Fatalf("access %d: hit=%v, reference=%v", i, res.Hit, pos >= 0)
		}
		if pos >= 0 {
			l := order[pos]
			l.dirty = l.dirty || write
			order = append(append(order[:pos:pos], order[pos+1:]...), l)
			continue
		}
		if len(order) == ways {
			victim := order[0]
			order = order[1:]
			if victim.dirty != res.HasWriteback {
				t.Fatalf("access %d: writeback=%v, reference=%v", i, res.HasWriteback, victim.dirty)
			}
			if victim.dirty && res.WritebackAddr != victim.addr {
				t.Fatalf("access %d: writeback addr %#x, reference %#x", i, res.WritebackAddr, victim.addr)
			}
		} else if res.HasWriteback {
			t.Fatalf("access %d: spurious writeback", i)
		}
		order = append(order, line{addr: addr, dirty: write})
	}
}
