package dram

import (
	"testing"
	"testing/quick"

	"tensortee/internal/sim"
)

func TestBandwidthMatchesTable1(t *testing.T) {
	ddr := DDR4_2400()
	// 64B per 4 cycles of 1.2GHz = 19.2 GB/s per channel.
	bw := ddr.BandwidthBs()
	if bw < 19.0e9 || bw > 19.4e9 {
		t.Errorf("DDR4 channel bandwidth = %g, want ~19.2 GB/s", bw)
	}
	m := New(ddr, 2)
	if agg := m.PeakBandwidthBs(); agg < 38e9 || agg > 39e9 {
		t.Errorf("DDR4 2ch = %g, want ~38.4 GB/s", agg)
	}

	g := GDDR5Chan()
	gm := New(g, 8)
	if agg := gm.PeakBandwidthBs(); agg < 126e9 || agg > 130e9 {
		t.Errorf("GDDR5 8ch = %g, want ~128 GB/s", agg)
	}
}

// findSameBank returns an address beyond `from` that maps to the same
// channel and bank as base; sameRow selects whether the row must match.
func findSameBank(t *testing.T, m *Memory, base, from uint64, sameRow bool) uint64 {
	t.Helper()
	ch0, bk0, row0 := m.MapAddr(base)
	for a := from; a < from+(64<<20); a += 64 {
		ch, bk, row := m.MapAddr(a)
		if ch == ch0 && bk == bk0 && (row == row0) == sameRow {
			return a
		}
	}
	t.Fatal("no matching address found")
	return 0
}

func TestRowBufferHit(t *testing.T) {
	m := New(DDR4_2400(), 1)
	t1 := m.Access(0, 0, false)
	addr := findSameBank(t, m, 0, 64, true)
	t2start := t1
	t2 := m.Access(t2start, addr, false)
	s := m.Stats()
	if s.RowHits != 1 {
		t.Errorf("RowHits = %d, want 1 (stats: %+v)", s.RowHits, s)
	}
	lat1 := t1 - 0
	lat2 := t2 - t2start
	if lat2 >= lat1 {
		t.Errorf("row hit latency %d not cheaper than miss %d", lat2, lat1)
	}
}

func TestRowConflictCost(t *testing.T) {
	m := New(DDR4_2400(), 1)
	t1 := m.Access(0, 0, false)
	addr := findSameBank(t, m, 0, 64, false) // same bank, different row
	t2 := m.Access(t1, addr, false)
	s := m.Stats()
	if s.RowConfl != 1 {
		t.Errorf("RowConfl = %d, want 1", s.RowConfl)
	}
	if t2-t1 <= t1 {
		t.Errorf("conflict latency %d should exceed cold miss %d", t2-t1, t1)
	}
}

func TestChannelInterleaving(t *testing.T) {
	m := New(DDR4_2400(), 2)
	// Two lines mapping to different channels issued together must overlap
	// (both finish well before 2x single latency).
	ch0, _, _ := m.MapAddr(0)
	var other uint64
	for a := uint64(64); ; a += 64 {
		if ch, _, _ := m.MapAddr(a); ch != ch0 {
			other = a
			break
		}
	}
	t1 := m.Access(0, 0, false)
	t2 := m.Access(0, other, false)
	if t2 > t1+m.T.Burst {
		t.Errorf("lines did not overlap across channels: %d vs %d", t1, t2)
	}
}

func TestStreamingApproachesPeakBandwidth(t *testing.T) {
	m := New(DDR4_2400(), 2)
	const lines = 20000
	var end sim.Time
	for i := 0; i < lines; i++ {
		end = m.Access(0, uint64(i*64), false)
	}
	bytes := float64(lines * 64)
	achieved := bytes / end.Seconds()
	peak := m.PeakBandwidthBs()
	if achieved < 0.85*peak {
		t.Errorf("streaming bandwidth %g below 85%% of peak %g", achieved, peak)
	}
	if achieved > peak*1.01 {
		t.Errorf("achieved %g exceeds peak %g — accounting bug", achieved, peak)
	}
}

func TestRandomAccessCostsMoreThanStreaming(t *testing.T) {
	const lines = 20000
	stream := New(DDR4_2400(), 2)
	var streamEnd sim.Time
	for i := 0; i < lines; i++ {
		streamEnd = stream.Access(0, uint64(i*64), false)
	}
	random := New(DDR4_2400(), 2)
	var randEnd sim.Time
	addr := uint64(12345)
	for i := 0; i < lines; i++ {
		addr = addr*6364136223846793005 + 1442695040888963407 // LCG scatter
		a := (addr >> 16) % (1 << 30) &^ 63
		randEnd = random.Access(0, a, false)
	}
	// With unbounded request-level parallelism, bank-level parallelism lets
	// random traffic stay bus-bound too; but it must not beat streaming,
	// and it must produce row conflicts.
	if randEnd < streamEnd {
		t.Errorf("random (%d) finished before streaming (%d)", randEnd, streamEnd)
	}
	if random.Stats().RowConfl == 0 {
		t.Error("random access produced no row conflicts")
	}
	if random.Stats().RowHitRate() >= stream.Stats().RowHitRate() {
		t.Errorf("random row-hit rate %.2f not below streaming %.2f",
			random.Stats().RowHitRate(), stream.Stats().RowHitRate())
	}
}

func TestWriteCounted(t *testing.T) {
	m := New(DDR4_2400(), 1)
	m.Access(0, 0, true)
	m.Access(0, 64, false)
	s := m.Stats()
	if s.Writes != 1 || s.Reads != 1 {
		t.Errorf("Reads/Writes = %d/%d, want 1/1", s.Reads, s.Writes)
	}
}

func TestReset(t *testing.T) {
	m := New(DDR4_2400(), 2)
	m.Access(0, 0, false)
	m.Reset()
	s := m.Stats()
	if s.Reads != 0 || s.RowHits+s.RowMisses+s.RowConfl != 0 {
		t.Error("Reset did not clear stats")
	}
	if m.BusyUntil() != 0 {
		t.Error("Reset did not clear bus state")
	}
}

func TestBadChannelsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero channels")
		}
	}()
	New(DDR4_2400(), 0)
}

// Property: completion time is monotone in request time for a fixed address
// (you can never finish earlier by arriving later).
func TestMonotoneCompletionProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		m := New(DDR4_2400(), 2)
		var at sim.Time
		var last sim.Time
		for _, d := range delays {
			at += sim.Time(d)
			done := m.Access(at, 0x1000, false)
			if done < at {
				return false
			}
			if done < last {
				return false
			}
			last = done
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: total bus occupancy equals accesses x burst time.
func TestBusAccountingProperty(t *testing.T) {
	f := func(n uint8) bool {
		m := New(DDR4_2400(), 1)
		for i := 0; i < int(n); i++ {
			m.Access(0, uint64(i*64), false)
		}
		return m.Stats().BusBusy == sim.Dur(n)*m.T.Burst
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRowHitRate(t *testing.T) {
	var s Stats
	if s.RowHitRate() != 0 {
		t.Error("empty hit rate should be 0")
	}
	s.RowHits, s.RowMisses = 3, 1
	if s.RowHitRate() != 0.75 {
		t.Errorf("RowHitRate = %g", s.RowHitRate())
	}
}

func TestRefreshStallsAccesses(t *testing.T) {
	m := New(DDR4_2400(), 1)
	// An access issued just inside the refresh window at the end of the
	// first interval must be pushed past it.
	winStart := m.T.TREFI - m.T.TRFC
	done := m.Access(winStart+1, 0, false)
	if done < m.T.TREFI {
		t.Errorf("access inside refresh finished at %d, want >= %d", done, m.T.TREFI)
	}
	// And the row it would have opened is closed by the refresh.
	if m.Stats().RowHits != 0 {
		t.Error("refresh-window access counted as row hit")
	}
}

func TestRefreshOverheadBounded(t *testing.T) {
	// Refresh costs ~TRFC/TREFI of bandwidth (<6%): a long stream must not
	// slow down more than that.
	noRef := DDR4_2400()
	noRef.TREFI = 0
	mRef := New(DDR4_2400(), 2)
	mNo := New(noRef, 2)
	const lines = 200000
	var endRef, endNo sim.Time
	for i := 0; i < lines; i++ {
		endRef = mRef.Access(0, uint64(i*64), false)
		endNo = mNo.Access(0, uint64(i*64), false)
	}
	ratio := float64(endRef) / float64(endNo)
	if ratio < 1.0 {
		t.Errorf("refresh made the device faster (ratio %.3f)", ratio)
	}
	if ratio > 1.08 {
		t.Errorf("refresh overhead %.1f%%, want <= 8%%", (ratio-1)*100)
	}
}
