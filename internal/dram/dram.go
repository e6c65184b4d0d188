// Package dram provides Ramulator-style bank/row-buffer timing models for
// the two memories in the system: host DDR4-2400 (Table 1, 2 channels) and
// NPU GDDR5 (40 GB, 128 GB/s aggregate).
//
// Fidelity: per-bank row-buffer state with tRCD/tCAS/tRP/tRAS timing, a
// per-channel shared data bus, and address interleaving across channels and
// banks. This captures the two DRAM effects the paper's results depend on —
// row hits vs. conflicts for streaming vs. scattered metadata accesses, and
// bandwidth saturation as thread count grows (Figure 3).
//
// All times are sim.Time picoseconds.
package dram

import (
	"fmt"

	"tensortee/internal/sim"
)

// Timing holds device timing parameters in picoseconds.
type Timing struct {
	Name string
	// Banks per channel (bank groups folded in).
	Banks int
	// RowBytes is the row-buffer (page) size per bank.
	RowBytes int
	// BurstBytes is the data transferred per column access (one cacheline).
	BurstBytes int
	// Burst is data-bus occupancy per column access.
	Burst sim.Dur
	// TRCD activate-to-read, TCAS read-to-data, TRP precharge, TRAS
	// activate-to-precharge minimum.
	TRCD, TCAS, TRP, TRAS sim.Dur
	// TREFI is the all-bank refresh interval and TRFC the refresh cycle
	// time: every TREFI the device is unavailable for TRFC (JEDEC
	// all-bank refresh; ~4-5% of time at normal temperatures).
	TREFI, TRFC sim.Dur
}

func cyc(n float64, freqHz float64) sim.Dur { return sim.Cycles(n, freqHz) }

// DDR4_2400 returns the host-memory timing profile. At 2400 MT/s a 64 B
// burst (BL8) occupies 4 bus-clock cycles of the 1.2 GHz clock, giving
// 19.2 GB/s per channel — 38.4 GB/s for the two-channel Table-1 system.
func DDR4_2400() Timing {
	const ck = 1.2e9
	return Timing{
		Name:       "DDR4-2400",
		Banks:      16,
		RowBytes:   8 << 10,
		BurstBytes: 64,
		Burst:      cyc(4, ck),
		TRCD:       cyc(17, ck), TCAS: cyc(17, ck), TRP: cyc(17, ck), TRAS: cyc(39, ck),
		TREFI: sim.FromNanos(7800), TRFC: sim.FromNanos(350),
	}
}

// GDDR5Chan returns the per-channel NPU-memory profile: 8 channels of
// 16 GB/s give the 128 GB/s aggregate of Table 1.
func GDDR5Chan() Timing {
	const ck = 2.0e9
	return Timing{
		Name:       "GDDR5",
		Banks:      16,
		RowBytes:   2 << 10,
		BurstBytes: 64,
		Burst:      cyc(8, ck), // 64 B / 4 ns = 16 GB/s per channel
		TRCD:       cyc(18, ck), TCAS: cyc(18, ck), TRP: cyc(18, ck), TRAS: cyc(42, ck),
		TREFI: sim.FromNanos(3900), TRFC: sim.FromNanos(160),
	}
}

// BandwidthBs returns the peak data bandwidth of one channel in bytes/s.
func (t Timing) BandwidthBs() float64 {
	if t.Burst == 0 {
		return 0
	}
	return float64(t.BurstBytes) / t.Burst.Seconds()
}

// bank tracks one bank's row buffer.
type bank struct {
	openRow   int64 // -1 when closed
	readyAt   sim.Time
	lastActAt sim.Time
	rowHits   uint64
	rowMisses uint64
	rowConfl  uint64
	activates uint64
}

// channel is one independent DRAM channel with its own data bus.
type channel struct {
	banks []bank
	bus   sim.Resource
}

// Memory is a multi-channel DRAM device.
type Memory struct {
	T        Timing
	Channels int
	chans    []channel

	// Strength-reduced address mapping (hot path): shifts/masks replace
	// the divisions in mapAddr when the corresponding geometry is a power
	// of two (it is for every profile in this repo). A shift or mask is
	// arithmetically identical to the division it replaces, so the
	// channel/bank/row decomposition — and therefore all timing — is
	// unchanged. Negative shift / zero mask means "keep dividing".
	burstShift int
	chanMask   uint64 // Channels-1 when power of two, else 0
	chanShift  int
	rowShift   int    // log2(lines per row)
	bankMask   uint64 // Banks-1 when power of two, else 0

	// refLo/refHi cache the refresh-free zone [i*TREFI, (i+1)*TREFI-TRFC)
	// most recently computed: commands landing inside it need neither the
	// window divisions nor any refresh handling, and thousands of
	// accesses land in each 7.8 µs zone. Commands outside it recompute
	// the zone exactly as before.
	refLo, refHi sim.Time

	reads       uint64
	writes      uint64
	refClosures uint64
}

// New builds a memory from a timing profile and channel count.
func New(t Timing, channels int) *Memory {
	if channels <= 0 {
		panic(fmt.Sprintf("dram: channels must be positive, got %d", channels))
	}
	m := &Memory{T: t, Channels: channels}
	m.burstShift = sim.Pow2Shift(t.BurstBytes)
	m.chanShift = sim.Pow2Shift(channels)
	if m.chanShift >= 0 {
		m.chanMask = uint64(channels - 1)
	}
	m.rowShift = sim.Pow2Shift(t.RowBytes / t.BurstBytes)
	if sim.Pow2Shift(t.Banks) >= 0 {
		m.bankMask = uint64(t.Banks - 1)
	}
	m.chans = make([]channel, channels)
	for i := range m.chans {
		m.chans[i].banks = make([]bank, t.Banks)
		for b := range m.chans[i].banks {
			m.chans[i].banks[b].openRow = -1
		}
		m.chans[i].bus = *sim.NewResource(fmt.Sprintf("%s-ch%d-bus", t.Name, i))
	}
	return m
}

// mapAddr interleaves lines across channels at line granularity (for
// streaming bandwidth) and assigns banks per row-sized block with an XOR
// hash (so concurrent streams occupy different banks and stay row-resident
// within their block). This is the standard row:bank:column mapping with
// bank-index hashing; without it, the power-of-two-strided w/g/m/v streams
// of an Adam step alias onto one bank and every access row-conflicts.
func (m *Memory) mapAddr(addr uint64) (ch, bk int, row int64) {
	var line uint64
	if m.burstShift >= 0 {
		line = addr >> uint(m.burstShift)
	} else {
		line = addr / uint64(m.T.BurstBytes)
	}
	chKey := line ^ (line >> 9)
	if m.chanMask != 0 || m.Channels == 1 {
		ch = int(chKey & m.chanMask)
	} else {
		ch = int(chKey % uint64(m.Channels))
	}
	if m.chanShift >= 0 {
		line >>= uint(m.chanShift)
	} else {
		line /= uint64(m.Channels)
	}
	var rowBlk uint64
	if m.rowShift >= 0 {
		rowBlk = line >> uint(m.rowShift)
	} else {
		rowBlk = line / uint64(m.T.RowBytes/m.T.BurstBytes)
	}
	bkKey := rowBlk ^ (rowBlk >> 4) ^ (rowBlk >> 9)
	if m.bankMask != 0 || m.T.Banks == 1 {
		bk = int(bkKey & m.bankMask)
	} else {
		bk = int(bkKey % uint64(m.T.Banks))
	}
	// The block id is globally unique, so it serves directly as the row
	// identifier for open-row comparisons.
	row = int64(rowBlk)
	return
}

// MapAddr exposes the channel/bank/row decomposition (for tests and
// address-mapping diagnostics).
func (m *Memory) MapAddr(addr uint64) (ch, bk int, row int64) { return m.mapAddr(addr) }

// Access services one cacheline read or write beginning no earlier than
// time at, returning the time when the data transfer completes. Writes are
// modeled with the same bank/bus occupancy (write buffering is folded into
// the controller above this layer).
func (m *Memory) Access(at sim.Time, addr uint64, write bool) sim.Time {
	chIdx, bkIdx, row := m.mapAddr(addr)
	c := &m.chans[chIdx]
	b := &c.banks[bkIdx]
	if write {
		m.writes++
	} else {
		m.reads++
	}

	start := sim.Max(at, b.readyAt)
	// All-bank refresh: the device is unavailable for TRFC at the end of
	// every TREFI interval; a command landing in the window waits it out
	// (and finds its row closed). The cached refresh-free zone skips the
	// interval math for the common case.
	if m.T.TREFI > 0 && (start < m.refLo || start >= m.refHi) {
		winStart := start/m.T.TREFI*m.T.TREFI + m.T.TREFI - m.T.TRFC
		if start >= winStart {
			start = winStart + m.T.TRFC
			if b.openRow != -1 {
				b.openRow = -1
				m.refClosures++
			}
		}
		// start now sits inside a refresh-free zone; remember it.
		m.refLo = start / m.T.TREFI * m.T.TREFI
		m.refHi = m.refLo + m.T.TREFI - m.T.TRFC
	}
	switch {
	case b.openRow == row:
		b.rowHits++
	case b.openRow == -1:
		b.rowMisses++
		b.activates++
		start += m.T.TRCD
		b.lastActAt = start
		b.openRow = row
	default:
		b.rowConfl++
		b.activates++
		pre := start
		if b.lastActAt+m.T.TRAS > pre {
			pre = b.lastActAt + m.T.TRAS
		}
		start = pre + m.T.TRP + m.T.TRCD
		b.lastActAt = start
		b.openRow = row
	}

	dataStart := start + m.T.TCAS
	done := c.bus.Acquire(dataStart, m.T.Burst)
	// Column commands pipeline: the bank accepts the next command one
	// burst slot after this one (tCCD), it does not hold through tCAS and
	// the data transfer. Row misses still serialize through the
	// activate/precharge path above.
	b.readyAt = start + m.T.Burst
	return done
}

// AccessRun services lines consecutive line accesses (addr, addr+stride,
// ...) all issued at time at — the streaming span shape perfbench's
// per-layer probe replays — returning the latest completion. It is a
// loop of Access in ascending order.
func (m *Memory) AccessRun(at sim.Time, addr uint64, lines int, stride uint64, write bool) sim.Time {
	var end sim.Time
	for i := 0; i < lines; i++ {
		end = sim.Max(end, m.Access(at, addr+uint64(i)*stride, write))
	}
	return end
}

// Stats aggregates device counters.
type Stats struct {
	Reads, Writes                uint64
	RowHits, RowMisses, RowConfl uint64
	Activates                    uint64
	// RefreshClosures counts rows closed by all-bank refresh windows.
	RefreshClosures uint64
	BusBusy         sim.Dur
}

// Stats returns aggregate counters across channels and banks.
func (m *Memory) Stats() Stats {
	var s Stats
	s.Reads, s.Writes = m.reads, m.writes
	s.RefreshClosures = m.refClosures
	for i := range m.chans {
		s.BusBusy += m.chans[i].bus.BusyTotal()
		for b := range m.chans[i].banks {
			bk := &m.chans[i].banks[b]
			s.RowHits += bk.rowHits
			s.RowMisses += bk.rowMisses
			s.RowConfl += bk.rowConfl
			s.Activates += bk.activates
		}
	}
	return s
}

// RowHitRate reports row-buffer hits over all column accesses.
func (s Stats) RowHitRate() float64 {
	total := s.RowHits + s.RowMisses + s.RowConfl
	if total == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(total)
}

// BusyUntil reports the latest completion across all channel buses.
func (m *Memory) BusyUntil() sim.Time {
	var c sim.Time
	for i := range m.chans {
		if bu := m.chans[i].bus.BusyUntil(); bu > c {
			c = bu
		}
	}
	return c
}

// PeakBandwidthBs reports aggregate peak bandwidth in bytes/s.
func (m *Memory) PeakBandwidthBs() float64 {
	return m.T.BandwidthBs() * float64(m.Channels)
}

// Reset clears all bank/bus state and counters.
func (m *Memory) Reset() {
	for i := range m.chans {
		m.chans[i].bus.Reset()
		for b := range m.chans[i].banks {
			m.chans[i].banks[b] = bank{openRow: -1}
		}
	}
	m.reads, m.writes, m.refClosures = 0, 0, 0
	m.refLo, m.refHi = 0, 0
}
