package dram

import (
	"math/rand"
	"testing"

	"tensortee/internal/sim"
)

// runOracle replays a span as per-line Access calls — the in-tree oracle
// AccessRun must match bit for bit.
func runOracle(m *Memory, at sim.Time, addr uint64, lines int, stride uint64, write bool) sim.Time {
	var end sim.Time
	for i := 0; i < lines; i++ {
		if done := m.Access(at, addr+uint64(i)*stride, write); done > end {
			end = done
		}
	}
	return end
}

// compareMemories requires two devices to be in bit-identical observable
// state: aggregate counters, bus horizons, and the full per-bank state as
// exposed by replaying a probe access on clones is too weak — compare the
// internals directly.
func compareMemories(t *testing.T, fast, oracle *Memory, ctx string) {
	t.Helper()
	if fast.Stats() != oracle.Stats() {
		t.Fatalf("%s: stats diverge\nfast:   %+v\noracle: %+v", ctx, fast.Stats(), oracle.Stats())
	}
	if fast.BusyUntil() != oracle.BusyUntil() {
		t.Fatalf("%s: bus horizons diverge: %d vs %d", ctx, fast.BusyUntil(), oracle.BusyUntil())
	}
	if fast.refLo != oracle.refLo || fast.refHi != oracle.refHi {
		t.Fatalf("%s: refresh zones diverge", ctx)
	}
	for c := range fast.chans {
		if fast.chans[c].bus.BusyUntil() != oracle.chans[c].bus.BusyUntil() ||
			fast.chans[c].bus.BusyTotal() != oracle.chans[c].bus.BusyTotal() {
			t.Fatalf("%s: channel %d bus diverges", ctx, c)
		}
		for b := range fast.chans[c].banks {
			if fast.chans[c].banks[b] != oracle.chans[c].banks[b] {
				t.Fatalf("%s: channel %d bank %d diverges\nfast:   %+v\noracle: %+v",
					ctx, c, b, fast.chans[c].banks[b], oracle.chans[c].banks[b])
			}
		}
	}
}

// TestDRAMRunParity sweeps randomized span workloads — long streaming
// spans, unaligned heads, strided (fallback) spans, interleaved single
// accesses, and refresh-window crossings — through AccessRun and the
// per-line oracle on twin devices, requiring bit-identical state, stats,
// and returned completion times throughout.
func TestDRAMRunParity(t *testing.T) {
	profiles := []struct {
		name     string
		timing   Timing
		channels int
	}{
		{"ddr4-2ch", DDR4_2400(), 2},
		{"gddr5-8ch", GDDR5Chan(), 8},
		{"ddr4-3ch-fallback", DDR4_2400(), 3}, // non-pow2: per-line path only
	}
	for _, p := range profiles {
		t.Run(p.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(p.name))))
			fast := New(p.timing, p.channels)
			oracle := New(p.timing, p.channels)
			var at sim.Time
			for op := 0; op < 60; op++ {
				at += sim.Dur(rng.Intn(20000)) * 1000 // hop across refresh zones
				addr := uint64(rng.Intn(1<<16)) * 64
				write := rng.Intn(3) == 0
				switch rng.Intn(4) {
				case 0: // long streaming span: exercises the group closed form
					lines := 256 + rng.Intn(4096)
					gf := fast.AccessRun(at, addr, lines, 64, write)
					go_ := runOracle(oracle, at, addr, lines, 64, write)
					if gf != go_ {
						t.Fatalf("op %d: span end diverges: %d vs %d", op, gf, go_)
					}
				case 1: // short / unaligned span
					lines := 1 + rng.Intn(64)
					addr += uint64(rng.Intn(8)) * 64
					gf := fast.AccessRun(at, addr, lines, 64, write)
					go_ := runOracle(oracle, at, addr, lines, 64, write)
					if gf != go_ {
						t.Fatalf("op %d: short span end diverges", op)
					}
				case 2: // strided span: falls back to per-line
					lines := 1 + rng.Intn(128)
					stride := uint64(128 << rng.Intn(3))
					gf := fast.AccessRun(at, addr, lines, stride, write)
					go_ := runOracle(oracle, at, addr, lines, stride, write)
					if gf != go_ {
						t.Fatalf("op %d: strided span end diverges", op)
					}
				default: // single accesses perturb bank state between spans
					for i := 0; i < 1+rng.Intn(16); i++ {
						a := uint64(rng.Intn(1<<16)) * 64
						if fast.Access(at, a, write) != oracle.Access(at, a, write) {
							t.Fatalf("op %d: single access diverges", op)
						}
					}
				}
				compareMemories(t, fast, oracle, p.name)
			}
		})
	}
}

// TestDRAMRunRefreshCrossing forces spans whose time range straddles
// refresh windows: AccessRun must cross them without disturbing the
// cached zone bookkeeping.
func TestDRAMRunRefreshCrossing(t *testing.T) {
	ti := DDR4_2400()
	fast := New(ti, 2)
	oracle := New(ti, 2)
	// A span long enough that bank issue times provably cross TREFI
	// windows: each bank revisit advances its ready time by ~450 ns and
	// banks revisit every ~16 groups, so issue times pass the first
	// 7.45 us refresh window within ~65k lines.
	const lines = 1 << 17
	gf := fast.AccessRun(0, 0, lines, 64, false)
	go_ := runOracle(oracle, 0, 0, lines, 64, false)
	if gf != go_ {
		t.Fatalf("refresh-crossing span diverges: %d vs %d", gf, go_)
	}
	compareMemories(t, fast, oracle, "refresh-crossing")
	if fast.Stats().RefreshClosures == 0 {
		t.Fatal("span was expected to cross refresh windows")
	}
}

// FuzzDRAMSpanParity fuzzes randomized span soups through AccessRun and
// the per-line oracle on twin devices. Any state or timing divergence is
// a crash.
func FuzzDRAMSpanParity(f *testing.F) {
	f.Add(int64(1), uint16(0), uint16(300), false, uint8(0))
	f.Add(int64(7), uint16(512), uint16(4096), true, uint8(1))
	f.Add(int64(42), uint16(13), uint16(700), false, uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, addr16 uint16, lines16 uint16, write bool, profile uint8) {
		var ti Timing
		channels := 2
		switch profile % 3 {
		case 0:
			ti = DDR4_2400()
		case 1:
			ti, channels = GDDR5Chan(), 8
		default:
			ti, channels = DDR4_2400(), 3
		}
		fast := New(ti, channels)
		oracle := New(ti, channels)
		rng := rand.New(rand.NewSource(seed))
		addr := uint64(addr16) * 64
		lines := int(lines16)%5000 + 1
		var at sim.Time
		for op := 0; op < 8; op++ {
			at += sim.Dur(rng.Intn(1 << 22))
			gf := fast.AccessRun(at, addr, lines, 64, write)
			go_ := runOracle(oracle, at, addr, lines, 64, write)
			if gf != go_ {
				t.Fatalf("span end diverges: %d vs %d", gf, go_)
			}
			if fast.Stats() != oracle.Stats() || fast.BusyUntil() != oracle.BusyUntil() {
				t.Fatalf("state diverges after span at %d", at)
			}
			addr = uint64(rng.Intn(1<<16)) * 64
			lines = 1 + rng.Intn(600)
			write = !write
		}
		for c := range fast.chans {
			for b := range fast.chans[c].banks {
				if fast.chans[c].banks[b] != oracle.chans[c].banks[b] {
					t.Fatalf("bank state diverges at ch%d bank%d", c, b)
				}
			}
		}
	})
}
