package tenanalyzer

import (
	"math/rand"
	"reflect"
	"testing"
)

// replayRuns pushes a run list through an analyzer using ReadRun
// (re-entering after each consumed prefix; writes go line by line),
// while a twin analyzer replays the identical per-line sequence; both
// must end in identical observable state.
func replayRuns(t *testing.T, runs []run, storeLines int) {
	t.Helper()
	span := New(DefaultConfig(), NewArrayVNStore(0, storeLines*64, 64))
	line := New(DefaultConfig(), NewArrayVNStore(0, storeLines*64, 64))

	for _, r := range runs {
		for _, a := range r.lines() {
			if r.write {
				line.Write(a)
			} else {
				line.Read(a)
			}
		}
		if r.write {
			for _, a := range r.lines() {
				span.Write(a)
			}
			continue
		}
		for left, addr := r.n, r.addr; left > 0; {
			_, k := span.ReadRun(addr, left)
			if k < 1 || k > left {
				t.Fatalf("span classifier consumed %d of %d", k, left)
			}
			left -= k
			addr += uint64(k) * 64
		}
	}

	if span.Stats() != line.Stats() {
		t.Fatalf("stats diverge\nspan: %+v\nline: %+v", span.Stats(), line.Stats())
	}
	if span.LiveEntries() != line.LiveEntries() {
		t.Fatalf("live entries: span %d line %d", span.LiveEntries(), line.LiveEntries())
	}
	if err := span.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	// Off-chip VN arrays must agree line for line.
	for i := 0; i < storeLines; i++ {
		a := uint64(i * 64)
		if span.store.Get(a) != line.store.Get(a) {
			t.Fatalf("VN store diverges at line %d: span %d line %d", i, span.store.Get(a), line.store.Get(a))
		}
	}
	// Entry coverage must agree: every line either covered by both (with
	// the same entry image) or by neither.
	for i := 0; i < storeLines; i++ {
		a := uint64(i * 64)
		es, oks := span.EntryAt(a)
		el, okl := line.EntryAt(a)
		if oks != okl {
			t.Fatalf("coverage diverges at line %d: span %v line %v", i, oks, okl)
		}
		if oks {
			es.lastUse, el.lastUse = 0, 0
			if !reflect.DeepEqual(es, el) {
				t.Fatalf("entry diverges at line %d\nspan: %+v\nline: %+v", i, es, el)
			}
		}
	}
}

type run struct {
	addr  uint64
	n     int
	write bool
}

func (r run) lines() []uint64 {
	out := make([]uint64, r.n)
	for i := range out {
		out[i] = r.addr + uint64(i)*64
	}
	return out
}

// stream builds the runs of a sequential sweep of `lines` lines split
// into spans of width w starting at base.
func stream(base uint64, lines, w int, write bool) []run {
	var out []run
	for i := 0; i < lines; i += w {
		n := w
		if i+n > lines {
			n = lines - i
		}
		out = append(out, run{addr: base + uint64(i)*64, n: n, write: write})
	}
	return out
}

// TestSpanClassifierEdges drives the edge cases a span classification
// must split on: spans straddling tensor boundaries, metadata epochs
// (completions), already-flipped bitmap lines (Assert1), and region
// ends, each against the per-line oracle.
func TestSpanClassifierEdges(t *testing.T) {
	t.Run("detection-then-steady", func(t *testing.T) {
		var runs []run
		runs = append(runs, stream(0, 64, 8, false)...) // detect tensor A
		runs = append(runs, stream(0, 64, 8, true)...)  // full epoch write
		runs = append(runs, stream(0, 64, 8, false)...) // steady reads
		replayRuns(t, runs, 256)
	})
	t.Run("span-straddles-tensor-boundary", func(t *testing.T) {
		var runs []run
		runs = append(runs, stream(0, 32, 4, false)...)     // tensor A: lines 0..31
		runs = append(runs, stream(32*64, 32, 4, false)...) // tensor B: lines 32..63
		runs = append(runs, stream(0, 32, 4, true)...)
		runs = append(runs, stream(32*64, 32, 4, true)...)
		// Straddling reads and writes: spans cross the A/B seam.
		runs = append(runs, run{addr: 28 * 64, n: 8, write: false})
		runs = append(runs, run{addr: 30 * 64, n: 6, write: true})
		replayRuns(t, runs, 256)
	})
	t.Run("epoch-completion-inside-span", func(t *testing.T) {
		var runs []run
		runs = append(runs, stream(0, 16, 4, false)...)
		// One big write span covering the whole entry: the completing
		// line must take the per-line dataflow (epoch close + merge).
		runs = append(runs, run{addr: 0, n: 16, write: true})
		runs = append(runs, stream(0, 16, 16, false)...)
		replayRuns(t, runs, 128)
	})
	t.Run("assert1-double-write", func(t *testing.T) {
		var runs []run
		runs = append(runs, stream(0, 16, 4, false)...)
		runs = append(runs, run{addr: 0, n: 8, write: true})
		runs = append(runs, run{addr: 4 * 64, n: 8, write: true}) // rewrites 4..7 mid-epoch
		replayRuns(t, runs, 128)
	})
	t.Run("region-end", func(t *testing.T) {
		// Spans that run into the end of the VN store (out-of-range VNs
		// read as zero, writes are dropped) must behave like the per-line
		// path there too.
		var runs []run
		runs = append(runs, stream(56*64, 8, 8, false)...)
		runs = append(runs, run{addr: 60 * 64, n: 8, write: true}) // crosses store end at line 64
		runs = append(runs, run{addr: 62 * 64, n: 6, write: false})
		replayRuns(t, runs, 64)
	})
	t.Run("boundary-extension-mid-span", func(t *testing.T) {
		// 4 lines detect an entry; the next span starts at its boundary,
		// so every line extends one by one (hit-boundary per line).
		var runs []run
		runs = append(runs, run{addr: 0, n: 4, write: false})
		runs = append(runs, run{addr: 4 * 64, n: 12, write: false})
		replayRuns(t, runs, 64)
	})
}

// TestSpanClassifierRandom fuzzes random span soups against the
// per-line oracle (seeded for reproducibility).
func TestSpanClassifierRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		const lines = 512
		var runs []run
		for i := 0; i < 300; i++ {
			n := 1 + rng.Intn(12)
			addr := uint64(rng.Intn(lines-n)) * 64
			runs = append(runs, run{addr: addr, n: n, write: rng.Intn(3) == 0})
		}
		replayRuns(t, runs, lines)
	}
}
