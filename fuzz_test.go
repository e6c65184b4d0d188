package tensortee

import (
	"encoding/json"
	"errors"
	"math"
	"testing"
	"time"

	"tensortee/internal/config"
	"tensortee/internal/cpusim"
	"tensortee/internal/mee"
	"tensortee/internal/sim"
	"tensortee/internal/trace"
)

// buildFuzzResult deterministically shapes a Result out of raw fuzz
// bytes: table/row/column counts, ragged rows, and a mix of text and
// numeric cells all derive from data, so the fuzzer explores renderer
// edge cases (empty tables, rows wider than the header, NaN-free numeric
// extremes, control characters in text).
func buildFuzzResult(id, title string, data []byte, scalarName string, scalarVal float64, note string) *Result {
	res := &Result{
		ID:      id,
		Title:   title,
		Elapsed: time.Duration(len(data)),
	}
	if scalarName != "" {
		res.Scalars = map[string]float64{scalarName: scalarVal}
	}
	if note != "" {
		res.Notes = []string{note}
	}
	// One byte per structural decision; stop when data runs out.
	next := func() (byte, bool) {
		if len(data) == 0 {
			return 0, false
		}
		b := data[0]
		data = data[1:]
		return b, true
	}
	nTables, _ := next()
	for ti := 0; ti < int(nTables%4); ti++ {
		nCols, _ := next()
		cols := make([]string, int(nCols%5))
		for i := range cols {
			c, _ := next()
			cols[i] = string(rune(c))
		}
		tb := ResultTable{Title: title, Columns: cols}
		nRows, _ := next()
		for ri := 0; ri < int(nRows%5); ri++ {
			// Row width is independent of the column count on purpose:
			// ragged rows must render, not panic.
			nCells, _ := next()
			row := make([]Cell, int(nCells%7))
			for ci := range row {
				v, ok := next()
				if !ok {
					break
				}
				if v%2 == 0 {
					row[ci] = Cell{Text: string(data), Number: float64(v) * 1e17, IsNumber: true}
				} else {
					row[ci] = Cell{Text: string([]byte{v, 0, '\n', '"', ','})}
				}
			}
			tb.Rows = append(tb.Rows, row)
		}
		res.Tables = append(res.Tables, tb)
	}
	return res
}

// FuzzResultJSON pins that the Result renderers are total: for any cell
// mix — ragged rows, control characters, extreme numbers — Text, JSON and
// CSV never panic, JSON always emits a valid document, and Fingerprint
// stays deterministic and Elapsed-independent.
func FuzzResultJSON(f *testing.F) {
	f.Add("fig16", "Overall performance", []byte{2, 3, 'a', 'b', 'c', 2, 4, 1, 2, 3, 4}, "avg_speedup", 4.0, "geomean over 12 models")
	f.Add("", "", []byte{}, "", 0.0, "")
	f.Add("x", "y", []byte{1, 0, 1, 9, 9, 9, 9, 9, 9, 9}, "s", -1e308, "\x00\"")
	f.Fuzz(func(t *testing.T, id, title string, data []byte, scalarName string, scalarVal float64, note string) {
		// NaN/Inf scalars make json.Marshal error by encoding/json's spec,
		// not by a renderer bug; keep the corpus finite so "JSON() never
		// fails" stays the property under test.
		if math.IsNaN(scalarVal) || math.IsInf(scalarVal, 0) {
			scalarVal = 0
		}
		res := buildFuzzResult(id, title, data, scalarName, scalarVal, note)

		out, err := res.JSON()
		if err != nil {
			t.Fatalf("JSON() error: %v", err)
		}
		if !json.Valid(out) {
			t.Fatalf("JSON() emitted invalid JSON: %q", out)
		}
		// A Result must round-trip through its own JSON.
		var back Result
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatalf("JSON() output does not unmarshal: %v", err)
		}

		_ = res.Text() // must not panic, including on ragged rows
		_ = res.CSV()  // must not panic; csv quoting handles embedded separators

		fp := res.Fingerprint()
		if fp == "" {
			t.Fatal("empty fingerprint")
		}
		clone := *res
		clone.Elapsed = res.Elapsed + time.Hour
		if clone.Fingerprint() != fp {
			t.Fatal("fingerprint depends on Elapsed")
		}
	})
}

// FuzzTamperMemory pins TamperMemory's offset validation: any in-range
// bit flip is accepted and then detected on read (ErrTampered), any
// out-of-range bit is rejected up front — it never wraps onto another
// cacheline or panics, and the tensor stays readable.
func FuzzTamperMemory(f *testing.F) {
	f.Add(0)
	f.Add(127)
	f.Add(128) // first out-of-range bit for a 4-elem tensor
	f.Add(-1)
	f.Add(1 << 30)
	f.Add(-(1 << 30))
	f.Fuzz(func(t *testing.T, bit int) {
		p, err := NewPlatform(WithRegionBytes(4096), WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		h, err := p.CreateTensor(CPUSide, "t", []float32{1, 2, 3, 4})
		if err != nil {
			t.Fatal(err)
		}
		bits := h.Bytes() * 8
		err = p.TamperMemory(CPUSide, "t", bit)
		if bit >= 0 && bit < bits {
			if err != nil {
				t.Fatalf("in-range bit %d rejected: %v", bit, err)
			}
			if _, err := h.Read(CPUSide); !errors.Is(err, ErrTampered) {
				t.Fatalf("tampered read of bit %d = %v, want ErrTampered", bit, err)
			}
		} else {
			if err == nil {
				t.Fatalf("out-of-range bit %d accepted (would wrap)", bit)
			}
			if got, readErr := h.Read(CPUSide); readErr != nil {
				t.Fatalf("rejected tamper still corrupted the tensor: %v", readErr)
			} else if len(got) != 4 || got[0] != 1 {
				t.Fatalf("rejected tamper changed data: %v", got)
			}
		}
	})
}

// FuzzRunSpanParity pins the run-length fast path against the
// line-granular oracle for fuzzer-shaped traces: raw bytes decode into a
// soup of coalesced runs — spans that straddle tensor boundaries,
// metadata-line (8-slot) groups, and the region end — which replay
// through two fresh simulators, one consuming spans and one stepping
// lines. The Results (makespan, DRAM traffic, MEE and analyzer stats)
// must be identical, and the engine and analyzer stats must stay
// identical after both drain their dirty lines with Flush.
func FuzzRunSpanParity(f *testing.F) {
	f.Add([]byte{0, 8, 0, 1, 8, 1, 2, 16, 2, 255, 3, 0}, uint8(2))
	f.Add([]byte{7, 1, 0, 7, 1, 1}, uint8(0))     // single-line runs, mode off
	f.Add([]byte{63, 12, 2, 60, 12, 2}, uint8(1)) // region-end straddle, SGX
	f.Fuzz(func(t *testing.T, data []byte, modeByte uint8) {
		const dataLines = 1 << 9
		mode := []mee.Mode{mee.ModeOff, mee.ModeSGX, mee.ModeTensor}[int(modeByte)%3]
		var runs []trace.Run
		for len(data) >= 3 && len(runs) < 256 {
			addr := uint64(data[0]) % (dataLines - 1)
			lines := 1 + int(data[1])%32
			if addr+uint64(lines) > dataLines {
				lines = int(dataLines - addr)
			}
			runs = append(runs, trace.Run{
				Addr:    addr * 64,
				Lines:   lines,
				Stride:  64,
				Write:   data[2]%3 == 0,
				Compute: sim.Dur(data[2]%5) * 100,
			})
			data = data[3:]
		}
		if len(runs) == 0 {
			return
		}
		cfg := config.Default(config.BaselineSGXMGX)
		mk := func() *trace.RunSlice {
			return &trace.RunSlice{Runs: append([]trace.Run(nil), runs...)}
		}
		fast := cpusim.New(cfg, cpusim.Options{Mode: mode, DataLines: dataLines})
		oracle := cpusim.New(cfg, cpusim.Options{Mode: mode, DataLines: dataLines})
		for it := 0; it < 2; it++ {
			rFast := fast.Run([]trace.Stream{mk()})
			rOracle := oracle.Run(trace.LineOnlyStreams([]trace.Stream{mk()}))
			if rFast != rOracle {
				t.Fatalf("iteration %d: fast %+v != oracle %+v", it, rFast, rOracle)
			}
		}
		fast.Flush()
		oracle.Flush()
		if fast.Engine().Stats() != oracle.Engine().Stats() {
			t.Fatalf("engine stats diverge after flush:\nfast:   %+v\noracle: %+v",
				fast.Engine().Stats(), oracle.Engine().Stats())
		}
		if mode == mee.ModeTensor {
			if fast.Analyzer().Stats() != oracle.Analyzer().Stats() {
				t.Fatalf("analyzer stats diverge after flush:\nfast:   %+v\noracle: %+v",
					fast.Analyzer().Stats(), oracle.Analyzer().Stats())
			}
			if err := fast.Analyzer().CheckInvariant(); err != nil {
				t.Fatal(err)
			}
		}
	})
}
