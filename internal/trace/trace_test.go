package trace

import (
	"fmt"
	"testing"

	"tensortee/internal/sim"
	"tensortee/internal/tensor"
)

func TestNewAdamTensorsLayout(t *testing.T) {
	arena := tensor.NewArena(0, 64)
	q := NewAdamTensors(arena, "layer0", 1024)
	for _, tt := range []*tensor.Tensor{q.W, q.G, q.M, q.V} {
		if tt.Bytes() != 4096 {
			t.Errorf("%s bytes = %d, want 4096", tt.Name, tt.Bytes())
		}
		if tt.Addr%64 != 0 {
			t.Errorf("%s not line aligned", tt.Name)
		}
	}
	// No overlaps.
	all := []*tensor.Tensor{q.W, q.G, q.M, q.V}
	for i := range all {
		for j := i + 1; j < len(all); j++ {
			ri := tensor.Region{Base: all[i].Addr, Bytes: all[i].Bytes()}
			rj := tensor.Region{Base: all[j].Addr, Bytes: all[j].Bytes()}
			if ri.Overlaps(rj) {
				t.Errorf("%s overlaps %s", all[i].Name, all[j].Name)
			}
		}
	}
}

// line is one line-granular access of an expanded stream.
type line struct {
	Addr    uint64
	Write   bool
	Compute sim.Dur
}

// drain expands every run of a stream into its per-line accesses.
func drain(s Stream) []line {
	var out []line
	for _, r := range drainRuns(s) {
		for i := 0; i < r.Lines; i++ {
			out = append(out, line{Addr: r.Addr + uint64(i)*r.Stride, Write: r.Write, Compute: r.Compute})
		}
	}
	return out
}

// drainRuns collects all runs of a stream.
func drainRuns(s Stream) []Run {
	var out []Run
	for {
		r, ok := s.NextRun()
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

func TestAdamStreamCoversEverythingOnce(t *testing.T) {
	arena := tensor.NewArena(0, 64)
	quads := []AdamTensors{NewAdamTensors(arena, "p", 256)} // 16 lines/tensor
	streams := AdamStreams(quads, AdamConfig{Cores: 2, BurstLines: 4})

	readCount := map[uint64]int{}
	writeCount := map[uint64]int{}
	total := 0
	for _, s := range streams {
		for _, a := range drain(s) {
			total++
			if a.Write {
				writeCount[a.Addr]++
			} else {
				readCount[a.Addr]++
			}
		}
	}
	// 16 lines x (4 reads + 3 writes) = 112 accesses.
	if total != 112 {
		t.Fatalf("total accesses = %d, want 112", total)
	}
	q := quads[0]
	for i := 0; i < 16; i++ {
		off := uint64(i * 64)
		for _, base := range []uint64{q.W.Addr, q.G.Addr, q.M.Addr, q.V.Addr} {
			if readCount[base+off] != 1 {
				t.Errorf("line %#x read %d times, want 1", base+off, readCount[base+off])
			}
		}
		for _, base := range []uint64{q.W.Addr, q.M.Addr, q.V.Addr} {
			if writeCount[base+off] != 1 {
				t.Errorf("line %#x written %d times, want 1", base+off, writeCount[base+off])
			}
		}
		if writeCount[q.G.Addr+off] != 0 {
			t.Error("gradient tensor must not be written by Adam")
		}
	}
}

func TestAdamStreamBurstGrouping(t *testing.T) {
	arena := tensor.NewArena(0, 64)
	quads := []AdamTensors{NewAdamTensors(arena, "p", 16*8)} // 8 lines
	streams := AdamStreams(quads, AdamConfig{Cores: 1, BurstLines: 4})
	accs := drain(streams[0])
	// First burst: 4 reads of w at consecutive lines.
	q := quads[0]
	for i := 0; i < 4; i++ {
		if accs[i].Addr != q.W.Addr+uint64(i*64) || accs[i].Write {
			t.Fatalf("access %d = %+v, want w read line %d", i, accs[i], i)
		}
	}
	// Next: 4 reads of g.
	for i := 0; i < 4; i++ {
		if accs[4+i].Addr != q.G.Addr+uint64(i*64) {
			t.Fatalf("access %d = %+v, want g read", 4+i, accs[4+i])
		}
	}
	// Burst 1 writes arrive before burst 2 reads.
	if !accs[16].Write || accs[16].Addr != q.W.Addr {
		t.Errorf("access 16 = %+v, want w write line 0", accs[16])
	}
	if accs[28].Write || accs[28].Addr != q.W.Addr+4*64 {
		t.Errorf("access 28 = %+v, want w read line 4", accs[28])
	}
}

func TestAdamStreamChunking(t *testing.T) {
	arena := tensor.NewArena(0, 64)
	quads := []AdamTensors{NewAdamTensors(arena, "p", 32*16)} // 32 lines
	streams := AdamStreams(quads, AdamConfig{Cores: 4})
	q := quads[0]
	for c, s := range streams {
		accs := drain(s)
		if len(accs) != 8*7 {
			t.Fatalf("core %d accesses = %d, want 56", c, len(accs))
		}
		wantFirst := q.W.Addr + uint64(c*8*64)
		if accs[0].Addr != wantFirst {
			t.Errorf("core %d first access %#x, want %#x", c, accs[0].Addr, wantFirst)
		}
	}
}

func TestAdamStreamChunkShiftRotates(t *testing.T) {
	arena := tensor.NewArena(0, 64)
	quads := []AdamTensors{NewAdamTensors(arena, "p", 32*16)} // 32 lines
	q := quads[0]

	// With a shift every line must still be read exactly once in total,
	// and the chunk boundary must have moved.
	countReads := func(shift int) map[uint64]int {
		counts := map[uint64]int{}
		for _, s := range AdamStreams(quads, AdamConfig{Cores: 2, ChunkShift: shift}) {
			for _, a := range drain(s) {
				if !a.Write && a.Addr >= q.W.Addr && a.Addr < q.W.End() {
					counts[a.Addr]++
				}
			}
		}
		return counts
	}
	for _, shift := range []int{0, 3, 16, 31} {
		counts := countReads(shift)
		for i := 0; i < 32; i++ {
			if counts[q.W.Addr+uint64(i*64)] != 1 {
				t.Fatalf("shift %d: line %d read %d times, want 1", shift, i, counts[q.W.Addr+uint64(i*64)])
			}
		}
	}
	// Core 0's first line moves with the shift.
	s0 := AdamStreams(quads, AdamConfig{Cores: 2, ChunkShift: 0})
	s3 := AdamStreams(quads, AdamConfig{Cores: 2, ChunkShift: 3})
	a0 := drain(s0[0])
	a3 := drain(s3[0])
	if a0[0].Addr == a3[0].Addr {
		t.Error("shift did not move chunk boundaries")
	}
}

func TestAdamStreamComputeOnGroupLeader(t *testing.T) {
	arena := tensor.NewArena(0, 64)
	quads := []AdamTensors{NewAdamTensors(arena, "p", 64)}
	streams := AdamStreams(quads, AdamConfig{Cores: 1, ComputePerLine: 100, BurstLines: 1})
	accs := drain(streams[0])
	if accs[0].Compute != 100 {
		t.Error("first access of a group must carry the compute gap")
	}
	if accs[1].Compute != 0 {
		t.Error("subsequent accesses of a group must not re-charge compute")
	}
}

func TestGEMMStream(t *testing.T) {
	s := GEMMStream(GEMMConfig{
		Base: 0x1000, Rows: 8, Cols: 32, TileRows: 4, TileCols: 16,
	})
	accs := drain(s)
	// 8x32 fp32 matrix = 1024B... accesses: per tile row 16*4/64 = 1 line;
	// 4 rows per tile; tiles: 2 cols x 2 rows = 4 tiles -> 16 accesses.
	if len(accs) != 16 {
		t.Fatalf("accesses = %d, want 16", len(accs))
	}
	// First tile, first row at base.
	if accs[0].Addr != 0x1000 {
		t.Errorf("first access %#x", accs[0].Addr)
	}
	// Second row of first tile at base + rowBytes (128).
	if accs[1].Addr != 0x1000+128 {
		t.Errorf("second access %#x, want %#x", accs[1].Addr, 0x1000+128)
	}
	// Second tile starts at column 16 -> base + 64.
	if accs[4].Addr != 0x1000+64 {
		t.Errorf("second tile first access %#x, want %#x", accs[4].Addr, 0x1000+64)
	}
}

func TestGEMMStreamRepeats(t *testing.T) {
	one := len(drain(GEMMStream(GEMMConfig{Base: 0, Rows: 8, Cols: 32, TileRows: 4, TileCols: 16})))
	three := len(drain(GEMMStream(GEMMConfig{Base: 0, Rows: 8, Cols: 32, TileRows: 4, TileCols: 16, Repeats: 3})))
	if three != 3*one {
		t.Errorf("repeats = %d, want %d", three, 3*one)
	}
}

// sameLines compares two access slices exactly.
func sameLines(t *testing.T, got, want []line, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d accesses, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: access %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// adamOracle lists one core's Adam accesses line by line in the
// documented order: per quad, per segment of the core's chunk, per burst
// window of up to burst lines, read w, g, m, v, then write w, m, v, with
// the compute gap on each w read. The chunk segments come from the
// stream's segsOf, whose geometry the chunking tests pin.
func adamOracle(s Stream, burst int, compute sim.Dur) []line {
	as := s.(*adamStream)
	var out []line
	for _, q := range as.quads {
		phases := []struct {
			base  uint64
			write bool
		}{{q.W.Addr, false}, {q.G.Addr, false}, {q.M.Addr, false}, {q.V.Addr, false},
			{q.W.Addr, true}, {q.M.Addr, true}, {q.V.Addr, true}}
		for _, seg := range as.segsOf(q) {
			for lo := seg.Start; lo < seg.End; lo += burst {
				for p, ph := range phases {
					for l := lo; l < min(lo+burst, seg.End); l++ {
						a := line{Addr: ph.base + uint64(l*64), Write: ph.write}
						if p == 0 {
							a.Compute = compute
						}
						out = append(out, a)
					}
				}
			}
		}
	}
	return out
}

// TestAdamRunsMatchLines pins the Adam stream's runs against the
// per-line oracle, for several chunkings including uneven tails and
// rotated seams.
func TestAdamRunsMatchLines(t *testing.T) {
	cases := []struct {
		name  string
		elems int
		cfg   AdamConfig
	}{
		{"one-core", 256, AdamConfig{Cores: 1, BurstLines: 4}},
		{"multi-core", 256, AdamConfig{Cores: 3, BurstLines: 4, ComputePerLine: 40}},
		{"shifted", 512, AdamConfig{Cores: 2, ChunkShift: 5, BurstLines: 8}},
		{"wrap-seam", 512, AdamConfig{Cores: 2, ChunkShift: 30, BurstLines: 8}},
		{"ragged-tail", 7 * 16, AdamConfig{Cores: 2, BurstLines: 8}},
		{"burst-1", 128, AdamConfig{Cores: 1, BurstLines: 1, ComputePerLine: 7}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			arena := tensor.NewArena(0, 64)
			quads := []AdamTensors{NewAdamTensors(arena, "a", tc.elems), NewAdamTensors(arena, "b", tc.elems/2)}
			for c, s := range AdamStreams(quads, tc.cfg) {
				want := adamOracle(s, tc.cfg.BurstLines, tc.cfg.ComputePerLine)
				runs := drainRuns(s)
				for _, r := range runs {
					if r.Lines <= 0 || r.Stride == 0 {
						t.Fatalf("degenerate run %+v", r)
					}
				}
				sameLines(t, drain(&RunSlice{Runs: runs}), want, fmt.Sprintf("core %d", c))
			}
		})
	}
}

// TestGEMMRunsMatchLines pins the GEMM stream's runs against the per-line
// oracle — tiles left to right, then top to bottom; row-major lines
// within a tile — including a tile width that is not a whole number of
// lines.
func TestGEMMRunsMatchLines(t *testing.T) {
	for _, cfg := range []GEMMConfig{
		{Base: 0x1000, Rows: 8, Cols: 32, TileRows: 4, TileCols: 16},
		{Base: 0, Rows: 256, Cols: 256, TileRows: 64, TileCols: 64, Repeats: 2, ComputePerLine: 3},
		{Base: 0x40, Rows: 4, Cols: 8, TileRows: 2, TileCols: 8}, // 32B tile row < 1 line
	} {
		var want []line
		for rep := 0; rep < max(cfg.Repeats, 1); rep++ {
			for tr := 0; tr < cfg.Rows; tr += cfg.TileRows {
				for tc := 0; tc < cfg.Cols; tc += cfg.TileCols {
					for r := tr; r < tr+cfg.TileRows; r++ {
						row := cfg.Base + uint64(r*cfg.Cols*4+tc*4)
						for b := 0; b < cfg.TileCols*4; b += 64 {
							want = append(want, line{Addr: row + uint64(b), Compute: cfg.ComputePerLine})
						}
					}
				}
			}
		}
		sameLines(t, drain(GEMMStream(cfg)), want, "gemm")
	}
}
