// Package trace generates the virtual-address access streams the CPU
// simulator replays: the element-wise Adam optimizer sweep of ZeRO-Offload
// (Figure 4's tensor-shaped streaming) and tiled-GEMM access patterns
// (Section 6.2). Streams are per-core, matching the paper's observation
// that core VA streams stay regular even when caches shuffle the physical
// access order (Figure 9).
package trace

import (
	"tensortee/internal/sim"
	"tensortee/internal/tensor"
)

// Run is a span of Lines accesses to consecutive cachelines (Addr,
// Addr+Stride, ...), all reads or all writes, each preceded by the same
// Compute gap (the arithmetic between memory operations). Consumers expand
// a run line by line in that order.
//
// Generators guarantee a Run never crosses a tensor boundary: every line
// of a Run belongs to the same tensor.
type Run struct {
	Addr    uint64 // first line address
	Lines   int    // number of lines in the span
	Stride  uint64 // line spacing in bytes (the generator's line size)
	Write   bool
	Compute sim.Dur // compute gap charged before each line
}

// Stream yields a core's access sequence as runs.
type Stream interface {
	// NextRun returns the next run; ok is false when the stream is done.
	NextRun() (r Run, ok bool)
}

// RunStream is the name the perfbench drivers still assert streams to.
type RunStream = Stream

// RunSlice replays a fixed sequence of runs.
type RunSlice struct {
	Runs []Run
	pos  int
}

// NextRun implements Stream.
func (s *RunSlice) NextRun() (Run, bool) {
	if s.pos >= len(s.Runs) {
		return Run{}, false
	}
	s.pos++
	return s.Runs[s.pos-1], true
}

// AdamTensors is the per-parameter-group tensor quad of the Adam step:
// fp32 weights, gradients, and the two moment tensors, all element-aligned
// (ZeRO-Offload keeps them on the CPU, Figure 1).
type AdamTensors struct {
	W, G, M, V *tensor.Tensor
}

// NewAdamTensors lays out a quad of Elems fp32 tensors in the arena.
func NewAdamTensors(a *tensor.Arena, name string, elems int) AdamTensors {
	sh := tensor.Shape{elems}
	return AdamTensors{
		W: a.AllocTensor(name+".w", sh, tensor.FP32),
		G: a.AllocTensor(name+".g", sh, tensor.FP32),
		M: a.AllocTensor(name+".m", sh, tensor.FP32),
		V: a.AllocTensor(name+".v", sh, tensor.FP32),
	}
}

// adamStream walks one core's chunk of an Adam sweep in prefetch-sized
// bursts: per burst window it reads BurstLines lines of w, then g, m, v,
// then stores back w, m, v. The per-stream burst grouping is what the L2
// streaming prefetchers of a real core produce at the memory controller,
// and it is what lets the 10-slot Tensor Filter observe four consecutive
// same-stride misses (Figure 10) even with 7 streams x 8 cores in flight.
type adamStream struct {
	quads      []AdamTensors
	lineBytes  int
	burst      int
	computePer sim.Dur // compute gap charged once per line group

	quad  int
	segs  []lineRange // this core's segments in the current quad
	seg   int
	line  int // start of the current burst window
	phase int // 0..6: read w,g,m,v then write w,m,v

	segsOf func(q AdamTensors) []lineRange
}

// lineRange is a half-open [Start, End) span of line indices.
type lineRange struct{ Start, End int }

// AdamConfig shapes the per-core Adam streams.
type AdamConfig struct {
	LineBytes int
	// ComputePerLine is the arithmetic time per 64 B line group of the
	// fused Adam update (vectorized: ~tens of cycles).
	ComputePerLine sim.Dur
	// Cores is the thread count; each tensor is split into Cores chunks.
	Cores int
	// ChunkShift rotates the chunk boundaries by the given number of lines
	// (with wraparound, so every line is still covered exactly once),
	// modeling dynamic work scheduling across iterations — the moving
	// seams are what the Meta Table re-detects (Figure 18).
	ChunkShift int
	// BurstLines is the per-stream prefetch grouping (default 8 lines).
	BurstLines int
}

// AdamStreams builds one stream per core over the given parameter groups.
func AdamStreams(quads []AdamTensors, cfg AdamConfig) []Stream {
	if cfg.LineBytes <= 0 {
		cfg.LineBytes = 64
	}
	if cfg.Cores <= 0 {
		cfg.Cores = 1
	}
	if cfg.BurstLines <= 0 {
		cfg.BurstLines = 8
	}
	streams := make([]Stream, cfg.Cores)
	for c := 0; c < cfg.Cores; c++ {
		c := c
		streams[c] = &adamStream{
			quads:      quads,
			lineBytes:  cfg.LineBytes,
			burst:      cfg.BurstLines,
			computePer: cfg.ComputePerLine,
			segsOf: func(q AdamTensors) []lineRange {
				lines := q.W.Lines(cfg.LineBytes)
				per := (lines + cfg.Cores - 1) / cfg.Cores
				shift := 0
				if lines > 0 {
					shift = cfg.ChunkShift % lines
				}
				start := c*per + shift
				end := start + per
				if end > start+lines {
					end = start + lines
				}
				// Rotate into [0, lines), splitting at the wrap point. The
				// wrapped head segment is processed first so each core's
				// stream stays ascending (the LLC then emits writebacks in
				// roughly ascending order, which is what lets epochs close
				// on the tensor's true last line).
				var segs []lineRange
				if start >= lines {
					segs = append(segs, lineRange{start - lines, min(end-lines, lines)})
				} else if end <= lines {
					segs = append(segs, lineRange{start, end})
				} else {
					segs = append(segs, lineRange{0, end - lines}, lineRange{start, lines})
				}
				out := segs[:0]
				for _, s := range segs {
					if s.Start < s.End {
						out = append(out, s)
					}
				}
				return out
			},
		}
	}
	for _, s := range streams {
		s.(*adamStream).reset()
	}
	return streams
}

func (s *adamStream) reset() {
	s.quad = 0
	s.phase = 0
	s.advanceQuad()
}

func (s *adamStream) advanceQuad() {
	for s.quad < len(s.quads) {
		segs := s.segsOf(s.quads[s.quad])
		if len(segs) > 0 {
			s.segs = segs
			s.seg = 0
			s.line = segs[0].Start
			return
		}
		s.quad++
	}
}

// advanceSeg moves to the next segment or quad after the current segment
// is exhausted.
func (s *adamStream) advanceSeg() {
	s.seg++
	if s.seg < len(s.segs) {
		s.line = s.segs[s.seg].Start
		return
	}
	s.quad++
	s.advanceQuad()
}

// burstLen returns the burst window size clipped to the segment end.
func (s *adamStream) burstLen() int {
	n := s.segs[s.seg].End - s.line
	if n > s.burst {
		n = s.burst
	}
	return n
}

// NextRun implements Stream: one run per (phase, burst window) — up to
// BurstLines consecutive lines of a single tensor, so a run never crosses
// a tensor boundary. Per burst window it yields the reads of w, g, m, v,
// then the stores of w, m, v, then advances the window.
func (s *adamStream) NextRun() (Run, bool) {
	if s.quad >= len(s.quads) {
		return Run{}, false
	}
	q := s.quads[s.quad]
	bl := s.burstLen()
	off := uint64(s.line * s.lineBytes)
	r := Run{Lines: bl, Stride: uint64(s.lineBytes)}
	switch s.phase {
	case 0:
		r.Addr, r.Compute = q.W.Addr+off, s.computePer
	case 1:
		r.Addr = q.G.Addr + off
	case 2:
		r.Addr = q.M.Addr + off
	case 3:
		r.Addr = q.V.Addr + off
	case 4:
		r.Addr, r.Write = q.W.Addr+off, true
	case 5:
		r.Addr, r.Write = q.M.Addr+off, true
	case 6:
		r.Addr, r.Write = q.V.Addr+off, true
	}
	s.phase++
	if s.phase == 7 {
		s.phase = 0
		s.line += bl
		if s.line >= s.segs[s.seg].End {
			s.advanceSeg()
		}
	}
	return r, true
}

// GEMMConfig describes a tiled 2D matrix-multiply read pattern over one
// operand matrix (Section 6.2: 256x256 matrix, 64x64 tiles).
type GEMMConfig struct {
	Base      uint64 // matrix base address
	Rows      int    // D1
	Cols      int    // D2 (row-major fp32)
	TileRows  int    // d1
	TileCols  int    // d2
	LineBytes int
	// ComputePerLine is the MAC work overlapping each fetched line.
	ComputePerLine sim.Dur
	// Repeats re-walks the whole matrix (the k-loop of GEMM revisits
	// tiles; detection completes within the first walk).
	Repeats int
}

// GEMMStream yields the tile-ordered traversal of the matrix: tiles
// left-to-right, top-to-bottom; within a tile, row-major lines. Each tile
// row is one run (a tile row never crosses the matrix row it lives in).
func GEMMStream(cfg GEMMConfig) Stream {
	if cfg.LineBytes <= 0 {
		cfg.LineBytes = 64
	}
	if cfg.Repeats <= 0 {
		cfg.Repeats = 1
	}
	var runs []Run
	rowBytes := uint64(cfg.Cols * 4)
	linesPerTileRow := (cfg.TileCols*4 + cfg.LineBytes - 1) / cfg.LineBytes
	for rep := 0; rep < cfg.Repeats; rep++ {
		for tr := 0; tr < cfg.Rows; tr += cfg.TileRows {
			for tc := 0; tc < cfg.Cols; tc += cfg.TileCols {
				for r := 0; r < cfg.TileRows; r++ {
					runs = append(runs, Run{
						Addr:    cfg.Base + uint64(tr+r)*rowBytes + uint64(tc*4),
						Lines:   linesPerTileRow,
						Stride:  uint64(cfg.LineBytes),
						Compute: cfg.ComputePerLine,
					})
				}
			}
		}
	}
	return &RunSlice{Runs: runs}
}
