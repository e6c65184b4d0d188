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

// Access is one line-granular memory operation issued by a core.
type Access struct {
	Addr  uint64
	Write bool
	// Compute is the compute gap the core spends before issuing this
	// access (the arithmetic between memory operations).
	Compute sim.Dur
}

// Stream yields a core's access sequence.
type Stream interface {
	// Next returns the next access; ok is false when the stream is done.
	Next() (a Access, ok bool)
}

// Run is a coalesced span of Lines accesses to consecutive cachelines
// (Addr, Addr+Stride, ...), all reads or all writes, each preceded by the
// same Compute gap. Runs are the span currency of the fast path: one Run
// replaces Lines individual Access values, and expanding a Run line by
// line (see ExpandRun) reproduces the per-line stream exactly — the
// parity tests and the golden harness pin this equivalence.
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

// End returns one past the last byte-address the run's lines start at.
func (r Run) End() uint64 { return r.Addr + uint64(r.Lines)*r.Stride }

// RunStream is a Stream that can also yield coalesced spans. Next and
// NextRun share one cursor: a NextRun after a partial per-line read
// returns the remainder of the current span, so mixed consumption never
// skips or repeats a line.
type RunStream interface {
	Stream
	// NextRun returns the next coalesced span; ok is false when done.
	NextRun() (r Run, ok bool)
}

// ExpandRun appends the run's per-line accesses to dst and returns it —
// the reference expansion the oracle path and the parity tests use.
func ExpandRun(dst []Access, r Run) []Access {
	for i := 0; i < r.Lines; i++ {
		dst = append(dst, Access{
			Addr:    r.Addr + uint64(i)*r.Stride,
			Write:   r.Write,
			Compute: r.Compute,
		})
	}
	return dst
}

// lineOnly hides a stream's RunStream implementation, forcing consumers
// onto the per-line path — the line-granular oracle of the parity tests.
type lineOnly struct{ s Stream }

// LineOnly wraps s so that type assertions to RunStream fail: simulators
// then step line by line. Wrapping a plain Stream is a no-op
// indirection.
func LineOnly(s Stream) Stream { return &lineOnly{s: s} }

// Next implements Stream.
func (l *lineOnly) Next() (Access, bool) { return l.s.Next() }

// LineOnlyStreams wraps every stream in the slice with LineOnly.
func LineOnlyStreams(streams []Stream) []Stream {
	out := make([]Stream, len(streams))
	for i, s := range streams {
		out[i] = LineOnly(s)
	}
	return out
}

// SliceStream replays a fixed slice (tests). It is deliberately
// line-granular only (no NextRun): wrapping generated runs in a
// SliceStream is the simplest way to feed a simulator the oracle
// expansion of a coalesced stream.
type SliceStream struct {
	Accesses []Access
	pos      int
}

// Next implements Stream.
func (s *SliceStream) Next() (Access, bool) {
	if s.pos >= len(s.Accesses) {
		return Access{}, false
	}
	a := s.Accesses[s.pos]
	s.pos++
	return a, true
}

// RunSlice replays a fixed sequence of coalesced runs, serving both the
// span-granular and the line-granular interfaces from one cursor.
type RunSlice struct {
	Runs []Run
	pos  int // current run
	sub  int // lines of Runs[pos] already emitted by Next
}

// NextRun implements RunStream: it returns the remainder of the current
// run (the whole run when Next has not nibbled at it).
func (s *RunSlice) NextRun() (Run, bool) {
	for s.pos < len(s.Runs) {
		r := s.Runs[s.pos]
		sub := s.sub
		s.pos++
		s.sub = 0
		if sub >= r.Lines {
			continue // fully consumed by Next
		}
		r.Addr += uint64(sub) * r.Stride
		r.Lines -= sub
		return r, true
	}
	return Run{}, false
}

// Next implements Stream by expanding runs line by line.
func (s *RunSlice) Next() (Access, bool) {
	for s.pos < len(s.Runs) {
		r := s.Runs[s.pos]
		if s.sub < r.Lines {
			a := Access{Addr: r.Addr + uint64(s.sub)*r.Stride, Write: r.Write, Compute: r.Compute}
			s.sub++
			return a, true
		}
		s.pos++
		s.sub = 0
	}
	return Access{}, false
}

// CoalesceAccesses folds a per-line access slice into maximal runs:
// consecutive accesses with ascending stride-spaced addresses and equal
// Write/Compute merge. Expanding the result reproduces the input exactly.
func CoalesceAccesses(accs []Access, stride uint64) []Run {
	if stride == 0 {
		stride = 64
	}
	var runs []Run
	for _, a := range accs {
		if n := len(runs); n > 0 {
			last := &runs[n-1]
			if a.Addr == last.Addr+uint64(last.Lines)*stride &&
				a.Write == last.Write && a.Compute == last.Compute {
				last.Lines++
				continue
			}
		}
		runs = append(runs, Run{Addr: a.Addr, Lines: 1, Stride: stride, Write: a.Write, Compute: a.Compute})
	}
	return runs
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
	idx   int // line within the burst window

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

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func (s *adamStream) reset() {
	s.quad = 0
	s.phase = 0
	s.idx = 0
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

// Next implements Stream: per burst window it emits BurstLines reads of w,
// then g, m, v, then the stores of w, m, v, then advances the window.
func (s *adamStream) Next() (Access, bool) {
	if s.quad >= len(s.quads) {
		return Access{}, false
	}
	q := s.quads[s.quad]
	bl := s.burstLen()
	off := uint64((s.line + s.idx) * s.lineBytes)
	var a Access
	switch s.phase {
	case 0:
		a = Access{Addr: q.W.Addr + off, Compute: s.computePer}
	case 1:
		a = Access{Addr: q.G.Addr + off}
	case 2:
		a = Access{Addr: q.M.Addr + off}
	case 3:
		a = Access{Addr: q.V.Addr + off}
	case 4:
		a = Access{Addr: q.W.Addr + off, Write: true}
	case 5:
		a = Access{Addr: q.M.Addr + off, Write: true}
	case 6:
		a = Access{Addr: q.V.Addr + off, Write: true}
	}
	s.idx++
	if s.idx >= bl {
		s.idx = 0
		s.phase++
		if s.phase == 7 {
			s.phase = 0
			s.line += bl
			if s.line >= s.segs[s.seg].End {
				s.advanceSeg()
			}
		}
	}
	return a, true
}

// NextRun implements RunStream: one run per (phase, burst window) — up to
// BurstLines consecutive lines of a single tensor, so a run never crosses
// a tensor boundary. It advances the same cursor as Next, emitting the
// remainder of the current phase when Next already consumed part of it.
func (s *adamStream) NextRun() (Run, bool) {
	if s.quad >= len(s.quads) {
		return Run{}, false
	}
	q := s.quads[s.quad]
	bl := s.burstLen()
	off := uint64((s.line + s.idx) * s.lineBytes)
	r := Run{Lines: bl - s.idx, Stride: uint64(s.lineBytes)}
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
	s.idx = 0
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
// left-to-right, top-to-bottom; within a tile, row-major lines. The
// stream is run-coalesced: each tile row is one contiguous span (a tile
// row never crosses the matrix row it lives in), so simulators on the
// span path replay it without per-line stream calls. Expanding the runs
// reproduces the historical per-line sequence exactly.
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

// CountStream counts the accesses a stream yields (draining it).
func CountStream(s Stream) int {
	n := 0
	for {
		if _, ok := s.Next(); !ok {
			return n
		}
		n++
	}
}
