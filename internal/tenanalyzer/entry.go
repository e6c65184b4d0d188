// Package tenanalyzer implements the hardware tensor-structure detector of
// TensorTEE's CPU TEE (Section 4.2): the Meta Table that virtualizes
// per-cacheline version numbers into per-tensor VNs, and the Tensor Filter
// that detects tensor-shaped access streams from Meta Table misses.
//
// The analyzer sits in the memory controller and observes the core's
// virtual-address request stream (Figure 9b): reads flow through the
// detection dataflow of Figure 10 (hit-in / hit-boundary / miss) and writes
// through the update dataflow of Figure 12 (hit-edge / hit-in / miss, with
// the bitmap, Updating Flag, Bit State, and Asserts 1–3).
//
// Correctness invariant: for every line covered by a valid entry, the
// entry's effective VN for that line equals the off-chip per-line VN (the
// VNStore). Assert violations invalidate the entry, falling back to the
// cacheline-granularity path, so the invariant can never be silently
// broken. Property tests drive random access interleavings against the
// VNStore oracle.
package tenanalyzer

import (
	"fmt"
	"math/bits"
)

// Dim is one dimension of a detected tensor: Count repetitions at Stride
// bytes. Dims are ordered innermost first; Dims[0].Stride is the line
// stride of the streaming dimension.
type Dim struct {
	Count  int
	Stride uint64
}

// MaxDims is the deepest tensor structure the Meta Table represents
// (1D streaming, 2D tiles, 3D blocks — Figure 11 merges in 2, 4, and 6
// directions respectively).
const MaxDims = 3

// Entry is one Meta Table row: an address range with shared metadata
// (VN, MAC) for all cachelines within the tensor (Figures 10 and 12).
type Entry struct {
	Base uint64
	Dims []Dim

	VN  uint64
	MAC uint64 // tensor-granularity MAC (XOR of line MACs)

	// Write-epoch state (Figure 12).
	UF bool // Updating Flag: a tensor update is in flight
	BS bool // Bit State: pre-update polarity of the bitmap bits

	bitmap  []bool // per covered line; "flipped" means != BS
	flipped int    // count of bitmap bits != BS

	lastUse uint64 // analyzer clock for LRU
	valid   bool
	lines   int // memoized Lines(); 0 = recompute (reset on shape change)
}

// Lines returns the number of cachelines the entry covers. The product
// over dims is memoized — the write dataflow asks on every covered
// write — and invalidated by Extend (other shape changes build fresh
// Entry values, whose zero memo recomputes).
func (e *Entry) Lines() int {
	if e.lines == 0 {
		n := 1
		for _, d := range e.Dims {
			n *= d.Count
		}
		e.lines = n
	}
	return e.lines
}

// Span returns the bounding-box size in bytes: distance from Base to one
// past the last covered line's start, plus nothing for line size (callers
// compare line base addresses).
func (e *Entry) Span() uint64 {
	var last uint64
	for _, d := range e.Dims {
		last += uint64(d.Count-1) * d.Stride
	}
	return last + e.Dims[0].Stride
}

// BoundEnd returns one past the bounding box (in line-base terms).
func (e *Entry) BoundEnd() uint64 { return e.Base + e.Span() }

// Contains reports whether addr is a covered line base, and its canonical
// linear index if so (outer dims varying slowest).
func (e *Entry) Contains(addr uint64) (idx int, ok bool) {
	if addr < e.Base {
		return 0, false
	}
	// Strides are power-of-two for line-granular entries (64 B lines,
	// power-of-two row pitches), so the hot path replaces the division
	// with a shift — the quotient is identical, Contains is called for
	// every Meta Table lookup, and integer division is the single most
	// expensive instruction in it.
	off := addr - e.Base
	idx = 0
	for i := len(e.Dims) - 1; i >= 1; i-- {
		d := e.Dims[i]
		var q uint64
		if d.Stride&(d.Stride-1) == 0 {
			q = off >> uint(bits.TrailingZeros64(d.Stride))
		} else {
			q = off / d.Stride
		}
		if q >= uint64(d.Count) {
			return 0, false
		}
		off -= q * d.Stride
		idx = idx*d.Count + int(q)
	}
	d0 := e.Dims[0]
	if d0.Stride&(d0.Stride-1) == 0 {
		if off&(d0.Stride-1) != 0 {
			return 0, false
		}
		q := off >> uint(bits.TrailingZeros64(d0.Stride))
		if q >= uint64(d0.Count) {
			return 0, false
		}
		return idx*d0.Count + int(q), true
	}
	if off%d0.Stride != 0 {
		return 0, false
	}
	q := off / d0.Stride
	if q >= uint64(d0.Count) {
		return 0, false
	}
	return idx*d0.Count + int(q), true
}

// AddrOf returns the line address of canonical index idx (inverse of
// Contains).
func (e *Entry) AddrOf(idx int) uint64 {
	addr := e.Base
	for d := len(e.Dims) - 1; d >= 0; d-- {
		div := 1
		for k := 0; k < d; k++ {
			div *= e.Dims[k].Count
		}
		q := idx / div
		idx %= div
		addr += uint64(q) * e.Dims[d].Stride
	}
	return addr
}

// BoundaryAddr returns the address whose arrival would extend the entry:
// the next line past the outermost dimension (for 1D this is the next
// sequential line — the paper's "request address == last address + stride").
func (e *Entry) BoundaryAddr() uint64 {
	outer := e.Dims[len(e.Dims)-1]
	return e.Base + uint64(outer.Count)*outer.Stride
}

// RunAddrs returns the line addresses the entry would gain by extending its
// outermost dimension once: the inner lattice shifted to the next outer
// index. For 1D entries this is the single boundary line.
func (e *Entry) RunAddrs() []uint64 {
	outer := e.Dims[len(e.Dims)-1]
	runBase := e.Base + uint64(outer.Count)*outer.Stride
	if len(e.Dims) == 1 {
		return []uint64{runBase}
	}
	innerLines := 1
	for _, d := range e.Dims[:len(e.Dims)-1] {
		innerLines *= d.Count
	}
	inner := Entry{Base: runBase, Dims: e.Dims[:len(e.Dims)-1]}
	out := make([]uint64, innerLines)
	for i := range out {
		out[i] = inner.AddrOf(i)
	}
	return out
}

// Extend grows the outermost dimension by one after a successful
// hit-boundary VN confirmation, growing the bitmap accordingly.
func (e *Entry) Extend() {
	outer := &e.Dims[len(e.Dims)-1]
	outer.Count++
	e.lines = 0 // shape changed: drop the Lines memo
	grown := e.Lines()
	for len(e.bitmap) < grown {
		e.bitmap = append(e.bitmap, e.BS)
	}
}

// EffectiveVN returns the VN that protects the line at canonical index idx:
// during an in-flight update (UF set), already-rewritten lines are at VN+1;
// the on-chip VN increments for the whole tensor only when the update
// completes (Figure 12).
func (e *Entry) EffectiveVN(idx int) uint64 {
	if e.UF && e.bitmap[idx] != e.BS {
		return e.VN + 1
	}
	return e.VN
}

// sameShape reports equal dims (counts and strides).
func sameShape(a, b []Dim) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (e *Entry) String() string {
	return fmt.Sprintf("entry base=0x%x dims=%v vn=%d uf=%v", e.Base, e.Dims, e.VN, e.UF)
}
