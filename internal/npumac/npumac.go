// Package npumac implements the NPU's integrity-verification schemes
// compared in Section 4.3 / Figure 20:
//
//   - cacheline-granularity MACs (the MGX-like baseline: ~10.9% storage);
//   - coarse-granularity MACs (256 B–4 KB as in GuardNN/MGX, which trade
//     storage for verification stalls);
//   - TensorTEE's tensor-granularity XOR MAC with delayed verification,
//     where MAC re-computation overlaps computation and integrity is
//     enforced at communication time by tensor poison tracing plus a
//     verification barrier (Figure 14).
//
// Code fetches never use the delayed path: the scheme tracks instruction
// requests separately and verifies them inline (Section 4.3 "restricting
// code access requests following normal non-delayed verification").
package npumac

import (
	"bytes"
	"fmt"
	"slices"
	"unsafe"

	"tensortee/internal/crypto"
)

// Scheme identifies a MAC-management scheme for storage/timing accounting.
type Scheme int

const (
	// SchemeCacheline is one MAC per 64 B line (MGX-like baseline).
	SchemeCacheline Scheme = iota
	// SchemeCoarse is one MAC per Granularity bytes (GuardNN/MGX 512 B+).
	SchemeCoarse
	// SchemeTensorDelayed is TensorTEE's per-tensor XOR MAC with delayed
	// verification.
	SchemeTensorDelayed
)

func (s Scheme) String() string {
	switch s {
	case SchemeCacheline:
		return "cacheline-mac"
	case SchemeCoarse:
		return "coarse-mac"
	case SchemeTensorDelayed:
		return "tensor-mac-delayed"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// StorageOverhead returns off-chip MAC bytes per data byte for a scheme at
// the given granularity (Figure 20's right axis). Tensor-granularity MACs
// live on chip, so their off-chip overhead is zero.
func StorageOverhead(s Scheme, granBytes, macBytes int) float64 {
	switch s {
	case SchemeCacheline:
		return float64(macBytes) / 64
	case SchemeCoarse:
		return float64(macBytes) / float64(granBytes)
	case SchemeTensorDelayed:
		return 0
	default:
		return 0
	}
}

// TensorID names a tensor in NPU device memory. IDs are small sequential
// integers handed out from 0 (the NPU model and the functional Platform
// both count up), so the Verifier keeps tensor states in a slice indexed
// by ID; its memory grows with the largest ID it has been handed. A
// negative ID reads as never touched, and starting or writing one panics.
type TensorID int

// tensorState tracks one tensor's delayed-verification status. The zero
// value is a never-touched tensor.
type tensorState struct {
	// pendingMAC is the XOR accumulation of recomputed line MACs for
	// in-flight verification.
	pendingMAC uint64
	// refMAC is the trusted reference (from the on-chip table or the
	// trusted channel at import).
	refMAC uint64
	// poisoned: the tensor (or a tensor it was computed from) has pending
	// unverified input data (Figure 14c poison bits).
	poisoned   bool
	pendingSet bool
	refSet     bool
	failed     bool
}

// VerificationError reports a delayed-verification failure.
type VerificationError struct {
	Tensor TensorID
	Reason string
	// Unverified marks failures where the tensor is still poisoned
	// (pending or propagated verification) rather than a detected MAC
	// mismatch; callers use it to distinguish "not yet verified" from
	// "tampered".
	Unverified bool
}

func (e *VerificationError) Error() string {
	return fmt.Sprintf("npumac: tensor %d integrity violation: %s", e.Tensor, e.Reason)
}

// Verifier is the delayed-verification engine: it tracks poison bits for up
// to MaxTensors tensors, accumulates XOR MACs as lines stream in, and
// enforces barriers before communication.
type Verifier struct {
	maxUnverified int
	states        []tensorState // indexed by TensorID
	unverified    int
	// codeVerifies counts inline (non-delayed) code-fetch verifications.
	codeVerifies  uint64
	codeFailures  uint64
	barrierChecks uint64
	failures      uint64
}

// NewVerifier builds a verifier with the Section 4.3 cap on simultaneously
// unverified tensors ("the number of unverified tensors is limited with a
// counter to avoid meaningless computations after verification failure").
func NewVerifier(maxUnverified int) *Verifier {
	if maxUnverified <= 0 {
		maxUnverified = 64
	}
	return &Verifier{maxUnverified: maxUnverified}
}

// lookup returns a tensor's state, or nil if it was never touched; a
// negative ID never is.
func (v *Verifier) lookup(id TensorID) *tensorState {
	if id < 0 || int(id) >= len(v.states) {
		return nil
	}
	return &v.states[id]
}

// state returns a tensor's state, creating a clean one on first touch.
func (v *Verifier) state(id TensorID) *tensorState {
	if id < 0 {
		panic(fmt.Sprintf("npumac: negative tensor ID %d", id))
	}
	for len(v.states) <= int(id) {
		v.states = append(v.states, tensorState{})
	}
	return &v.states[id]
}

// Reserve makes room for n more sequential tensor IDs.
func (v *Verifier) Reserve(n int) { v.states = slices.Grow(v.states, n) }

// Unverified reports the number of tensors currently poisoned.
func (v *Verifier) Unverified() int { return v.unverified }

// AtCapacity reports whether starting another unverified tensor would
// exceed the cap; the NPU pipeline stalls new loads until verification
// catches up.
func (v *Verifier) AtCapacity() bool { return v.unverified >= v.maxUnverified }

// BeginRead marks the start of streaming a tensor's lines with delayed
// verification: the tensor becomes poisoned until verification completes.
// refMAC is the trusted tensor MAC (on-chip table / trusted channel).
func (v *Verifier) BeginRead(id TensorID, refMAC uint64) {
	s := v.state(id)
	if !s.poisoned {
		s.poisoned = true
		v.unverified++
	}
	s.refMAC = refMAC
	s.refSet = true
	s.pendingMAC = 0
	s.pendingSet = true
}

// AccumulateLine folds a recomputed line MAC into the pending tensor MAC.
// Order-insensitive by the XOR construction, so tiled access is fine.
func (v *Verifier) AccumulateLine(id TensorID, lineMAC uint64) {
	s := v.state(id)
	if !s.pendingSet {
		s.pendingMAC = 0
		s.pendingSet = true
	}
	s.pendingMAC ^= lineMAC & crypto.MACMask
}

// CompleteRead finishes the delayed verification of a tensor: the XOR of
// recomputed line MACs must equal the reference. On success the poison bit
// clears; on failure the tensor is marked failed and stays poisoned.
func (v *Verifier) CompleteRead(id TensorID) error {
	s := v.lookup(id)
	if s == nil || !s.refSet {
		return &VerificationError{Tensor: id, Reason: "no reference MAC"}
	}
	if s.pendingMAC != s.refMAC {
		s.failed = true
		v.failures++
		return &VerificationError{Tensor: id, Reason: fmt.Sprintf("MAC mismatch: computed %#x, reference %#x", s.pendingMAC, s.refMAC)}
	}
	if s.poisoned {
		s.poisoned = false
		v.unverified--
	}
	s.pendingSet = false
	return nil
}

// Propagate marks dst poisoned if any src is poisoned (or failed): the
// poison effect flows to output tensors of every kernel (Figure 14c).
func (v *Verifier) Propagate(dst TensorID, srcs ...TensorID) {
	poison := false
	for _, src := range srcs {
		if s := v.lookup(src); s != nil && (s.poisoned || s.failed) {
			poison = true
			break
		}
	}
	d := v.state(dst)
	if poison && !d.poisoned {
		d.poisoned = true
		v.unverified++
	}
	// A clean recomputation of dst from verified inputs clears its poison:
	// the new value no longer depends on unverified data.
	if !poison && d.poisoned && !d.failed {
		d.poisoned = false
		v.unverified--
	}
}

// Poisoned reports a tensor's poison bit.
func (v *Verifier) Poisoned(id TensorID) bool {
	s := v.lookup(id)
	return s != nil && (s.poisoned || s.failed)
}

// Barrier implements the verification_barrier pragma (Figure 14a): it
// blocks the communication of the given tensors until their poison bits
// are clear, returning an error if any involved tensor failed verification
// or is still unverified (in hardware the barrier *waits*; in this
// functional model pending verifications must already have completed, so a
// still-poisoned tensor means a verification failure or a protocol bug).
func (v *Verifier) Barrier(ids ...TensorID) error {
	v.barrierChecks++
	for _, id := range ids {
		s := v.lookup(id)
		if s == nil {
			continue // never touched: trivially clean
		}
		if s.failed {
			return &VerificationError{Tensor: id, Reason: "verification failed before communication"}
		}
		if s.poisoned {
			return &VerificationError{Tensor: id, Reason: "unverified at communication barrier", Unverified: true}
		}
	}
	return nil
}

// VerifyCode performs the inline, non-delayed verification of a code fetch
// (isInst-flagged requests): the line MAC must match immediately, before
// the instruction issues.
func (v *Verifier) VerifyCode(lineMAC, refMAC uint64) error {
	return v.VerifyCodeLines([]uint64{lineMAC}, []uint64{refMAC})
}

// VerifyCodeLines is VerifyCode over a whole kernel's code lines in one
// call: every line i is compared against refMACs[i] and counted, each
// mismatching line counts as a code failure, and any mismatch returns a
// *VerificationError on tensor -1. The two slices must have equal length.
func (v *Verifier) VerifyCodeLines(lineMACs, refMACs []uint64) error {
	if len(lineMACs) != len(refMACs) {
		panic(fmt.Sprintf("npumac: %d code lines but %d reference MACs", len(lineMACs), len(refMACs)))
	}
	v.codeVerifies += uint64(len(lineMACs))
	// Equal MACs have equal bytes, so one vectorized memory compare checks
	// every line; only a mismatch takes a second pass to count the failing
	// lines.
	if bytes.Equal(macBytes(lineMACs), macBytes(refMACs)) {
		return nil
	}
	for i, mac := range lineMACs {
		if mac != refMACs[i] {
			v.codeFailures++
		}
	}
	return &VerificationError{Tensor: -1, Reason: "code line MAC mismatch"}
}

// macBytes views MAC words as their in-memory bytes.
func macBytes(macs []uint64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(macs))), 8*len(macs))
}

// Stats reports verifier activity.
type Stats struct {
	Unverified    int
	CodeVerifies  uint64
	CodeFailures  uint64
	BarrierChecks uint64
	Failures      uint64
}

// Stats returns a snapshot of counters.
func (v *Verifier) Stats() Stats {
	return Stats{
		Unverified:    v.unverified,
		CodeVerifies:  v.codeVerifies,
		CodeFailures:  v.codeFailures,
		BarrierChecks: v.barrierChecks,
		Failures:      v.failures,
	}
}

// Reset clears all tensor states (e.g. at kernel-graph boundaries).
func (v *Verifier) Reset() {
	v.states = v.states[:0]
	v.unverified = 0
}
