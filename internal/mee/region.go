// Package mee implements the Memory Encryption Engine at the boundary of
// the trusted chip: the functional encrypted-memory region (real AES-CTR
// ciphertext, per-line version numbers and MACs, Bonsai Merkle tree) and the
// timing engine that charges metadata traffic and crypto latency per access.
//
// Two protection schemes are provided, matching the paper's Figure 2:
//
//   - SGX-like (Section 2.2 / 5.1): a 56-bit VN and 56-bit MAC per 64-byte
//     cacheline, an 8-ary Merkle tree over the VN lines, and a 32 KB
//     metadata cache in front of all of it.
//   - Tensor mode: the VN (and tensor MAC) come from an on-chip structure —
//     TenAnalyzer on the CPU (internal/tenanalyzer) or the MGX-like VN state
//     on the NPU — so hits cost no off-chip metadata access.
package mee

import (
	"fmt"

	"tensortee/internal/crypto"
	"tensortee/internal/merkle"
)

// Region is a functional protected memory region: what the OS or a bus
// snooper sees is ciphertext; reads verify MAC (and the VN's Merkle path in
// SGX mode) before returning plaintext.
type Region struct {
	Key       *crypto.Key
	Base      uint64
	LineBytes int

	lines     int
	cipher    []byte
	vn        []uint64
	macs      []uint64
	written   []bool // lazily-initialized lines: unwritten reads as zeros
	tree      *merkle.Tree
	vnPerLeaf int // VNs covered by one tree leaf (one VN cacheline)
}

// NewRegion allocates a protected region of size bytes starting at base.
// Size is rounded up to whole lines.
func NewRegion(key *crypto.Key, base uint64, size, lineBytes int) *Region {
	if lineBytes <= 0 || lineBytes&(lineBytes-1) != 0 {
		panic(fmt.Sprintf("mee: line size must be power of two, got %d", lineBytes))
	}
	lines := (size + lineBytes - 1) / lineBytes
	if lines == 0 {
		lines = 1
	}
	r := &Region{
		Key:       key,
		Base:      base,
		LineBytes: lineBytes,
		lines:     lines,
		cipher:    make([]byte, lines*lineBytes),
		vn:        make([]uint64, lines),
		macs:      make([]uint64, lines),
		written:   make([]bool, lines),
	}
	// One tree leaf per VN cacheline: 64B line / 8B VN slot = 8 VNs.
	r.vnPerLeaf = lineBytes / 8
	leaves := (lines + r.vnPerLeaf - 1) / r.vnPerLeaf
	var tkey [16]byte
	copy(tkey[:], []byte("tensortee-bmt-k1"))
	r.tree = merkle.New(leaves, 8, tkey)
	for leaf := 0; leaf < leaves; leaf++ {
		r.tree.Update(leaf, r.vnLeafDigest(leaf))
	}
	return r
}

// Lines reports the number of protected cachelines.
func (r *Region) Lines() int { return r.lines }

// End reports one past the last protected byte.
func (r *Region) End() uint64 { return r.Base + uint64(r.lines*r.LineBytes) }

// LineIndex converts an address to a line index, panicking if out of range.
func (r *Region) LineIndex(addr uint64) int {
	if addr < r.Base || addr >= r.End() {
		panic(fmt.Sprintf("mee: address 0x%x outside region [0x%x,0x%x)", addr, r.Base, r.End()))
	}
	return int((addr - r.Base) / uint64(r.LineBytes))
}

// LineAddr returns the base address of line idx.
func (r *Region) LineAddr(idx int) uint64 {
	return r.Base + uint64(idx*r.LineBytes)
}

// counter builds the CTR seed for a line. The address component is
// region-relative so that ciphertext plus (addr, VN) metadata is portable
// across enclaves that share the key — the unified-granularity property the
// direct transfer protocol relies on (Section 4.4).
func (r *Region) counter(idx int, vn uint64) crypto.Counter {
	return crypto.Counter{Addr: uint64(idx * r.LineBytes), VN: vn}
}

// vnLeafDigest folds the VNs covered by one tree leaf into the leaf value.
func (r *Region) vnLeafDigest(leaf int) uint64 {
	lo := leaf * r.vnPerLeaf
	hi := lo + r.vnPerLeaf
	if hi > r.lines {
		hi = r.lines
	}
	var d uint64 = 0x9e3779b97f4a7c15
	for i := lo; i < hi; i++ {
		d ^= r.vn[i] + 0x9e3779b97f4a7c15 + (d << 6) + (d >> 2)
	}
	return d
}

// VN returns the current off-chip version number of the line holding addr.
func (r *Region) VN(addr uint64) uint64 { return r.vn[r.LineIndex(addr)] }

// LineMAC returns the stored MAC of the line holding addr.
func (r *Region) LineMAC(addr uint64) uint64 { return r.macs[r.LineIndex(addr)] }

// WriteLine encrypts plaintext into the line containing addr, incrementing
// its VN, recomputing its MAC, and updating the Merkle path.
// Returns the new VN.
func (r *Region) WriteLine(addr uint64, plaintext []byte) uint64 {
	idx := r.LineIndex(addr)
	if len(plaintext) != r.LineBytes {
		panic(fmt.Sprintf("mee: WriteLine wants %d bytes, got %d", r.LineBytes, len(plaintext)))
	}
	r.written[idx] = true
	r.vn[idx]++
	c := r.counter(idx, r.vn[idx])
	ct := r.Key.Encrypt(plaintext, c)
	copy(r.cipher[idx*r.LineBytes:], ct)
	r.macs[idx] = r.Key.MAC(ct, c)
	leaf := idx / r.vnPerLeaf
	r.tree.Update(leaf, r.vnLeafDigest(leaf))
	return r.vn[idx]
}

// IntegrityError reports a failed verification.
type IntegrityError struct {
	Addr   uint64
	Reason string
}

func (e *IntegrityError) Error() string {
	return fmt.Sprintf("mee: integrity violation at 0x%x: %s", e.Addr, e.Reason)
}

// ReadLine verifies and decrypts the line containing addr using the
// off-chip VN (SGX-like path: Merkle verification of the VN, then MAC
// check, then decrypt).
func (r *Region) ReadLine(addr uint64) ([]byte, error) {
	idx := r.LineIndex(addr)
	if !r.written[idx] {
		// Enclave memory is zero-initialized at creation; a never-written
		// line reads as zeros (no ciphertext exists to verify yet).
		return make([]byte, r.LineBytes), nil
	}
	leaf := idx / r.vnPerLeaf
	if ok, _ := r.tree.Verify(leaf, r.vnLeafDigest(leaf)); !ok {
		return nil, &IntegrityError{Addr: addr, Reason: "VN Merkle path mismatch (replay?)"}
	}
	return r.readWithVN(idx, r.vn[idx])
}

// ReadLineWithVN verifies and decrypts using an externally supplied VN (the
// tensor-mode path: the VN comes from the Meta Table / on-chip state, so no
// Merkle verification is required).
func (r *Region) ReadLineWithVN(addr uint64, vn uint64) ([]byte, error) {
	return r.readWithVN(r.LineIndex(addr), vn)
}

func (r *Region) readWithVN(idx int, vn uint64) ([]byte, error) {
	if !r.written[idx] {
		return make([]byte, r.LineBytes), nil
	}
	c := r.counter(idx, vn)
	ct := r.cipher[idx*r.LineBytes : (idx+1)*r.LineBytes]
	if !r.Key.VerifyMAC(ct, c, r.macs[idx]) {
		return nil, &IntegrityError{Addr: r.LineAddr(idx), Reason: "line MAC mismatch"}
	}
	return r.Key.Decrypt(ct, c), nil
}

// ReadLineUnverified decrypts without MAC verification, returning the MAC
// computed over the fetched ciphertext so the caller can verify later — the
// NPU's delayed-verification dataflow (Section 4.3).
func (r *Region) ReadLineUnverified(addr uint64, vn uint64) (plaintext []byte, lineMAC uint64) {
	idx := r.LineIndex(addr)
	c := r.counter(idx, vn)
	ct := r.cipher[idx*r.LineBytes : (idx+1)*r.LineBytes]
	return r.Key.Decrypt(ct, c), r.Key.MAC(ct, c)
}

// StoredLineMACXOR returns the XOR of stored line MACs over a region — the
// reference tensor MAC the delayed verifier compares against.
func (r *Region) StoredLineMACXOR(base uint64, n int) uint64 {
	var x uint64
	for off := 0; off < n; off += r.LineBytes {
		x ^= r.macs[r.LineIndex(base+uint64(off))]
	}
	return x & crypto.MACMask
}

// WriteBytes writes an arbitrary-length plaintext buffer line by line
// (read-modify-write at the edges). Returns the number of lines touched.
func (r *Region) WriteBytes(addr uint64, data []byte) (lines int, err error) {
	end := addr + uint64(len(data))
	for cur := addr; cur < end; {
		lineBase := cur &^ uint64(r.LineBytes-1)
		lineEnd := lineBase + uint64(r.LineBytes)
		var buf []byte
		if cur == lineBase && lineEnd <= end {
			buf = data[cur-addr : cur-addr+uint64(r.LineBytes)]
		} else {
			old, rerr := r.ReadLine(lineBase)
			if rerr != nil {
				return lines, rerr
			}
			copy(old[cur-lineBase:], data[cur-addr:min(end, lineEnd)-addr])
			buf = old
		}
		r.WriteLine(lineBase, buf)
		lines++
		cur = lineEnd
	}
	return lines, nil
}

// ReadBytes reads and verifies an arbitrary-length region.
func (r *Region) ReadBytes(addr uint64, n int) ([]byte, error) {
	out := make([]byte, 0, n)
	end := addr + uint64(n)
	for cur := addr; cur < end; {
		lineBase := cur &^ uint64(r.LineBytes-1)
		pl, err := r.ReadLine(lineBase)
		if err != nil {
			return nil, err
		}
		lo := cur - lineBase
		hi := min(end, lineBase+uint64(r.LineBytes)) - lineBase
		out = append(out, pl[lo:hi]...)
		cur = lineBase + uint64(r.LineBytes)
	}
	return out, nil
}

// LineExport is the per-line payload of the direct transfer protocol:
// ciphertext over the direct channel, (index, VN, MAC) over the trusted
// channel. No plaintext and no re-encryption are involved.
type LineExport struct {
	Index      int
	VN         uint64
	MAC        uint64
	Ciphertext []byte
}

// ExportLine captures a line's off-chip state for direct transfer.
func (r *Region) ExportLine(addr uint64) LineExport {
	idx := r.LineIndex(addr)
	ct := make([]byte, r.LineBytes)
	copy(ct, r.cipher[idx*r.LineBytes:])
	return LineExport{Index: idx, VN: r.vn[idx], MAC: r.macs[idx], Ciphertext: ct}
}

// ImportLine installs a transferred line at the same line index of this
// region. Because counters are region-relative (see counter), the
// ciphertext decrypts in place with the carried VN; no re-encryption
// happens. The MAC is verified immediately on import unless the caller
// defers it (delayed verification imports pass verify=false and check the
// tensor MAC at the barrier).
func (r *Region) ImportLine(e LineExport, verify bool) error {
	if e.Index < 0 || e.Index >= r.lines {
		return fmt.Errorf("mee: import index %d out of range [0,%d)", e.Index, r.lines)
	}
	if len(e.Ciphertext) != r.LineBytes {
		return fmt.Errorf("mee: import ciphertext %dB, want %dB", len(e.Ciphertext), r.LineBytes)
	}
	if verify {
		c := r.counter(e.Index, e.VN)
		if !r.Key.VerifyMAC(e.Ciphertext, c, e.MAC) {
			return &IntegrityError{Addr: r.LineAddr(e.Index), Reason: "transferred line MAC mismatch"}
		}
	}
	copy(r.cipher[e.Index*r.LineBytes:], e.Ciphertext)
	r.vn[e.Index] = e.VN
	r.macs[e.Index] = e.MAC
	r.written[e.Index] = true
	leaf := e.Index / r.vnPerLeaf
	r.tree.Update(leaf, r.vnLeafDigest(leaf))
	return nil
}

// --- attack surface for tests --------------------------------------------

// TamperCipher flips a bit of stored ciphertext (bus/DRAM corruption).
func (r *Region) TamperCipher(addr uint64, bit int) {
	idx := r.LineIndex(addr)
	off := idx*r.LineBytes + (bit/8)%r.LineBytes
	r.cipher[off] ^= 1 << (bit % 8)
}

// SnapshotLine captures (ciphertext, VN, MAC) for a later replay.
type SnapshotLine struct {
	addr   uint64
	cipher []byte
	vn     uint64
	mac    uint64
}

// Snapshot records the current off-chip state of a line.
func (r *Region) Snapshot(addr uint64) SnapshotLine {
	idx := r.LineIndex(addr)
	ct := make([]byte, r.LineBytes)
	copy(ct, r.cipher[idx*r.LineBytes:])
	return SnapshotLine{addr: addr, cipher: ct, vn: r.vn[idx], mac: r.macs[idx]}
}

// Replay restores a previously captured line (classic replay attack: the
// adversary controls everything off-chip, including the stored VN and MAC,
// but not the on-chip Merkle root).
func (r *Region) Replay(s SnapshotLine) {
	idx := r.LineIndex(s.addr)
	copy(r.cipher[idx*r.LineBytes:], s.cipher)
	r.vn[idx] = s.vn
	r.macs[idx] = s.mac
	// The adversary cannot touch the on-chip root: tree internal state keeps
	// the authentic leaf digests, so verification of this leaf now fails.
	r.tree.TamperLeaf(idx/r.vnPerLeaf, r.vnLeafDigest(idx/r.vnPerLeaf))
}

// TamperVN overwrites the off-chip VN without touching the tree.
func (r *Region) TamperVN(addr uint64, vn uint64) {
	idx := r.LineIndex(addr)
	r.vn[idx] = vn
	r.tree.TamperLeaf(idx/r.vnPerLeaf, r.vnLeafDigest(idx/r.vnPerLeaf))
}
