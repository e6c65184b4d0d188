// Package comm implements the CPU<->NPU data-transfer protocols compared in
// Sections 3.3 and 4.4:
//
//   - the Graviton-like staged protocol of the baseline (Figure 6a): the
//     sender decrypts enclave data and re-encrypts it into a non-secure
//     staging region, the payload crosses PCIe, and the receiver decrypts
//     and re-encrypts it into its own enclave format — two full crypto
//     passes per side, bound by the AES-engine bandwidth, serialized with
//     computation (Figure 7);
//
//   - TensorTEE's direct protocol (Figure 6b): tensor ciphertext moves
//     secure-DRAM to secure-DRAM over the direct channel while the tensor
//     metadata (address, VN, MAC) crosses the trusted channel; no crypto
//     touches the payload, so the transfer overlaps computation
//     (Figure 15).
//
// Both a timing model (for Figures 5/16/17/21) and a functional
// implementation over mee.Region (for the security tests and examples) are
// provided.
package comm

import (
	"encoding/binary"
	"fmt"

	"tensortee/internal/config"
	"tensortee/internal/crypto"
	"tensortee/internal/mee"
	"tensortee/internal/sim"
)

// --- timing model -------------------------------------------------------------

// LinkModel charges transfer times.
type LinkModel struct {
	// StagedBs is the wire rate of every transfer: the effective bandwidth
	// of a staged copy (pinned-buffer memcpy pipeline) — what non-secure
	// cudaMemcpy-style transfers and the baseline's staging hops achieve —
	// capped by the PCIe link bandwidth.
	StagedBs float64
	// LatencyNs is the one-way link latency.
	LatencyNs float64
	// SenderAESBs / ReceiverAESBs bound the re-encryption passes of the
	// staged secure protocol (Section 3.3's AES-engine bandwidth).
	SenderAESBs, ReceiverAESBs float64
}

// FromSystem derives the link model from the system configuration. The
// wire runs at the staged-copy rate unless the PCIe link is slower. The
// staged protocol's sender passes go through the single communication-path
// AES engine (8 GB/s nominal, Section 3.3); its MAC verification/generation
// shares the engine datapath, halving the effective payload rate. The host
// side runs AES-NI with MAC in parallel at the full nominal rate.
func FromSystem(c *config.Config) LinkModel {
	npuAES := c.NPU.AESEngineBs * float64(c.NPU.AESEngines)
	return LinkModel{
		StagedBs:      min(c.Comm.StagingBandwidthBs, c.Comm.LinkBandwidthBs),
		LatencyNs:     c.Comm.LinkLatencyNs,
		SenderAESBs:   npuAES / 2,
		ReceiverAESBs: npuAES,
	}
}

// Breakdown is the Figure-21 decomposition of one transfer.
type Breakdown struct {
	ReencryptTime sim.Dur // sender: enclave decrypt + staging re-encrypt
	LinkTime      sim.Dur // wire time
	DecryptTime   sim.Dur // receiver: staging decrypt + enclave re-encrypt
}

// Total returns the serialized duration.
func (b Breakdown) Total() sim.Dur { return b.ReencryptTime + b.LinkTime + b.DecryptTime }

// StagedSecure times the Graviton-like transfer of n bytes: each side runs
// two AES passes over the payload (out of and into the enclave format),
// and the wire hop runs at staged-copy bandwidth.
func (l LinkModel) StagedSecure(n int64) Breakdown {
	return Breakdown{
		ReencryptTime: sim.BytesAt(2*n, l.SenderAESBs),
		LinkTime:      sim.FromNanos(l.LatencyNs) + sim.BytesAt(n, l.StagedBs),
		DecryptTime:   sim.BytesAt(2*n, l.ReceiverAESBs),
	}
}

// NonSecure times the reference transfer (staged memcpy, no crypto).
func (l LinkModel) NonSecure(n int64) Breakdown {
	return Breakdown{LinkTime: sim.FromNanos(l.LatencyNs) + sim.BytesAt(n, l.StagedBs)}
}

// Direct times TensorTEE's transfer: ciphertext DMA plus the (tiny)
// trusted-channel metadata message. The wire runs at the same effective
// rate as a staged copy pipeline — the direct protocol's win is removing
// the crypto passes and the serialization they force, not a faster PCIe.
func (l LinkModel) Direct(n int64) Breakdown {
	const metadataBytes = 64 // addr+VN+MAC, sealed
	return Breakdown{
		LinkTime: sim.FromNanos(2*l.LatencyNs) + sim.BytesAt(n+metadataBytes, l.StagedBs),
	}
}

// Visible returns how much of a transfer remains on the critical path when
// it may overlap a concurrent computation window: transfers longer than
// the window spill the difference (plus the unhidable tail latency).
func Visible(b Breakdown, window sim.Dur, overlappable bool) sim.Dur {
	if !overlappable {
		return b.Total()
	}
	return sim.Sub(b.Total(), window)
}

// --- functional transfer --------------------------------------------------------

// TensorMeta is the trusted-channel payload for one tensor (Section 4.4.2:
// "the obtained tensor VN, MAC, and address are transmitted through a
// trusted encrypted channel").
type TensorMeta struct {
	Base  uint64 // region-relative line base of the tensor
	Lines int
	VN    uint64
	MAC   uint64 // tensor-granularity XOR MAC
}

const tensorMetaBytes = 8 + 8 + 8 + 8

func (m TensorMeta) encode() []byte {
	buf := make([]byte, tensorMetaBytes)
	binary.LittleEndian.PutUint64(buf[0:], m.Base)
	binary.LittleEndian.PutUint64(buf[8:], uint64(m.Lines))
	binary.LittleEndian.PutUint64(buf[16:], m.VN)
	binary.LittleEndian.PutUint64(buf[24:], m.MAC)
	return buf
}

func decodeTensorMeta(b []byte) (TensorMeta, error) {
	if len(b) != tensorMetaBytes {
		return TensorMeta{}, fmt.Errorf("comm: metadata payload %d bytes, want %d", len(b), tensorMetaBytes)
	}
	return TensorMeta{
		Base:  binary.LittleEndian.Uint64(b[0:]),
		Lines: int(binary.LittleEndian.Uint64(b[8:])),
		VN:    binary.LittleEndian.Uint64(b[16:]),
		MAC:   binary.LittleEndian.Uint64(b[24:]),
	}, nil
}

// TrustedChannel is the sequence-numbered, session-key-encrypted metadata
// channel between the enclaves.
type TrustedChannel struct {
	key      *crypto.Key
	sendSeq  uint64
	recvSeq  uint64
	inFlight []crypto.SealedBlob
}

// NewTrustedChannel builds a channel over the DH session key.
func NewTrustedChannel(key *crypto.Key) *TrustedChannel {
	return &TrustedChannel{key: key}
}

// Send seals tensor metadata onto the channel.
func (c *TrustedChannel) Send(m TensorMeta) {
	c.inFlight = append(c.inFlight, c.key.Seal(m.encode(), c.sendSeq))
	c.sendSeq++
}

// Recv verifies and decodes the next metadata message.
func (c *TrustedChannel) Recv() (TensorMeta, error) {
	if len(c.inFlight) == 0 {
		return TensorMeta{}, fmt.Errorf("comm: trusted channel empty")
	}
	blob := c.inFlight[0]
	c.inFlight = c.inFlight[1:]
	payload, err := c.key.Open(blob, c.recvSeq)
	if err != nil {
		return TensorMeta{}, err
	}
	c.recvSeq++
	return decodeTensorMeta(payload)
}

// TamperInFlight flips a bit of a queued message (bus adversary).
func (c *TrustedChannel) TamperInFlight(i int, bit int) {
	if i < len(c.inFlight) {
		c.inFlight[i].Ciphertext[bit/8%len(c.inFlight[i].Ciphertext)] ^= 1 << (bit % 8)
	}
}

// DirectTransfer moves a tensor's ciphertext from src to dst (both sharing
// the DH session key and line geometry) with metadata over the trusted
// channel — no plaintext materializes outside the enclaves, and no
// re-encryption happens. The tensor occupies the same region-relative
// offsets on both sides (the protocol mirrors enclave layouts), which is
// what makes the CTR counters line up.
//
// verify=true checks the per-line MACs XOR against the transferred tensor
// MAC on arrival; delayed-verification callers pass false and enforce the
// check at a barrier via VerifyRegionXOR.
func DirectTransfer(src, dst *mee.Region, base uint64, n int, ch *TrustedChannel, verify bool) error {
	if src.LineBytes != dst.LineBytes {
		return fmt.Errorf("comm: line size mismatch %d vs %d", src.LineBytes, dst.LineBytes)
	}
	lines := (n + src.LineBytes - 1) / src.LineBytes
	meta := TensorMeta{
		Base:  base - src.Base,
		Lines: lines,
		VN:    0, // per-line VNs ride with the lines below; tensor VN is informational here
		MAC:   src.StoredLineMACXOR(base, n),
	}
	ch.Send(meta)

	got, err := ch.Recv()
	if err != nil {
		return fmt.Errorf("comm: metadata channel: %w", err)
	}

	// The receiver recomputes each line's MAC over the ciphertext that
	// actually arrived (the direct channel is untrusted); the XOR of the
	// recomputed MACs must match the trusted-channel tensor MAC.
	var xor uint64
	for i := 0; i < lines; i++ {
		addr := base + uint64(i*src.LineBytes)
		exp := src.ExportLine(addr)
		if err := dst.ImportLine(exp, false); err != nil {
			return err
		}
		_, recomputed := dst.ReadLineUnverified(addr, exp.VN)
		xor ^= recomputed
	}
	if verify {
		if xor != got.MAC {
			return &mee.IntegrityError{Addr: base, Reason: "transferred tensor MAC mismatch"}
		}
	}
	return nil
}

// VerifyRegionRecomputed is the receiver-side verification barrier for a
// transferred region: every line's MAC is recomputed from the stored
// ciphertext and the XOR must equal the trusted-channel tensor MAC.
func VerifyRegionRecomputed(r *mee.Region, base uint64, n int, want uint64) error {
	var xor uint64
	for off := 0; off < n; off += r.LineBytes {
		addr := base + uint64(off)
		_, mac := r.ReadLineUnverified(addr, r.VN(addr))
		xor ^= mac
	}
	if xor != want {
		return &mee.IntegrityError{Addr: base, Reason: "tensor MAC mismatch at verification barrier"}
	}
	return nil
}

// StagedTransfer implements the Graviton-like baseline functionally: the
// payload is decrypted out of src, re-encrypted under the session key into
// a (simulated) non-secure staging buffer, crosses the link, and is
// decrypted and written (re-encrypted) into dst. Plaintext never travels,
// but the payload is cryptographically transformed four times.
func StagedTransfer(src, dst *mee.Region, base uint64, n int, session *crypto.Key, seq uint64) error {
	plaintext, err := src.ReadBytes(base, n) // enclave decrypt (pass 1)
	if err != nil {
		return fmt.Errorf("comm: staged read: %w", err)
	}
	blob := session.Seal(plaintext, seq) // re-encrypt to staging (pass 2)

	// ...non-secure staging + PCIe crossing happens here...

	recovered, err := session.Open(blob, seq) // staging decrypt (pass 3)
	if err != nil {
		return fmt.Errorf("comm: staged open: %w", err)
	}
	if _, err := dst.WriteBytes(base-src.Base+dst.Base, recovered); err != nil { // enclave re-encrypt (pass 4)
		return fmt.Errorf("comm: staged write: %w", err)
	}
	return nil
}
