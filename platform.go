package tensortee

import (
	"fmt"
	"sync"

	"tensortee/internal/comm"
	"tensortee/internal/enclave"
	"tensortee/internal/mee"
	"tensortee/internal/npumac"
	"tensortee/internal/tensor"
	"tensortee/internal/workload"
)

// Side names one of the two enclaves of a Platform.
type Side int

const (
	// CPUSide is the host enclave (optimizer states, Meta Table).
	CPUSide Side = iota
	// NPUSide is the accelerator enclave (GDDR memory, delayed verifier).
	NPUSide
)

// String names the side ("cpu" or "npu").
func (s Side) String() string {
	if s == CPUSide {
		return "cpu"
	}
	return "npu"
}

// Platform is the functional secure-collaboration runtime: two attested
// enclaves sharing a DH session key, each backing its tensors with real
// AES-CTR protected memory, connected by the direct transfer protocol.
// It exists so applications (and the examples) can exercise the actual
// security mechanisms — not just the timing models.
//
// A Platform is safe for concurrent use; operations on distinct tensors
// may proceed from multiple goroutines.
type Platform struct {
	mu                     sync.Mutex
	cpuEnclave, npuEnclave *enclave.Enclave
	cpuRegion, npuRegion   *mee.Region
	channel                *comm.TrustedChannel
	verifier               *npumac.Verifier
	arena                  *tensor.Arena
	tensors                map[string]*tensor.Tensor
	transferred            map[string]npumac.TensorID
	nextID                 npumac.TensorID
	regionBytes            int
	lineBytes              int
}

// platformConfig collects the option-settable knobs.
type platformConfig struct {
	regionBytes int
	seed        uint64
	lineBytes   int
}

// PlatformOption configures NewPlatform.
type PlatformOption func(*platformConfig)

// WithRegionBytes sets the protected memory size per enclave
// (default 8 MB).
func WithRegionBytes(n int) PlatformOption {
	return func(c *platformConfig) { c.regionBytes = n }
}

// WithSeed makes key generation deterministic per platform instance.
func WithSeed(seed uint64) PlatformOption {
	return func(c *platformConfig) { c.seed = seed }
}

// WithLineSize sets the protected-memory cacheline size in bytes
// (default 64; must be a power of two >= 16). Both enclaves, the tensor
// arena, and the transfer protocol share the geometry.
func WithLineSize(n int) PlatformOption {
	return func(c *platformConfig) { c.lineBytes = n }
}

// NewPlatform creates both enclaves, runs remote attestation and the
// Diffie–Hellman key exchange (Section 4.4.2), and allocates the mirrored
// protected regions the direct channel moves ciphertext between.
func NewPlatform(opts ...PlatformOption) (*Platform, error) {
	cfg := platformConfig{regionBytes: 8 << 20, lineBytes: 64}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.regionBytes <= 0 {
		cfg.regionBytes = 8 << 20
	}
	if cfg.lineBytes < 16 || cfg.lineBytes&(cfg.lineBytes-1) != 0 {
		return nil, fmt.Errorf("tensortee: line size must be a power of two >= 16, got %d", cfg.lineBytes)
	}
	cpuE := enclave.Create(enclave.CPUEnclave, []byte("tensortee-cpu-image-v1"), cfg.seed*2+1)
	npuE := enclave.Create(enclave.NPUEnclave, []byte("tensortee-npu-image-v1"), cfg.seed*2+2)
	kCPU, _, err := enclave.Pair(cpuE, npuE)
	if err != nil {
		return nil, fmt.Errorf("tensortee: attestation failed: %w", err)
	}
	const base = 0x1000_0000
	return &Platform{
		cpuEnclave:  cpuE,
		npuEnclave:  npuE,
		cpuRegion:   mee.NewRegion(kCPU, base, cfg.regionBytes, cfg.lineBytes),
		npuRegion:   mee.NewRegion(kCPU, base, cfg.regionBytes, cfg.lineBytes),
		channel:     comm.NewTrustedChannel(kCPU),
		verifier:    npumac.NewVerifier(64),
		arena:       tensor.NewArena(base, cfg.lineBytes),
		tensors:     make(map[string]*tensor.Tensor),
		transferred: make(map[string]npumac.TensorID),
		regionBytes: cfg.regionBytes,
		lineBytes:   cfg.lineBytes,
	}, nil
}

func (p *Platform) region(s Side) *mee.Region {
	if s == CPUSide {
		return p.cpuRegion
	}
	return p.npuRegion
}

// TensorHandle is a reference to one named tensor of a Platform. All
// methods route through the owning platform, so handles stay valid across
// transfers and rewrites.
type TensorHandle struct {
	p    *Platform
	name string
}

// Name returns the tensor's name.
func (h *TensorHandle) Name() string { return h.name }

// Elems returns the number of fp32 elements.
func (h *TensorHandle) Elems() int {
	h.p.mu.Lock()
	defer h.p.mu.Unlock()
	return h.p.tensors[h.name].Elems()
}

// Bytes returns the byte footprint.
func (h *TensorHandle) Bytes() int {
	h.p.mu.Lock()
	defer h.p.mu.Unlock()
	return h.p.tensors[h.name].Bytes()
}

// Write overwrites the tensor's contents on the given side
// (re-encrypting under a fresh version number).
func (h *TensorHandle) Write(side Side, vals []float32) error {
	return h.p.WriteTensor(side, h.name, vals)
}

// Read decrypts and verifies the tensor from the given side.
func (h *TensorHandle) Read(side Side) ([]float32, error) {
	return h.p.ReadTensor(side, h.name)
}

// Transfer moves the tensor between enclaves with the direct protocol.
func (h *TensorHandle) Transfer(from Side) error {
	return h.p.Transfer(from, h.name)
}

// TransferStaged moves the tensor with the Graviton-like staged protocol.
func (h *TensorHandle) TransferStaged(from Side) error {
	return h.p.TransferStaged(from, h.name)
}

// Verify completes the tensor's delayed verification (the verification
// barrier for just this tensor).
func (h *TensorHandle) Verify() error {
	return h.p.VerifyBarrier(h.name)
}

// Poisoned reports whether the tensor is still unverified.
func (h *TensorHandle) Poisoned() bool {
	return h.p.Poisoned(h.name)
}

// CreateTensor allocates a named fp32 tensor in the shared address layout,
// writes vals into the given side's protected memory (encrypting it), and
// returns a handle to it.
func (p *Platform) CreateTensor(side Side, name string, vals []float32) (*TensorHandle, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, exists := p.tensors[name]; exists {
		return nil, fmt.Errorf("%w: %q", ErrTensorExists, name)
	}
	// Check capacity before touching the arena: a rejected allocation must
	// not leak address space (the arena is a bump allocator).
	if bytes := uint64(len(vals) * 4); p.arena.Next()+bytes > p.region(side).End() {
		return nil, fmt.Errorf("%w: tensor %q (%d bytes) exceeds the protected region (%d bytes)",
			ErrRegionFull, name, bytes, p.regionBytes)
	}
	t := p.arena.AllocTensor(name, tensor.Shape{len(vals)}, tensor.FP32)
	t.Data = make([]byte, t.Bytes())
	t.SetFloat32s(vals)
	if _, err := p.region(side).WriteBytes(t.Addr, t.Data); err != nil {
		return nil, classify(err)
	}
	p.tensors[name] = t
	return &TensorHandle{p: p, name: name}, nil
}

// Tensor returns a handle to an existing tensor.
func (p *Platform) Tensor(name string) (*TensorHandle, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.tensors[name]; !ok {
		return nil, errUnknownTensor(name)
	}
	return &TensorHandle{p: p, name: name}, nil
}

// WriteTensor overwrites an existing tensor's contents on the given side
// (re-encrypting under a fresh version number).
func (p *Platform) WriteTensor(side Side, name string, vals []float32) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	t, ok := p.tensors[name]
	if !ok {
		return errUnknownTensor(name)
	}
	if len(vals) != t.Elems() {
		return fmt.Errorf("tensortee: tensor %q holds %d elems, got %d", name, t.Elems(), len(vals))
	}
	buf := &tensor.Tensor{Name: name, Shape: t.Shape, DType: t.DType, Data: make([]byte, t.Bytes())}
	buf.SetFloat32s(vals)
	_, err := p.region(side).WriteBytes(t.Addr, buf.Data)
	return classify(err)
}

// ReadTensor decrypts and verifies a tensor from the given side. A tensor
// whose delayed verification is still pending (or has failed) cannot be
// consumed: the read fails with ErrPoisoned until VerifyBarrier clears it.
func (p *Platform) ReadTensor(side Side, name string) ([]float32, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	t, ok := p.tensors[name]
	if !ok {
		return nil, errUnknownTensor(name)
	}
	if id, ok := p.transferred[name]; ok && p.verifier.Poisoned(id) {
		return nil, fmt.Errorf("%w: tensor %q read before its verification barrier", ErrPoisoned, name)
	}
	raw, err := p.region(side).ReadBytes(t.Addr, t.Bytes())
	if err != nil {
		return nil, classify(err)
	}
	view := &tensor.Tensor{Name: name, Shape: t.Shape, DType: t.DType, Data: raw}
	return view.Float32s(), nil
}

// Transfer moves a tensor between the enclaves with the direct protocol:
// ciphertext over the direct channel, (address, VN, MAC) over the trusted
// channel, no re-encryption. Verification is delayed — the tensor is
// poisoned until VerifyBarrier clears it (Section 4.3).
func (p *Platform) Transfer(from Side, name string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	t, ok := p.tensors[name]
	if !ok {
		return errUnknownTensor(name)
	}
	src, dst := p.region(from), p.region(other(from))
	if err := comm.DirectTransfer(src, dst, t.Addr, t.Bytes(), p.channel, false); err != nil {
		return classify(err)
	}
	// Register the delayed verification obligation.
	id := p.nextID
	p.nextID++
	p.transferred[name] = id
	p.verifier.BeginRead(id, src.StoredLineMACXOR(t.Addr, t.Bytes()))
	for off := 0; off < t.Bytes(); off += p.lineBytes {
		_, mac := dst.ReadLineUnverified(t.Addr+uint64(off), dst.VN(t.Addr+uint64(off)))
		p.verifier.AccumulateLine(id, mac)
	}
	return nil
}

// TransferStaged moves a tensor with the Graviton-like baseline protocol
// (Figure 6a): decrypt out of the source enclave, re-encrypt under the
// session key into non-secure staging, cross the link, decrypt, and
// re-encrypt into the destination enclave. Functionally equivalent to
// Transfer but with four crypto passes; it exists so applications can
// compare the protocols and so tests can pin their equivalence.
func (p *Platform) TransferStaged(from Side, name string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	t, ok := p.tensors[name]
	if !ok {
		return errUnknownTensor(name)
	}
	src, dst := p.region(from), p.region(other(from))
	seq := uint64(p.nextID) | 1<<32 // staging sequence domain
	p.nextID++
	return classify(comm.StagedTransfer(src, dst, t.Addr, t.Bytes(), p.cpuEnclave.SessionKey(), seq))
}

// VerifyBarrier is the verification barrier pragma: it completes the
// delayed verification of the named tensors and fails closed if any was
// tampered with in transit or in destination memory. Repeated names are
// deduplicated — each pending verification completes exactly once.
func (p *Platform) VerifyBarrier(names ...string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	seen := make(map[npumac.TensorID]bool, len(names))
	ids := make([]npumac.TensorID, 0, len(names))
	for _, name := range names {
		id, ok := p.transferred[name]
		if !ok || seen[id] {
			continue
		}
		seen[id] = true
		if err := p.verifier.CompleteRead(id); err != nil {
			return classify(fmt.Errorf("tensor %q: %w", name, err))
		}
		ids = append(ids, id)
	}
	return classify(p.verifier.Barrier(ids...))
}

// Poisoned reports whether a transferred tensor is still unverified.
func (p *Platform) Poisoned(name string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	id, ok := p.transferred[name]
	return ok && p.verifier.Poisoned(id)
}

// AdamStep runs a real fused Adam update inside the CPU enclave with the
// DeepSpeed default learning rate (1e-3): the four tensors are decrypted
// from protected memory, updated, and re-encrypted.
func (p *Platform) AdamStep(w, g, m, v string, step int) error {
	return p.AdamStepWithLR(w, g, m, v, step, 1e-3)
}

// AdamStepWithLR is AdamStep with an explicit learning rate.
func (p *Platform) AdamStepWithLR(w, g, m, v string, step int, lr float64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	get := func(name string) (*tensor.Tensor, error) {
		t, ok := p.tensors[name]
		if !ok {
			return nil, errUnknownTensor(name)
		}
		// The optimizer consumes tensors like any other reader: a
		// transferred tensor whose delayed verification is pending (or
		// failed) must not reach the update (fail closed, Section 4.3).
		if id, ok := p.transferred[name]; ok && p.verifier.Poisoned(id) {
			return nil, fmt.Errorf("%w: tensor %q consumed before its verification barrier", ErrPoisoned, name)
		}
		raw, err := p.cpuRegion.ReadBytes(t.Addr, t.Bytes())
		if err != nil {
			return nil, classify(err)
		}
		return &tensor.Tensor{Name: name, Addr: t.Addr, Shape: t.Shape, DType: t.DType, Data: raw}, nil
	}
	tw, err := get(w)
	if err != nil {
		return err
	}
	tg, err := get(g)
	if err != nil {
		return err
	}
	tm, err := get(m)
	if err != nil {
		return err
	}
	tv, err := get(v)
	if err != nil {
		return err
	}
	params := workload.DefaultAdam()
	params.Step = step
	params.LR = lr
	if err := workload.AdamStep(tw, tg, tm, tv, params); err != nil {
		return err
	}
	for _, t := range []*tensor.Tensor{tw, tm, tv} {
		if _, err := p.cpuRegion.WriteBytes(t.Addr, t.Data); err != nil {
			return classify(err)
		}
	}
	return nil
}

// TamperMemory flips one bit of the ciphertext backing a tensor on the
// given side — the bus/cold-boot adversary of the threat model. bit is the
// absolute bit offset within the tensor and must be in
// [0, 8*Bytes()); out-of-range bits are rejected instead of silently
// wrapping onto a different cacheline. Subsequent reads or barriers must
// detect the flip.
func (p *Platform) TamperMemory(side Side, name string, bit int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	t, ok := p.tensors[name]
	if !ok {
		return errUnknownTensor(name)
	}
	if bit < 0 || bit >= t.Bytes()*8 {
		return fmt.Errorf("tensortee: bit %d out of range for tensor %q (%d bits)", bit, name, t.Bytes()*8)
	}
	p.region(side).TamperCipher(t.Addr+uint64(bit/8), bit)
	return nil
}

// Attested reports whether the two enclaves hold an established session.
func (p *Platform) Attested() bool {
	return p.cpuEnclave.SessionKey() != nil && p.cpuEnclave.SessionKey().Equal(p.npuEnclave.SessionKey())
}

func other(s Side) Side {
	if s == CPUSide {
		return NPUSide
	}
	return CPUSide
}
