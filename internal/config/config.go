// Package config holds the system simulation configuration reproduced from
// Table 1 of the TensorTEE paper, plus the knobs that select between the
// three evaluated systems (NonSecure, SGX+MGX baseline, TensorTEE).
package config

import "fmt"

// SystemKind selects one of the three configurations compared in the paper
// (Section 5.2).
type SystemKind int

const (
	// NonSecure disables all isolation and memory protection; used as the
	// performance reference.
	NonSecure SystemKind = iota
	// BaselineSGXMGX is the paper's baseline: SGX-like cacheline-granularity
	// protection on the CPU, MGX-like tensor-VN/cacheline-MAC protection on
	// the NPU, and Graviton-like staged communication with re-encryption.
	BaselineSGXMGX
	// TensorTEE is the proposed unified tensor-granularity system.
	TensorTEE
)

func (k SystemKind) String() string {
	switch k {
	case NonSecure:
		return "Non-Secure"
	case BaselineSGXMGX:
		return "SGX+MGX"
	case TensorTEE:
		return "TensorTEE"
	default:
		return fmt.Sprintf("SystemKind(%d)", int(k))
	}
}

// CPU describes the host processor (Table 1, "CPU Configuration").
type CPU struct {
	FreqHz        float64 // 3.5 GHz
	Cores         int     // 8 out-of-order cores
	IssueWidth    int     // memory ops issued per core per cycle bound
	MemLevelPar   int     // outstanding misses per core (MLP)
	L1SizeBytes   int     // 32 KB I/D
	L1Ways        int     // 8
	L2SizeBytes   int     // 256 KB
	L2Ways        int     // 8
	L3SizeBytes   int     // 9 MB shared
	L3Ways        int     // 8
	LineBytes     int     // 64
	L1LatCycles   int
	L2LatCycles   int
	L3LatCycles   int
	MetaCacheSize int // 32 KB MEE metadata cache
	MetaCacheWays int
	AESLatCycles  int // 40-cycle 128-bit AES
	MACLatCycles  int // 40-cycle MAC
	// ProtectedBytes fixes the MEE protected-region span assumed during
	// CPU calibration. 0 (the default) sizes the region to the calibration
	// workload; larger values deepen the Merkle tree and grow the VN/MAC
	// metadata footprint the metadata cache contends for. Values below
	// MinProtectedBytes are rejected: the calibration window would no
	// longer fit and the measured cost-per-byte would be meaningless.
	ProtectedBytes int64
}

// MinProtectedBytes is the smallest explicit CPU.ProtectedBytes a
// configuration may request: the calibration working set (a 2M-element
// w/g/m/v Adam window, 32 MB) plus headroom for its off-chip metadata.
const MinProtectedBytes = 64 << 20

// MaxProtectedBytes bounds explicit CPU.ProtectedBytes: the simulated
// metadata layout is allocated densely per line, so multi-GB regions would
// cost real host memory proportional to the span.
const MaxProtectedBytes = 1 << 30

// NPU describes the accelerator (Table 1, "NPU Configuration").
type NPU struct {
	FreqHz          float64 // 1 GHz
	PERows          int     // 512
	PECols          int     // 512
	ScratchpadBytes int     // 32 MB
	DRAMBytes       int64   // 40 GB GDDR5
	DRAMBandwidthBs float64 // 128 GB/s
	LineBytes       int     // 64
	AESLatCycles    int     // 40 cycles
	MACLatCycles    int
	// AESEngineBs is the sustained bandwidth of one AES engine
	// (Section 3.3: one engine provides ~8 GB/s, computation needs >=20).
	AESEngineBs float64
	// AESEngines is the number of engines available to the compute path;
	// the paper assumes each channel has a dedicated engine in TensorTEE.
	AESEngines int
}

// DRAMKind names a device timing profile in internal/dram.
type DRAMKind string

const (
	DDR4  DRAMKind = "DDR4-2400"
	GDDR5 DRAMKind = "GDDR5"
)

// HostDRAM describes the CPU-side DDR4 (Table 1: DDR4@2400, 2 channels).
type HostDRAM struct {
	Kind     DRAMKind
	Channels int // 2
}

// Comm describes the CPU<->NPU interconnect (Table 1: PCIe 4.0 x16).
type Comm struct {
	// LinkBandwidthBs is the effective PCIe bandwidth in bytes/second; it
	// caps the staged-copy rate every transfer crosses the wire at.
	LinkBandwidthBs float64
	// LinkLatencyNs is the one-way latency in nanoseconds.
	LinkLatencyNs float64
	// StagingBandwidthBs bounds non-secure staging copies (memcpy through
	// host DRAM) for the Graviton-like baseline protocol.
	StagingBandwidthBs float64
}

// Protection describes the memory-protection scheme parameters shared by
// both MEEs.
type Protection struct {
	VNBits        int // 56-bit version numbers
	MACBits       int // 56-bit MACs
	MerkleArity   int // 8-ary Bonsai Merkle tree
	MACGranBytes  int // NPU MAC granularity (64 for MGX-like baseline)
	MetaTableSize int // TenAnalyzer Meta Table entries (512)
	FilterEntries int // Tensor Filter entries (10)
	FilterDepth   int // addresses collected per filter entry (4)
	// MaxUnverified caps simultaneously-unverified tensors under delayed
	// verification (Section 4.3).
	MaxUnverified int
	// DelayedVerification enables the tensor-wise MAC delayed-verification
	// pipeline on the NPU (TensorTEE mode).
	DelayedVerification bool
	// TensorWiseCPU enables TenAnalyzer in the CPU memory controller.
	TensorWiseCPU bool
	// DirectTransfer enables the unified-granularity direct transfer
	// protocol (no re-encryption staging).
	DirectTransfer bool
}

// Config is the complete system configuration.
type Config struct {
	System     SystemKind
	CPU        CPU
	NPU        NPU
	HostDRAM   HostDRAM
	Comm       Comm
	Protection Protection
}

// Default returns the Table-1 configuration for the given system kind.
func Default(kind SystemKind) Config {
	c := Config{
		System: kind,
		CPU: CPU{
			FreqHz:        3.5e9,
			Cores:         8,
			IssueWidth:    4,
			MemLevelPar:   10,
			L1SizeBytes:   32 << 10,
			L1Ways:        8,
			L2SizeBytes:   256 << 10,
			L2Ways:        8,
			L3SizeBytes:   9 << 20,
			L3Ways:        8,
			LineBytes:     64,
			L1LatCycles:   4,
			L2LatCycles:   12,
			L3LatCycles:   38,
			MetaCacheSize: 32 << 10,
			MetaCacheWays: 8,
			AESLatCycles:  40,
			MACLatCycles:  40,
		},
		NPU: NPU{
			FreqHz:          1e9,
			PERows:          512,
			PECols:          512,
			ScratchpadBytes: 32 << 20,
			DRAMBytes:       40 << 30,
			DRAMBandwidthBs: 128e9,
			LineBytes:       64,
			AESLatCycles:    40,
			MACLatCycles:    40,
			AESEngineBs:     8e9,
			AESEngines:      1,
		},
		HostDRAM: HostDRAM{Kind: DDR4, Channels: 2},
		Comm: Comm{
			LinkBandwidthBs:    26e9, // PCIe 4.0 x16 effective DMA
			LinkLatencyNs:      800,
			StagingBandwidthBs: 12e9, // pinned-buffer staged copy pipeline
		},
		Protection: Protection{
			VNBits:        56,
			MACBits:       56,
			MerkleArity:   8,
			MACGranBytes:  64,
			MetaTableSize: 512,
			FilterEntries: 10,
			FilterDepth:   4,
			MaxUnverified: 64,
		},
	}
	switch kind {
	case TensorTEE:
		c.Protection.DelayedVerification = true
		c.Protection.TensorWiseCPU = true
		c.Protection.DirectTransfer = true
	case BaselineSGXMGX, NonSecure:
		// defaults above
	}
	return c
}

// Validate reports configuration errors (zero or negative structural
// parameters, inconsistent protection settings).
func (c *Config) Validate() error {
	switch {
	case c.CPU.Cores <= 0:
		return fmt.Errorf("config: CPU.Cores must be positive, got %d", c.CPU.Cores)
	case c.CPU.FreqHz <= 0:
		return fmt.Errorf("config: CPU.FreqHz must be positive, got %g", c.CPU.FreqHz)
	case c.CPU.LineBytes <= 0 || c.CPU.LineBytes&(c.CPU.LineBytes-1) != 0:
		return fmt.Errorf("config: CPU.LineBytes must be a positive power of two, got %d", c.CPU.LineBytes)
	case c.NPU.PERows <= 0 || c.NPU.PECols <= 0:
		return fmt.Errorf("config: NPU PE array must be positive, got %dx%d", c.NPU.PERows, c.NPU.PECols)
	case c.NPU.DRAMBandwidthBs <= 0:
		return fmt.Errorf("config: NPU.DRAMBandwidthBs must be positive, got %g", c.NPU.DRAMBandwidthBs)
	case c.HostDRAM.Channels <= 0:
		return fmt.Errorf("config: HostDRAM.Channels must be positive, got %d", c.HostDRAM.Channels)
	case c.Comm.LinkBandwidthBs <= 0:
		return fmt.Errorf("config: Comm.LinkBandwidthBs must be positive, got %g", c.Comm.LinkBandwidthBs)
	case c.Protection.VNBits <= 0 || c.Protection.VNBits > 64:
		return fmt.Errorf("config: Protection.VNBits must be in (0,64], got %d", c.Protection.VNBits)
	case c.Protection.MACBits <= 0 || c.Protection.MACBits > 64:
		return fmt.Errorf("config: Protection.MACBits must be in (0,64], got %d", c.Protection.MACBits)
	case c.Protection.MerkleArity < 2:
		return fmt.Errorf("config: Protection.MerkleArity must be >= 2, got %d", c.Protection.MerkleArity)
	case c.Protection.MACGranBytes < c.CPU.LineBytes:
		return fmt.Errorf("config: Protection.MACGranBytes %d below line size %d", c.Protection.MACGranBytes, c.CPU.LineBytes)
	case c.Protection.MetaTableSize <= 0:
		return fmt.Errorf("config: Protection.MetaTableSize must be positive, got %d", c.Protection.MetaTableSize)
	case c.CPU.MetaCacheSize <= 0:
		return fmt.Errorf("config: CPU.MetaCacheSize must be positive, got %d", c.CPU.MetaCacheSize)
	case c.CPU.MetaCacheWays <= 0:
		return fmt.Errorf("config: CPU.MetaCacheWays must be positive, got %d", c.CPU.MetaCacheWays)
	case c.CPU.MetaCacheSize < c.CPU.MetaCacheWays*c.CPU.LineBytes:
		return fmt.Errorf("config: CPU.MetaCacheSize %d below one set (%d ways x %d B lines)", c.CPU.MetaCacheSize, c.CPU.MetaCacheWays, c.CPU.LineBytes)
	case c.CPU.ProtectedBytes < 0:
		return fmt.Errorf("config: CPU.ProtectedBytes must be non-negative, got %d", c.CPU.ProtectedBytes)
	case c.CPU.ProtectedBytes != 0 && c.CPU.ProtectedBytes < MinProtectedBytes:
		return fmt.Errorf("config: CPU.ProtectedBytes %d below the %d-byte calibration window", c.CPU.ProtectedBytes, int64(MinProtectedBytes))
	case c.CPU.ProtectedBytes > MaxProtectedBytes:
		return fmt.Errorf("config: CPU.ProtectedBytes %d above the %d-byte simulation bound", c.CPU.ProtectedBytes, int64(MaxProtectedBytes))
	}
	if c.System == NonSecure && (c.Protection.DelayedVerification || c.Protection.TensorWiseCPU || c.Protection.DirectTransfer) {
		return fmt.Errorf("config: NonSecure system must not enable protection features")
	}
	return nil
}

// Secure reports whether memory protection is active at all.
func (c *Config) Secure() bool { return c.System != NonSecure }

// VNBytesPerLine returns the off-chip VN storage per cacheline, rounded up
// to whole bytes (56 bits -> 7 bytes).
func (c *Config) VNBytesPerLine() int { return (c.Protection.VNBits + 7) / 8 }

// MACBytes returns the per-MAC storage in bytes.
func (c *Config) MACBytes() int { return (c.Protection.MACBits + 7) / 8 }
