// Package workload defines the evaluation workloads of Section 5.2: the
// twelve LLM training configurations of Table 2 (GPT-117M through
// OPT-6.7B), the transformer-layer GEMM enumeration the NPU executes, the
// optimizer-tensor inventory the CPU sweeps (Figure 4), and a functional
// Adam optimizer for the end-to-end security tests.
package workload

import (
	"fmt"
	"strconv"
	"strings"

	"tensortee/internal/npusim"
	"tensortee/internal/tensor"
	"tensortee/internal/trace"
)

// Model is one Table-2 row plus the public architecture hyper-parameters
// the GEMM shapes derive from.
type Model struct {
	Name      string
	ParamsStr string // the paper's nominal parameter count
	BatchSize int    // Table 2
	Layers    int
	Hidden    int
	Heads     int
	FFNDim    int
	Vocab     int
	SeqLen    int
}

// Models returns the Table-2 zoo in the paper's order.
func Models() []Model {
	return []Model{
		{Name: "GPT", ParamsStr: "117M", BatchSize: 60, Layers: 12, Hidden: 768, Heads: 12, FFNDim: 3072, Vocab: 50257, SeqLen: 1024},
		{Name: "GPT2-M", ParamsStr: "345M", BatchSize: 22, Layers: 24, Hidden: 1024, Heads: 16, FFNDim: 4096, Vocab: 50257, SeqLen: 1024},
		{Name: "Roberta-L", ParamsStr: "355M", BatchSize: 22, Layers: 24, Hidden: 1024, Heads: 16, FFNDim: 4096, Vocab: 50265, SeqLen: 512},
		{Name: "BLOOM", ParamsStr: "560M", BatchSize: 21, Layers: 24, Hidden: 1024, Heads: 16, FFNDim: 4096, Vocab: 250880, SeqLen: 1024},
		{Name: "GPT2-L", ParamsStr: "774M", BatchSize: 11, Layers: 36, Hidden: 1280, Heads: 20, FFNDim: 5120, Vocab: 50257, SeqLen: 1024},
		{Name: "BLOOM-800M", ParamsStr: "800M", BatchSize: 17, Layers: 24, Hidden: 1280, Heads: 16, FFNDim: 5120, Vocab: 250880, SeqLen: 1024},
		{Name: "OPT-1.3B", ParamsStr: "1.3B", BatchSize: 10, Layers: 24, Hidden: 2048, Heads: 32, FFNDim: 8192, Vocab: 50272, SeqLen: 1024},
		{Name: "GPT2-XL", ParamsStr: "1.6B", BatchSize: 6, Layers: 48, Hidden: 1600, Heads: 25, FFNDim: 6400, Vocab: 50257, SeqLen: 1024},
		{Name: "OPT-2.7B", ParamsStr: "2.8B", BatchSize: 6, Layers: 32, Hidden: 2560, Heads: 32, FFNDim: 10240, Vocab: 50272, SeqLen: 1024},
		{Name: "XGLM-4.5B", ParamsStr: "4.5B", BatchSize: 3, Layers: 48, Hidden: 2048, Heads: 32, FFNDim: 16384, Vocab: 256008, SeqLen: 1024},
		{Name: "LLAMA2-7B", ParamsStr: "6.7B", BatchSize: 2, Layers: 32, Hidden: 4096, Heads: 32, FFNDim: 11008, Vocab: 32000, SeqLen: 1024},
		{Name: "OPT-6.7B", ParamsStr: "6.7B", BatchSize: 2, Layers: 32, Hidden: 4096, Heads: 32, FFNDim: 16384, Vocab: 50272, SeqLen: 1024},
	}
}

// ModelByName finds a model in the zoo.
func ModelByName(name string) (Model, error) {
	for _, m := range Models() {
		if m.Name == name {
			return m, nil
		}
	}
	return Model{}, fmt.Errorf("workload: unknown model %q", name)
}

// Params computes the parameter count from the architecture: per layer
// QKV + attention output + two FFN matrices with biases, two LayerNorms,
// plus the (tied) token embedding and final LayerNorm.
func (m Model) Params() int64 {
	h := int64(m.Hidden)
	f := int64(m.FFNDim)
	perLayer := h*3*h + 3*h + // QKV
		h*h + h + // attention out
		h*f + f + // FFN up
		f*h + h + // FFN down
		4*h // two LayerNorms (gain+bias)
	return int64(m.Layers)*perLayer + int64(m.Vocab)*h + 2*h
}

// Tokens returns the tokens processed per batch.
func (m Model) Tokens() int { return m.BatchSize * m.SeqLen }

// TrainFLOPs estimates forward+backward FLOPs (the standard 6*P*T rule
// plus the quadratic attention term).
func (m Model) TrainFLOPs() float64 {
	pt := 6 * float64(m.Params()) * float64(m.Tokens())
	attn := 12 * float64(m.Layers) * float64(m.BatchSize) * float64(m.SeqLen) * float64(m.SeqLen) * float64(m.Hidden)
	return pt + attn
}

// --- GEMM enumeration -------------------------------------------------------

// layerGEMMs names the per-layer forward GEMMs in execution order.
var layerGEMMs = [...]string{"qkv", "attn.score", "attn.ctx", "attn.out", "ffn.up", "ffn.down"}

// ForwardGEMMs enumerates the forward-pass GEMMs of one training step.
// All GEMM names share one string buffer.
func (m Model) ForwardGEMMs() []npusim.GEMM {
	bs := m.BatchSize * m.SeqLen
	attnM := m.BatchSize * m.Heads * m.SeqLen
	headDim := m.Hidden / m.Heads

	var prefix [22]byte
	// Every layer prefix "l<index>." is at most this long.
	width := len(strconv.AppendInt(prefix[:0], int64(m.Layers), 10)) + 2
	size := len("lm_head")
	for _, op := range layerGEMMs {
		size += m.Layers * (width + len(op))
	}
	var names strings.Builder
	names.Grow(size)
	name := func(prefix []byte, op string) string {
		start := names.Len()
		names.Write(prefix)
		names.WriteString(op)
		return names.String()[start:]
	}

	gs := make([]npusim.GEMM, 0, len(layerGEMMs)*m.Layers+1)
	for l := 0; l < m.Layers; l++ {
		p := append(strconv.AppendInt(append(prefix[:0], 'l'), int64(l), 10), '.')
		gs = append(gs,
			npusim.GEMM{Name: name(p, "qkv"), M: bs, K: m.Hidden, N: 3 * m.Hidden},
			// Attention scores and context, folded across heads:
			// [B*heads*S, H/heads] x [H/heads, S] then [B*heads*S, S] x
			// [S, H/heads]. The S x S score matrix stays on chip between
			// the two (fused softmax — the "inter-layer optimization" of
			// Section 5.1), so scores skip the GDDR round trip.
			npusim.GEMM{Name: name(p, "attn.score"), M: attnM, K: headDim, N: m.SeqLen, NoStoreC: true},
			npusim.GEMM{Name: name(p, "attn.ctx"), M: attnM, K: m.SeqLen, N: headDim, NoLoadA: true},
			npusim.GEMM{Name: name(p, "attn.out"), M: bs, K: m.Hidden, N: m.Hidden},
			npusim.GEMM{Name: name(p, "ffn.up"), M: bs, K: m.Hidden, N: m.FFNDim},
			npusim.GEMM{Name: name(p, "ffn.down"), M: bs, K: m.FFNDim, N: m.Hidden},
		)
	}
	// Output head (tied embedding).
	gs = append(gs, npusim.GEMM{Name: name(nil, "lm_head"), M: bs, K: m.Hidden, N: m.Vocab})
	return gs
}

// BackwardGEMMs enumerates the backward pass; see BackwardOf.
func (m Model) BackwardGEMMs() []npusim.GEMM { return BackwardOf(m.ForwardGEMMs()) }

// BackwardOf derives the backward pass from a forward GEMM list: for
// every forward GEMM [M,K]x[K,N], backprop runs a data-gradient GEMM
// [M,N]x[N,K] and a weight-gradient GEMM [K,M]x[M,N]. All names share
// one string buffer.
func BackwardOf(fwd []npusim.GEMM) []npusim.GEMM {
	size := 0
	for _, g := range fwd {
		size += 2*len(g.Name) + len(".dgrad") + len(".wgrad")
	}
	var names strings.Builder
	names.Grow(size)
	name := func(base, suffix string) string {
		start := names.Len()
		names.WriteString(base)
		names.WriteString(suffix)
		return names.String()[start:]
	}

	gs := make([]npusim.GEMM, 0, 2*len(fwd))
	for _, g := range fwd {
		// Fused-attention gradients stay on chip the same way the forward
		// scores do (flash-style backward recomputation).
		gs = append(gs,
			npusim.GEMM{Name: name(g.Name, ".dgrad"), M: g.M, K: g.N, N: g.K, NoLoadA: g.NoLoadA, NoStoreC: g.NoStoreC},
			npusim.GEMM{Name: name(g.Name, ".wgrad"), M: g.K, K: g.M, N: g.N, NoLoadA: g.NoLoadA, NoStoreC: g.NoStoreC},
		)
	}
	return gs
}

// --- tensor inventory (Figure 4) ---------------------------------------------

// ParamTensor describes one parameter tensor of the model.
type ParamTensor struct {
	Name  string
	Elems int
}

// ParamTensors lists the model's parameter tensors in layout order — the
// tensors the CPU's Adam step sweeps and the Meta Table manages.
func (m Model) ParamTensors() []ParamTensor {
	h, f := m.Hidden, m.FFNDim
	var ts []ParamTensor
	add := func(name string, elems int) {
		ts = append(ts, ParamTensor{Name: name, Elems: elems})
	}
	add("tok_emb", m.Vocab*h)
	for l := 0; l < m.Layers; l++ {
		p := fmt.Sprintf("l%d.", l)
		add(p+"qkv.w", h*3*h)
		add(p+"qkv.b", 3*h)
		add(p+"attn.out.w", h*h)
		add(p+"attn.out.b", h)
		add(p+"ffn.up.w", h*f)
		add(p+"ffn.up.b", f)
		add(p+"ffn.down.w", f*h)
		add(p+"ffn.down.b", h)
		add(p+"ln1", 2*h)
		add(p+"ln2", 2*h)
	}
	add("ln_f", 2*h)
	return ts
}

// TensorStats summarizes the Figure-4 series for a model.
type TensorStats struct {
	Count        int
	LargestBytes int64 // fp32 bytes of the largest parameter tensor
	TotalBytes   int64 // fp32 bytes of all parameters
}

// Stats computes the tensor inventory statistics.
func (m Model) Stats() TensorStats {
	var s TensorStats
	for _, t := range m.ParamTensors() {
		s.Count++
		b := int64(t.Elems) * 4
		s.TotalBytes += b
		if b > s.LargestBytes {
			s.LargestBytes = b
		}
	}
	return s
}

// --- CPU-side Adam sweep construction ----------------------------------------

// AdamQuads lays out the optimizer state (fp32 w, g, m, v) for the model's
// parameter tensors in an arena, optionally capping total elements (large
// models are simulated over a representative window and scaled linearly —
// the sweep is streaming, so time is linear in elements).
//
// Returns the quads and the fraction of the full parameter count covered.
func AdamQuads(a *tensor.Arena, m Model, maxElems int64) (quads []trace.AdamTensors, coverage float64) {
	var total, used int64
	for _, t := range m.ParamTensors() {
		total += int64(t.Elems)
	}
	for _, t := range m.ParamTensors() {
		if maxElems > 0 && used+int64(t.Elems) > maxElems {
			continue // skip tensors that exceed the remaining budget
		}
		quads = append(quads, trace.NewAdamTensors(a, t.Name, t.Elems))
		used += int64(t.Elems)
	}
	if total == 0 {
		return quads, 1
	}
	return quads, float64(used) / float64(total)
}

// CommBytes returns the per-step communication volumes of ZeRO-Offload
// (Figure 1): fp32 gradients NPU->CPU, fp16 weights CPU->NPU.
func (m Model) CommBytes() (gradBytes, weightBytes int64) {
	p := m.Params()
	return 4 * p, 2 * p
}
