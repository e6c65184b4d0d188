package tensortee

import (
	"testing"
)

func TestTensorHandleLifecycle(t *testing.T) {
	p := newTestPlatform(t)
	vals := []float32{3, 1, 4, 1, 5, 9, 2, 6}
	h, err := p.CreateTensor(NPUSide, "g", vals)
	if err != nil {
		t.Fatal(err)
	}
	if h.Name() != "g" || h.Elems() != 8 || h.Bytes() != 32 {
		t.Errorf("handle metadata: name=%s elems=%d bytes=%d", h.Name(), h.Elems(), h.Bytes())
	}
	if err := h.Transfer(NPUSide); err != nil {
		t.Fatal(err)
	}
	if !h.Poisoned() {
		t.Error("transferred tensor must be poisoned before the barrier")
	}
	if err := h.Verify(); err != nil {
		t.Fatal(err)
	}
	if h.Poisoned() {
		t.Error("poison not cleared after Verify")
	}
	got, err := h.Read(CPUSide)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("g[%d] = %v, want %v", i, got[i], vals[i])
		}
	}
	// Write re-encrypts; a lookup handle sees the same tensor.
	if err := h.Write(NPUSide, []float32{8, 7, 6, 5, 4, 3, 2, 1}); err != nil {
		t.Fatal(err)
	}
	h2, err := p.Tensor("g")
	if err != nil {
		t.Fatal(err)
	}
	got, err = h2.Read(NPUSide)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 8 || got[7] != 1 {
		t.Errorf("rewrite through handle lost: %v", got)
	}
}

func TestTensorHandleStagedTransfer(t *testing.T) {
	p := newTestPlatform(t)
	h, err := p.CreateTensor(NPUSide, "d", []float32{1, -2, 3.5, -4.25})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.TransferStaged(NPUSide); err != nil {
		t.Fatal(err)
	}
	got, err := h.Read(CPUSide)
	if err != nil {
		t.Fatal(err)
	}
	if got[2] != 3.5 {
		t.Errorf("staged transfer through handle: %v", got)
	}
}

func TestNewPlatformOptions(t *testing.T) {
	// Deterministic seeding: same seed, same session keys.
	p1, err := NewPlatform(WithSeed(5), WithRegionBytes(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	if !p1.Attested() {
		t.Error("platform not attested")
	}
	// Invalid line sizes are rejected.
	for _, bad := range []int{0, -64, 24, 100} {
		if _, err := NewPlatform(WithLineSize(bad)); err == nil {
			t.Errorf("line size %d accepted", bad)
		}
	}
}

func TestPlatformCustomLineSize(t *testing.T) {
	for _, line := range []int{16, 128, 256} {
		p, err := NewPlatform(WithRegionBytes(1<<20), WithLineSize(line))
		if err != nil {
			t.Fatalf("line %d: %v", line, err)
		}
		vals := make([]float32, 100) // 400 bytes: straddles lines at every size
		for i := range vals {
			vals[i] = float32(i) * 0.5
		}
		h, err := p.CreateTensor(NPUSide, "x", vals)
		if err != nil {
			t.Fatalf("line %d: %v", line, err)
		}
		if err := h.Transfer(NPUSide); err != nil {
			t.Fatalf("line %d transfer: %v", line, err)
		}
		if err := h.Verify(); err != nil {
			t.Fatalf("line %d verify: %v", line, err)
		}
		got, err := h.Read(CPUSide)
		if err != nil {
			t.Fatalf("line %d read: %v", line, err)
		}
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("line %d: x[%d] = %v, want %v", line, i, got[i], vals[i])
			}
		}
	}
}

func TestPlatformConcurrentTensorOps(t *testing.T) {
	// Distinct tensors driven from concurrent goroutines: the platform
	// mutex must keep the arena, maps, channel, and verifier coherent
	// (meaningful under -race).
	p := newTestPlatform(t)
	const n = 8
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			name := string(rune('a' + i))
			h, err := p.CreateTensor(NPUSide, name, []float32{float32(i), float32(i + 1)})
			if err != nil {
				errs <- err
				return
			}
			if err := h.Transfer(NPUSide); err != nil {
				errs <- err
				return
			}
			if err := h.Verify(); err != nil {
				errs <- err
				return
			}
			got, err := h.Read(CPUSide)
			if err == nil && got[0] != float32(i) {
				errs <- errUnknownTensor(name)
				return
			}
			errs <- err
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
