package npumac

import (
	"errors"
	"strings"
	"testing"
)

// TestVerifierSemanticsAcrossIDs pins the tensor-state semantics the
// dense state slice must keep: an ID nobody touched reads as clean, and
// every non-negative ID runs the same delayed-verification lifecycle.
func TestVerifierSemanticsAcrossIDs(t *testing.T) {
	ids := []struct {
		name string
		id   TensorID
	}{
		{"first", 0},
		{"dense", 5},
		{"past reserved capacity", 200},
		{"negative", -1},
		{"very negative", -1 << 40},
	}
	for _, tc := range ids {
		t.Run(tc.name, func(t *testing.T) {
			v := NewVerifier(8)
			v.Reserve(16)      // capacity alone must not make IDs look touched
			other := tc.id + 7 // never touched by this subtest

			// Never touched: clean for Poisoned, Barrier and Propagate.
			if v.Poisoned(tc.id) || v.Poisoned(other) {
				t.Fatal("untouched tensor reads as poisoned")
			}
			if err := v.Barrier(tc.id, other); err != nil {
				t.Fatalf("barrier on untouched tensors: %v", err)
			}
			v.Propagate(3, tc.id, other)
			if v.Poisoned(3) || v.Unverified() != 0 {
				t.Fatal("untouched sources poisoned their output")
			}

			// CompleteRead without BeginRead has no reference MAC.
			if err := v.CompleteRead(tc.id); err == nil || !strings.Contains(err.Error(), "no reference MAC") {
				t.Fatalf("CompleteRead without BeginRead = %v, want a no-reference-MAC error", err)
			}

			if tc.id < 0 {
				defer func() {
					if recover() == nil {
						t.Error("BeginRead accepted a negative tensor ID")
					}
				}()
				v.BeginRead(tc.id, 0x5)
				return
			}

			// Begin: poisoned, counted, blocked at the barrier, and the
			// poison flows to an output.
			v.BeginRead(tc.id, 0x5)
			if !v.Poisoned(tc.id) || v.Unverified() != 1 {
				t.Fatalf("after BeginRead: poisoned=%v unverified=%d", v.Poisoned(tc.id), v.Unverified())
			}
			var ve *VerificationError
			if err := v.Barrier(tc.id); !errors.As(err, &ve) || !ve.Unverified || ve.Tensor != tc.id {
				t.Fatalf("barrier on unverified tensor = %v", err)
			}
			v.Propagate(3, other, tc.id)
			if !v.Poisoned(3) || v.Unverified() != 2 {
				t.Fatalf("poison did not propagate: unverified=%d", v.Unverified())
			}

			// Complete with the right MAC clears only the source.
			v.AccumulateLine(tc.id, 0x5)
			if err := v.CompleteRead(tc.id); err != nil {
				t.Fatalf("CompleteRead: %v", err)
			}
			if v.Poisoned(tc.id) || !v.Poisoned(3) || v.Unverified() != 1 {
				t.Fatalf("after CompleteRead: src=%v out=%v unverified=%d", v.Poisoned(tc.id), v.Poisoned(3), v.Unverified())
			}

			// A wrong MAC fails and sticks.
			v.BeginRead(tc.id, 0x5)
			v.AccumulateLine(tc.id, 0x6)
			if err := v.CompleteRead(tc.id); !errors.As(err, &ve) || ve.Unverified || ve.Tensor != tc.id {
				t.Fatalf("tampered CompleteRead = %v", err)
			}
			if err := v.Barrier(tc.id); err == nil {
				t.Fatal("barrier passed a failed tensor")
			}
			if v.Stats().Failures != 1 {
				t.Fatalf("failures = %d, want 1", v.Stats().Failures)
			}

			// Reset clears poison and the unverified count.
			v.Reset()
			if v.Poisoned(tc.id) || v.Poisoned(3) || v.Unverified() != 0 {
				t.Fatal("Reset left poison behind")
			}
			if err := v.Barrier(tc.id, 3); err != nil {
				t.Fatalf("barrier after Reset: %v", err)
			}
		})
	}
}

// TestVerifyCodeLines checks the batched code check against VerifyCode:
// it counts every line, counts every mismatching line as a failure, and
// returns the same error a per-line VerifyCode loop would.
func TestVerifyCodeLines(t *testing.T) {
	lastTampered := make([]uint64, 128)
	lastTampered[127] = 1 << 63
	cases := []struct {
		name          string
		lines, refs   []uint64
		wantFailures  uint64
		wantError     bool
		wantVerifying uint64
	}{
		{"empty", nil, nil, 0, false, 0},
		{"clean kernel", make([]uint64, 128), make([]uint64, 128), 0, false, 128},
		{"one tampered line", []uint64{1, 2, 3, 4}, []uint64{1, 2, 9, 4}, 1, true, 4},
		{"two tampered lines", []uint64{1, 2, 3, 4}, []uint64{0, 2, 3, 0}, 2, true, 4},
		{"last line's top bit tampered", make([]uint64, 128), lastTampered, 1, true, 128},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			batched, perLine := NewVerifier(8), NewVerifier(8)
			err := batched.VerifyCodeLines(tc.lines, tc.refs)
			var firstErr error
			for i := range tc.lines {
				if e := perLine.VerifyCode(tc.lines[i], tc.refs[i]); e != nil && firstErr == nil {
					firstErr = e
				}
			}
			s := batched.Stats()
			if s.CodeVerifies != tc.wantVerifying || s.CodeFailures != tc.wantFailures {
				t.Errorf("stats = %+v, want %d verifies and %d failures", s, tc.wantVerifying, tc.wantFailures)
			}
			if s != perLine.Stats() {
				t.Errorf("batched stats %+v, per-line stats %+v", s, perLine.Stats())
			}
			if !tc.wantError {
				if err != nil {
					t.Fatalf("clean code rejected: %v", err)
				}
				return
			}
			var ve *VerificationError
			if !errors.As(err, &ve) || ve.Tensor != -1 || ve.Unverified {
				t.Fatalf("tampered code error = %#v, want a *VerificationError on tensor -1", err)
			}
			if err.Error() != firstErr.Error() {
				t.Errorf("error %q, per-line VerifyCode gives %q", err, firstErr)
			}
		})
	}
}
