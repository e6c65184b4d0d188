package sim

import (
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if got := FromSeconds(1e-12); got != 1 {
		t.Errorf("FromSeconds(1ps) = %d, want 1", got)
	}
	if got := FromNanos(1); got != 1000 {
		t.Errorf("FromNanos(1) = %d, want 1000", got)
	}
	if got := FromSeconds(-1); got != 0 {
		t.Errorf("FromSeconds(-1) = %d, want 0", got)
	}
	if got := Time(2_000_000).Millis(); got != 0.002 {
		t.Errorf("Millis = %g, want 0.002", got)
	}
	if got := Time(1e12).Seconds(); got != 1.0 {
		t.Errorf("Seconds = %g, want 1", got)
	}
}

func TestCycles(t *testing.T) {
	// 40 cycles at 1 GHz = 40 ns = 40000 ps.
	if got := Cycles(40, 1e9); got != 40000 {
		t.Errorf("Cycles(40, 1GHz) = %d, want 40000", got)
	}
	// 1 cycle at 3.5 GHz ≈ 285 ps (truncated).
	got := Cycles(1, 3.5e9)
	if got < 285 || got > 286 {
		t.Errorf("Cycles(1, 3.5GHz) = %d, want ~285", got)
	}
	if Cycles(0, 1e9) != 0 || Cycles(5, 0) != 0 {
		t.Error("Cycles with zero operand should be 0")
	}
}

func TestBytesAt(t *testing.T) {
	// 128 bytes at 128 GB/s = 1 ns = 1000 ps.
	if got := BytesAt(128, 128e9); got != 1000 {
		t.Errorf("BytesAt = %d, want 1000", got)
	}
	if BytesAt(0, 1e9) != 0 || BytesAt(10, 0) != 0 {
		t.Error("BytesAt with zero operand should be 0")
	}
}

func TestMinMaxSub(t *testing.T) {
	if Max(3, 5) != 5 || Max(5, 3) != 5 {
		t.Error("Max broken")
	}
	if Min(3, 5) != 3 || Min(5, 3) != 3 {
		t.Error("Min broken")
	}
	if Sub(10, 4) != 6 {
		t.Error("Sub broken")
	}
	if Sub(4, 10) != 0 {
		t.Error("Sub must clamp at zero")
	}
}

func TestResourceSerializes(t *testing.T) {
	r := NewResource("bus")
	t1 := r.Acquire(0, 10)
	t2 := r.Acquire(0, 10)
	t3 := r.Acquire(100, 10)
	if t1 != 10 || t2 != 20 || t3 != 110 {
		t.Errorf("Acquire times = %d,%d,%d want 10,20,110", t1, t2, t3)
	}
	if r.BusyTotal() != 30 {
		t.Errorf("BusyTotal = %d, want 30", r.BusyTotal())
	}
}

// The busy accounting a utilisation figure is computed from, and Reset,
// which clears it between runs.
func TestResourceUtilization(t *testing.T) {
	r := NewResource("x")
	r.Acquire(0, 50)
	if r.BusyTotal() != 50 || r.BusyUntil() != 50 {
		t.Errorf("BusyTotal, BusyUntil = %d, %d, want 50, 50", r.BusyTotal(), r.BusyUntil())
	}
	r.Reset()
	if r.BusyUntil() != 0 || r.BusyTotal() != 0 {
		t.Error("Reset did not clear state")
	}
}

// Property: a resource never finishes work earlier than request time plus
// occupancy, and the finish times are monotonically non-decreasing for
// in-order requests.
func TestResourceMonotoneProperty(t *testing.T) {
	f := func(reqs []uint16) bool {
		r := NewResource("p")
		var last Time
		var at Time
		for _, q := range reqs {
			occ := Dur(q % 1000)
			at += Time(q % 7)
			done := r.Acquire(at, occ)
			if done < at+occ {
				return false
			}
			if done < last {
				return false
			}
			last = done
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
