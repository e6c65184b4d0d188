// Package sim provides the timing primitives shared by the CPU, NPU, and
// communication simulators: a picosecond clock with its unit conversions,
// and bandwidth-limited resources modelled as busy-until accumulators.
//
// All times are in Time units of one picosecond, so the 3.5 GHz CPU, the
// 1 GHz NPU, DRAM clocks, and the PCIe link compose on a single timeline
// without cross-domain cycle conversion. uint64 picoseconds covers ~5 hours
// of simulated time, far beyond any run in this system.
package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// Time is a point in simulated time, in picoseconds.
type Time uint64

// Dur is a duration in picoseconds.
type Dur = Time

// FromSeconds converts seconds to simulated Time, saturating on overflow.
func FromSeconds(s float64) Time {
	if s <= 0 {
		return 0
	}
	ps := s * 1e12
	if ps >= math.MaxUint64 {
		return math.MaxUint64
	}
	return Time(ps)
}

// FromNanos converts nanoseconds to Time.
func FromNanos(ns float64) Time { return FromSeconds(ns * 1e-9) }

// Seconds converts Time to seconds.
func (t Time) Seconds() float64 { return float64(t) * 1e-12 }

// Millis converts Time to milliseconds.
func (t Time) Millis() float64 { return float64(t) * 1e-9 }

// Cycles converts a cycle count at freq (Hz) into Time.
func Cycles(n float64, freqHz float64) Time {
	if n <= 0 || freqHz <= 0 {
		return 0
	}
	return FromSeconds(n / freqHz)
}

// BytesAt returns the time to move n bytes at bandwidth bytes/second.
func BytesAt(n int64, bandwidthBs float64) Dur {
	if n <= 0 || bandwidthBs <= 0 {
		return 0
	}
	return FromSeconds(float64(n) / bandwidthBs)
}

// Pow2Shift returns log2(n) when n is a positive power of two, else -1.
// The strength-reduced address math in cache/dram/mee shares it: a shift
// by Pow2Shift(n) computes the identical quotient to dividing by n.
func Pow2Shift(n int) int {
	if n <= 0 || n&(n-1) != 0 {
		return -1
	}
	return bits.TrailingZeros64(uint64(n))
}

// Max returns the later of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Min returns the earlier of a and b.
func Min(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// Sub returns a-b, clamping at zero (durations never go negative).
func Sub(a, b Time) Dur {
	if a <= b {
		return 0
	}
	return a - b
}

// Resource models a fully pipelined unit with per-item occupancy (a DRAM
// data bus, an AES engine, a PCIe link). A request occupies the resource
// for a duration; requests are serviced in arrival order.
//
// Resource is a busy-until accumulator: it answers "if work arrives at time
// t needing occupancy d, when does it finish?" and advances its horizon.
// This is the standard bandwidth-latency queue of memory-system modeling.
type Resource struct {
	Name      string
	busyUntil Time
	busyTotal Dur
}

// NewResource returns a named, idle resource.
func NewResource(name string) *Resource { return &Resource{Name: name} }

// Acquire reserves the resource at or after time at for the given
// occupancy, returning the time at which the reservation completes.
func (r *Resource) Acquire(at Time, occupancy Dur) Time {
	start := Max(at, r.busyUntil)
	r.busyUntil = start + occupancy
	r.busyTotal += occupancy
	return r.busyUntil
}

// BusyUntil reports the time at which all accepted work completes.
func (r *Resource) BusyUntil() Time { return r.busyUntil }

// BusyTotal reports the cumulative occupied time (for utilization stats).
func (r *Resource) BusyTotal() Dur { return r.busyTotal }

// Reset returns the resource to idle at time 0.
func (r *Resource) Reset() {
	r.busyUntil = 0
	r.busyTotal = 0
}

func (r *Resource) String() string {
	return fmt.Sprintf("resource %s busyUntil=%d busy=%d", r.Name, r.busyUntil, r.busyTotal)
}
