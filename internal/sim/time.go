// Package sim provides the discrete-event simulation kernel used by every
// other package in this repository: a picosecond-resolution virtual clock,
// a cancellable event scheduler, and deterministic per-component random
// number streams.
//
// Design note: clock oscillators in this codebase tick every ~6.4 ns with
// parts-per-million skew, so event timestamps need sub-nanosecond
// resolution over minutes of simulated time. int64 picoseconds covers
// ±106 days, which is far more than any experiment runs.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in simulated time, measured in integer picoseconds since
// the start of the simulation.
type Time int64

// Duration units expressed in simulated picoseconds.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Femto converts a femtosecond count to Time, rounding toward zero.
func Femto(fs int64) Time { return Time(fs / 1000) }

// Fs returns t in femtoseconds. It panics if the result would overflow,
// which happens only past ~9223 simulated seconds; experiments re-base
// long before that.
func (t Time) Fs() int64 {
	const maxFs = int64(9_223_372_036_854_775) // max int64 / 1000, in ps
	if int64(t) > maxFs || int64(t) < -maxFs {
		panic(fsOverflow(t))
	}
	return int64(t) * 1000
}

// fsOverflow is Fs's panic value; a plain value keeps Fs inlinable.
type fsOverflow Time

func (e fsOverflow) Error() string {
	return fmt.Sprintf("sim: %d ps overflows femtosecond representation", int64(e))
}

// Seconds returns t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// nanoseconds returns t as floating-point nanoseconds.
func (t Time) nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Std converts t to a time.Duration (nanosecond resolution, truncated).
func (t Time) Std() time.Duration { return time.Duration(int64(t) / 1000) }

// FromStd converts a time.Duration to simulated Time.
func FromStd(d time.Duration) Time { return Time(d.Nanoseconds()) * Nanosecond }

// String renders the time with an adaptive unit, e.g. "1.2805us".
func (t Time) String() string {
	switch {
	case t == 0:
		return "0s"
	case t%Second == 0:
		return fmt.Sprintf("%ds", int64(t/Second))
	case t > Second || t < -Second:
		return fmt.Sprintf("%.6gs", t.Seconds())
	case t > Millisecond || t < -Millisecond:
		return fmt.Sprintf("%.6gms", float64(t)/float64(Millisecond))
	case t > Microsecond || t < -Microsecond:
		return fmt.Sprintf("%.6gus", float64(t)/float64(Microsecond))
	case t > Nanosecond || t < -Nanosecond:
		return fmt.Sprintf("%.6gns", t.nanoseconds())
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}
