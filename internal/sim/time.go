// Package sim provides the discrete-event simulation substrate used by
// every timing model in this repository: a picosecond clock, an event
// queue, and resource timelines that serialize access to shared hardware
// structures (buses, memory partitions, firmware cores, DMA engines).
//
// All models in dramless are deterministic: given the same configuration
// and workload they produce bit-identical schedules, which keeps the
// experiment harness reproducible.
package sim

import (
	"fmt"
	"time"
)

// Time is a simulated point in time, measured in integer picoseconds from
// the start of the simulation. Picosecond resolution lets us express the
// LPDDR2-NVM strobe parameters (tDQSS = 0.75 ns) exactly while an int64
// still covers more than 100 days of simulated time.
type Time int64

// Duration is a span of simulated time in picoseconds.
type Duration = Time

// Common durations.
const (
	Picosecond  Duration = 1
	Nanosecond           = 1000 * Picosecond
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Nanoseconds returns a duration of n nanoseconds.
func Nanoseconds(n float64) Duration { return Duration(n * float64(Nanosecond)) }

// Microseconds returns a duration of n microseconds.
func Microseconds(n float64) Duration { return Duration(n * float64(Microsecond)) }

// Milliseconds returns a duration of n milliseconds.
func Milliseconds(n float64) Duration { return Duration(n * float64(Millisecond)) }

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros reports t as floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Nanos reports t as floating-point nanoseconds.
func (t Time) Nanos() float64 { return float64(t) / float64(Nanosecond) }

// Std converts t to a time.Duration (nanosecond resolution, rounding down).
func (t Time) Std() time.Duration { return time.Duration(t/Nanosecond) * time.Nanosecond }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t < 0:
		return fmt.Sprintf("-%v", -t)
	case t < Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case t < Microsecond:
		return fmt.Sprintf("%.3gns", t.Nanos())
	case t < Millisecond:
		return fmt.Sprintf("%.4gus", t.Micros())
	case t < Second:
		return fmt.Sprintf("%.4gms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.4gs", t.Seconds())
	}
}

// Max returns the later of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Clock converts between cycle counts and simulated time for a component
// running at a fixed frequency.
type Clock struct {
	period Duration // picoseconds per cycle
}

// NewClock returns a clock with the given frequency in hertz.
// NewClock panics if hz is not positive, since a zero-frequency component
// is always a configuration error.
func NewClock(hz float64) Clock {
	if hz <= 0 {
		panic(fmt.Sprintf("sim: non-positive clock frequency %v", hz))
	}
	return Clock{period: Duration(float64(Second) / hz)}
}

// Cycles returns the duration of n cycles.
func (c Clock) Cycles(n int64) Duration { return Duration(n) * c.period }
