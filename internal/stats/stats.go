// Package stats provides lightweight metric containers used by the
// dramless models: counters, time-series samplers for
// the paper's IPC/power plots, and small formatting helpers for the
// experiment harness.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"dramless/internal/sim"
)

// Series is a fixed-interval time series used for the paper's IPC and
// power plots (Figures 18-21). Values land in the bucket covering their
// timestamp; buckets grow on demand.
type Series struct {
	Interval sim.Duration
	buckets  []float64
	counts   []int64
}

// NewSeries returns a series with the given sampling interval.
func NewSeries(interval sim.Duration) *Series {
	if interval <= 0 {
		panic("stats: series interval must be positive")
	}
	return &Series{Interval: interval}
}

func (ts *Series) grow(idx int) {
	for len(ts.buckets) <= idx {
		ts.buckets = append(ts.buckets, 0)
		ts.counts = append(ts.counts, 0)
	}
}

// Accumulate adds v into the bucket containing t (used for additive
// quantities such as instructions retired or joules).
func (ts *Series) Accumulate(t sim.Time, v float64) {
	if t < 0 {
		return
	}
	idx := int(t / ts.Interval)
	ts.grow(idx)
	ts.buckets[idx] += v
	ts.counts[idx]++
}

// Spread distributes v uniformly over [t0, t1) across buckets, which is
// the right treatment for energy of an operation spanning many intervals.
func (ts *Series) Spread(t0, t1 sim.Time, v float64) {
	if t1 <= t0 || v == 0 {
		if t1 == t0 {
			ts.Accumulate(t0, v)
		}
		return
	}
	total := float64(t1 - t0)
	first := int(t0 / ts.Interval)
	last := int((t1 - 1) / ts.Interval)
	ts.grow(last)
	for i := first; i <= last; i++ {
		bs := sim.Time(i) * ts.Interval
		be := bs + ts.Interval
		lo, hi := sim.Max(bs, t0), sim.Min(be, t1)
		if hi > lo {
			ts.buckets[i] += v * (float64(hi-lo) / total) // fraction first: v may be near MaxFloat64
			ts.counts[i]++
		}
	}
}

// Len returns the number of buckets.
func (ts *Series) Len() int { return len(ts.buckets) }

// At returns the accumulated value of bucket i.
func (ts *Series) At(i int) float64 { return ts.buckets[i] }

// BucketStart returns the start time of bucket i.
func (ts *Series) BucketStart(i int) sim.Time { return sim.Time(i) * ts.Interval }

// Values returns a copy of the bucket values.
func (ts *Series) Values() []float64 {
	out := make([]float64, len(ts.buckets))
	copy(out, ts.buckets)
	return out
}

// Rate returns bucket values divided by the interval in seconds
// (e.g. joules per bucket -> watts).
func (ts *Series) Rate() []float64 {
	sec := ts.Interval.Seconds()
	out := make([]float64, len(ts.buckets))
	for i, v := range ts.buckets {
		out[i] = v / sec
	}
	return out
}

// Cumulative returns the running sum of bucket values.
func (ts *Series) Cumulative() []float64 {
	out := make([]float64, len(ts.buckets))
	var run float64
	for i, v := range ts.buckets {
		run += v
		out[i] = run
	}
	return out
}

// Total returns the sum over all buckets.
func (ts *Series) Total() float64 {
	var run float64
	for _, v := range ts.buckets {
		run += v
	}
	return run
}

// Mean returns the mean bucket value (0 when empty).
func (ts *Series) Mean() float64 {
	if len(ts.buckets) == 0 {
		return 0
	}
	return ts.Total() / float64(len(ts.buckets))
}

// Breakdown is an ordered map from component name to a scalar, used for
// the execution-time and energy decomposition figures. Insertion order is
// preserved so tables print in a stable, meaningful order.
type Breakdown struct {
	keys []string
	vals map[string]float64
}

// NewBreakdown returns an empty breakdown.
func NewBreakdown() *Breakdown { return &Breakdown{vals: map[string]float64{}} }

// Add accumulates v into component key.
func (b *Breakdown) Add(key string, v float64) {
	if _, ok := b.vals[key]; !ok {
		b.keys = append(b.keys, key)
	}
	b.vals[key] += v
}

// Get returns the value for key (0 when absent).
func (b *Breakdown) Get(key string) float64 { return b.vals[key] }

// Keys returns the component names in insertion order.
func (b *Breakdown) Keys() []string { return append([]string(nil), b.keys...) }

// Total returns the sum over all components. Summation follows
// insertion order, not map order: float addition is not associative, so
// iterating the map would make the low bits of the total vary from run
// to run and break the simulator's determinism guarantee.
func (b *Breakdown) Total() float64 {
	var t float64
	for _, k := range b.keys {
		t += b.vals[k]
	}
	return t
}

// Share returns key's fraction of the total (0 when the total is 0).
func (b *Breakdown) Share(key string) float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return b.vals[key] / t
}

// AddAll merges other into b.
func (b *Breakdown) AddAll(other *Breakdown) {
	for _, k := range other.keys {
		b.Add(k, other.vals[k])
	}
}

// Scale multiplies every component by f.
func (b *Breakdown) Scale(f float64) {
	for k := range b.vals {
		b.vals[k] *= f
	}
}

// String formats the breakdown as "a=1 b=2 (total 3)".
func (b *Breakdown) String() string {
	var sb strings.Builder
	for i, k := range b.keys {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s=%.4g", k, b.vals[k])
	}
	fmt.Fprintf(&sb, " (total %.4g)", b.Total())
	return sb.String()
}

// Mean returns the arithmetic mean of vs (0 when empty).
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// Percentile returns the p-quantile (0..1) of vs by nearest-rank on a
// sorted copy. It returns 0 for empty input.
func Percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	c := append([]float64(nil), vs...)
	sort.Float64s(c)
	if p <= 0 {
		return c[0]
	}
	if p >= 1 {
		return c[len(c)-1]
	}
	idx := int(math.Ceil(p*float64(len(c)))) - 1
	if idx < 0 {
		idx = 0
	}
	return c[idx]
}
