package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
)

// Histogram geometry: log-linear (HDR-style) buckets over non-negative
// int64 picosecond samples. Each power-of-two octave is divided into
// 2^histSubBits equal-width sub-buckets, so relative error is bounded by
// 1/2^histSubBits (~3%) at every magnitude while the bucket geometry
// stays fixed. The counts are stored one block of histSubs counters per
// octave, allocated on the first sample that lands in it: a run's
// instruments see a handful of the histOctaves octaves each, and every
// run builds its own set. Record in an octave already touched is
// a shift, an add and two compares (zero allocations, pinned); it
// allocates at most once per octave over a histogram's life.
const (
	histSubBits = 5
	histSubs    = 1 << histSubBits // sub-buckets per octave
	// histBuckets covers every non-negative int64: the maximum sample
	// 2^63-1 lands in bucket (63-histSubBits-1)*histSubs + (histSubs*2-1).
	histBuckets = (63-histSubBits)*histSubs + histSubs
	// histOctaves is the block count: bucket i is counter
	// i&(histSubs-1) of block i>>histSubBits.
	histOctaves = histBuckets / histSubs
)

// histBlock holds the counts of one octave's histSubs buckets.
type histBlock [histSubs]int64

// zeroBlock stands in for an octave with no block in comparisons.
var zeroBlock histBlock

// histBucketOf maps a non-negative sample to its bucket index.
func histBucketOf(v int64) int {
	shift := bits.Len64(uint64(v)) - histSubBits - 1
	if shift < 0 {
		shift = 0
	}
	return shift<<histSubBits + int(uint64(v)>>uint(shift))
}

// histBucketBounds returns bucket i's value range [low, high). The last
// bucket's true upper bound is 2^63, which int64 cannot hold; it clamps
// to MaxInt64, so that one bucket is [low, MaxInt64] inclusive.
func histBucketBounds(i int) (low, high int64) {
	if i < 2*histSubs {
		return int64(i), int64(i) + 1
	}
	s := uint(i/histSubs - 1)
	low = int64(i-int(s)*histSubs) << s
	high = low + int64(1)<<s
	if high < low {
		high = math.MaxInt64
	}
	return low, high
}

// Histogram is a fixed-geometry latency distribution: int64 samples
// (picoseconds by convention) in log-linear buckets. The zero value is
// NOT ready to use — obtain instances from a HistogramSet. All methods
// are nil-safe; a nil *Histogram is the disabled handle model code holds
// when observation is off.
type Histogram struct {
	name   string
	blocks [histOctaves]*histBlock // nil until a sample lands in the octave
	n      int64
	sum    int64
	min    int64
	max    int64
}

func newHistogram(name string) *Histogram {
	return &Histogram{name: name, min: math.MaxInt64}
}

// block returns octave o's counts, allocating them on first use.
func (h *Histogram) block(o int) *histBlock {
	b := h.blocks[o]
	if b == nil {
		b = new(histBlock)
		h.blocks[o] = b
	}
	return b
}

// count returns bucket i's count. Nil-safe.
func (h *Histogram) count(i int) int64 {
	if h == nil || h.blocks[i>>histSubBits] == nil {
		return 0
	}
	return h.blocks[i>>histSubBits][i&(histSubs-1)]
}

// each calls fn for every non-empty bucket in ascending order, stopping
// early when fn returns false.
func (h *Histogram) each(fn func(i int, c int64) bool) {
	for o, b := range h.blocks {
		if b == nil {
			continue
		}
		for j, c := range b {
			if c != 0 && !fn(o<<histSubBits+j, c) {
				return
			}
		}
	}
}

// nonEmpty returns how many buckets hold samples.
func (h *Histogram) nonEmpty() int {
	n := 0
	h.each(func(int, int64) bool { n++; return true })
	return n
}

// Name returns the instrument name.
func (h *Histogram) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

// Record adds one sample. Negative samples clamp to zero (latencies are
// non-negative by construction; clamping keeps a model bug from
// corrupting the geometry). Nil-safe, and allocation-free once the
// sample's octave holds a sample.
func (h *Histogram) Record(v int64) {
	if h == nil {
		return
	}
	v = max(v, 0)
	// Octave o and sub-bucket of histBucketOf(v), computed directly
	// rather than by splitting the bucket index: that keeps Record within
	// the compiler's inlining budget, so instrument sites inline it.
	o := max(bits.Len64(uint64(v))-histSubBits, 0)
	b := h.blocks[o]
	if b == nil {
		b = new(histBlock)
		h.blocks[o] = b
	}
	b[uint64(v)>>max(o-1, 0)&(histSubs-1)]++
	h.n++
	h.sum += v
	h.min = min(h.min, v)
	h.max = max(h.max, v)
}

// Count returns how many samples were recorded.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Sum returns the summed sample values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Min returns the smallest recorded sample (0 when empty).
func (h *Histogram) Min() int64 {
	if h == nil || h.n == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded sample (0 when empty).
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max
}

// Percentile returns the value at or below which p percent of the
// samples lie: the inclusive upper edge of the bucket holding the
// sample of rank ceil(p/100*n), clamped to the observed min/max so
// exact extremes survive the bucketing. Returns 0 on an empty
// histogram.
func (h *Histogram) Percentile(p float64) int64 {
	if h == nil || h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(p / 100 * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var cum int64
	v := h.max
	h.each(func(i int, c int64) bool {
		cum += c
		if cum < rank {
			return true
		}
		_, high := histBucketBounds(i)
		v = high - 1
		if v > h.max {
			v = h.max
		}
		if v < h.min {
			v = h.min
		}
		return false
	})
	return v
}

// Bucket is one non-empty histogram bucket: Count samples in [Low, High).
type Bucket struct {
	Low   int64
	High  int64
	Count int64
}

// Buckets returns the non-empty buckets in ascending value order (the
// data behind a CDF rendering). Nil-safe; allocates the result.
func (h *Histogram) Buckets() []Bucket {
	if h == nil || h.n == 0 {
		return nil
	}
	out := make([]Bucket, 0, h.nonEmpty())
	h.each(func(i int, c int64) bool {
		low, high := histBucketBounds(i)
		out = append(out, Bucket{Low: low, High: high, Count: c})
		return true
	})
	return out
}

// Mean returns the average sample (0 when empty).
func (h *Histogram) Mean() float64 {
	if h == nil || h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Merge accumulates other into h. Nil-safe on both sides.
func (h *Histogram) Merge(other *Histogram) {
	if h == nil || other == nil || other.n == 0 {
		return
	}
	for o, b := range other.blocks {
		if b == nil {
			continue
		}
		dst := h.block(o)
		for j, c := range b {
			dst[j] += c
		}
	}
	h.n += other.n
	h.sum += other.sum
	if other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
}

// Equal reports whether both histograms hold identical distributions.
func (h *Histogram) Equal(other *Histogram) bool {
	if h.Count() == 0 && other.Count() == 0 {
		return true
	}
	if h == nil || other == nil {
		return false
	}
	if h.n != other.n || h.sum != other.sum || h.min != other.min || h.max != other.max {
		return false
	}
	for o, a := range h.blocks {
		b := other.blocks[o]
		if a == nil {
			a = &zeroBlock
		}
		if b == nil {
			b = &zeroBlock
		}
		if *a != *b {
			return false
		}
	}
	return true
}

// Diff returns a human-readable description of the first few bucket
// differences (for test failure messages); empty when Equal.
func (h *Histogram) Diff(other *Histogram) string {
	if h.Equal(other) {
		return ""
	}
	out := ""
	if h.Count() != other.Count() || h.Sum() != other.Sum() ||
		h.Min() != other.Min() || h.Max() != other.Max() {
		out += fmt.Sprintf("  count %d/%d sum %d/%d min %d/%d max %d/%d\n",
			h.Count(), other.Count(), h.Sum(), other.Sum(), h.Min(), other.Min(), h.Max(), other.Max())
	}
	diffs := 0
	for i := 0; i < histBuckets && diffs < 8; i++ {
		if a, b := h.count(i), other.count(i); a != b {
			low, high := histBucketBounds(i)
			out += fmt.Sprintf("  bucket %d [%d,%d): %d != %d\n", i, low, high, a, b)
			diffs++
		}
	}
	return out
}

// histBucketJSON is one non-empty bucket in the JSON export.
type histBucketJSON struct {
	Bucket int   `json:"bucket"`
	Low    int64 `json:"low"`
	High   int64 `json:"high"`
	Count  int64 `json:"count"`
}

// histJSON is one histogram in the JSON export. Only non-empty buckets
// are listed; the fixed geometry reconstructs the rest on import.
type histJSON struct {
	Name    string           `json:"name"`
	Count   int64            `json:"count"`
	Sum     int64            `json:"sum"`
	Min     int64            `json:"min"`
	Max     int64            `json:"max"`
	Buckets []histBucketJSON `json:"buckets"`
}

func (h *Histogram) toJSON() histJSON {
	out := histJSON{Name: h.Name(), Count: h.Count(), Sum: h.Sum(), Min: h.Min(), Max: h.Max()}
	if h == nil || h.n == 0 {
		return out
	}
	out.Buckets = make([]histBucketJSON, 0, h.nonEmpty())
	h.each(func(i int, c int64) bool {
		low, high := histBucketBounds(i)
		out.Buckets = append(out.Buckets, histBucketJSON{Bucket: i, Low: low, High: high, Count: c})
		return true
	})
	return out
}

func (h *Histogram) key() string { return h.name }

func (h *Histogram) diff(o *Histogram) string {
	if d := h.Diff(o); d != "" {
		return "  " + h.name + ":\n" + d
	}
	return ""
}

// HistogramSet is an ordered registry of named histograms: Get returns a
// stable handle, creating the histogram on first use, so instrument
// sites resolve their handle once at construction and record without
// lookups. Registration order is deterministic because every
// instrumented component resolves its handles in fixed code order.
type HistogramSet struct{ r registry[*Histogram] }

func (s *HistogramSet) reg() *registry[*Histogram] {
	if s == nil {
		return nil
	}
	return &s.r
}

// Get returns the named histogram, registering it on first use. A nil
// set returns a nil (safely recordable) handle.
func (s *HistogramSet) Get(name string) *Histogram { return s.reg().get(name, newHistogram) }

// Lookup returns the named histogram without registering it.
func (s *HistogramSet) Lookup(name string) *Histogram {
	h, _ := s.reg().lookup(name)
	return h
}

// Len returns how many histograms are registered.
func (s *HistogramSet) Len() int { return s.reg().len() }

// Names returns every registered name in registration order.
func (s *HistogramSet) Names() []string { return s.reg().names() }

// All returns the histograms in registration order. The slice is shared;
// callers must not mutate it.
func (s *HistogramSet) All() []*Histogram { return s.reg().all() }

// Equal reports whether both sets hold the same histograms in the same
// order with identical distributions.
func (s *HistogramSet) Equal(other *HistogramSet) bool { return s.reg().equal(other.reg()) }

// Diff returns a description of the first differences between two sets;
// empty when Equal.
func (s *HistogramSet) Diff(other *HistogramSet) string { return s.reg().diff(other.reg()) }

// MarshalJSON renders the set as an ordered array of histograms with
// sparse bucket lists. The export is byte-deterministic: order is
// registration order and every field is integer.
func (s *HistogramSet) MarshalJSON() ([]byte, error) {
	return exportJSON(s.All(), (*Histogram).toJSON)
}

// WriteJSON writes the set as indented JSON (the `-hist file.json`
// format; ReadHistogramsJSON parses it back).
func (s *HistogramSet) WriteJSON(w io.Writer) error { return writeIndented(w, s) }

// WriteCSV writes one row per non-empty bucket:
// name,low,high,count,cum — the cumulative column makes the file a
// ready-to-plot CDF per instrument.
func (s *HistogramSet) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w, "name,low,high,count,cum\n"); err != nil {
		return err
	}
	for _, h := range s.All() {
		var cum int64
		var err error
		h.each(func(i int, c int64) bool {
			cum += c
			low, high := histBucketBounds(i)
			_, err = fmt.Fprintf(w, "%s,%d,%d,%d,%d\n", h.name, low, high, c, cum)
			return err == nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// ReadHistogramsJSON parses a WriteJSON export back into a set (the
// report and diff commands work from exported files, not live runs). It
// rejects a histogram no recording could have produced: an out-of-range
// bucket, a negative bucket count, bucket counts that do not sum to
// count, a min/max outside the first/last non-empty bucket, or
// min > max. So is a field no histogram has: a blame export is an
// error here, not an empty set.
func ReadHistogramsJSON(r io.Reader) (*HistogramSet, error) {
	var in []histJSON
	if err := decodeStrict(r, &in); err != nil {
		return nil, fmt.Errorf("obs: parsing histogram export: %w", err)
	}
	s := &HistogramSet{}
	for _, hj := range in {
		h := s.Get(hj.Name)
		for _, b := range hj.Buckets {
			if b.Bucket < 0 || b.Bucket >= histBuckets {
				return nil, fmt.Errorf("obs: histogram %q: bucket %d out of range", hj.Name, b.Bucket)
			}
			if b.Count < 0 {
				return nil, fmt.Errorf("obs: histogram %q: bucket %d has negative count %d", hj.Name, b.Bucket, b.Count)
			}
			h.block(b.Bucket >> histSubBits)[b.Bucket&(histSubs-1)] = b.Count
		}
		if err := h.importSummary(hj); err != nil {
			return nil, fmt.Errorf("obs: histogram %q: %w", hj.Name, err)
		}
	}
	return s, nil
}

// importSummary checks hj's count, min and max against the bucket
// counts already loaded into h, then installs them with hj's sum.
func (h *Histogram) importSummary(hj histJSON) error {
	var total int64
	first, last := -1, -1
	overflow := false
	h.each(func(i int, c int64) bool {
		if total > math.MaxInt64-c {
			overflow = true
			return false
		}
		total += c
		if first < 0 {
			first = i
		}
		last = i
		return true
	})
	if overflow {
		return fmt.Errorf("bucket counts overflow")
	}
	if total != hj.Count {
		return fmt.Errorf("bucket counts sum to %d, count is %d", total, hj.Count)
	}
	h.n, h.sum = hj.Count, hj.Sum
	if total == 0 {
		if hj.Min != 0 || hj.Max != 0 {
			return fmt.Errorf("min %d, max %d on an empty histogram", hj.Min, hj.Max)
		}
		return nil
	}
	if hj.Min < 0 || histBucketOf(hj.Min) != first {
		return fmt.Errorf("min %d is not in the first non-empty bucket", hj.Min)
	}
	if hj.Max < 0 || histBucketOf(hj.Max) != last {
		return fmt.Errorf("max %d is not in the last non-empty bucket", hj.Max)
	}
	if hj.Min > hj.Max {
		return fmt.Errorf("min %d exceeds max %d", hj.Min, hj.Max)
	}
	h.min, h.max = hj.Min, hj.Max
	return nil
}
