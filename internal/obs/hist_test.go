package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// TestHistBucketGeometry pins the log-linear bucket map: buckets
// partition the non-negative int64 range (every value lands in exactly
// the bucket whose bounds contain it), bounds are monotone, and relative
// width is bounded by 1/histSubs above the linear range.
func TestHistBucketGeometry(t *testing.T) {
	samples := []int64{0, 1, 2, 31, 32, 33, 63, 64, 65, 127, 128, 1 << 20,
		(1 << 20) + 1, 1<<62 - 1, 1 << 62, math.MaxInt64}
	for _, v := range samples {
		i := histBucketOf(v)
		if i < 0 || i >= histBuckets {
			t.Fatalf("bucket(%d) = %d out of range [0,%d)", v, i, histBuckets)
		}
		low, high := histBucketBounds(i)
		// The last bucket clamps its bound to MaxInt64 and is inclusive.
		if v < low || (v >= high && high != math.MaxInt64) {
			t.Errorf("value %d landed in bucket %d [%d,%d)", v, i, low, high)
		}
	}
	// Bounds tile the axis: bucket i's high is bucket i+1's low.
	for i := 0; i < histBuckets-1; i++ {
		_, high := histBucketBounds(i)
		low, _ := histBucketBounds(i + 1)
		if high != low {
			t.Fatalf("buckets %d/%d do not tile: high %d != low %d", i, i+1, high, low)
		}
	}
	// Relative width <= 1/histSubs beyond the linear range.
	for _, i := range []int{2 * histSubs, 10 * histSubs, histBuckets - 1} {
		low, high := histBucketBounds(i)
		if low > 0 && float64(high-low)/float64(low) > 1.0/float64(histSubs)+1e-9 {
			t.Errorf("bucket %d [%d,%d): relative width %.4f too coarse",
				i, low, high, float64(high-low)/float64(low))
		}
	}
	if histBucketOf(math.MaxInt64) != histBuckets-1 {
		t.Errorf("MaxInt64 must land in the last bucket, got %d of %d",
			histBucketOf(math.MaxInt64), histBuckets)
	}
}

func TestHistogramRecordAndStats(t *testing.T) {
	var set HistogramSet
	h := set.Get("t.lat_ps")
	for _, v := range []int64{100, 200, 300, 400, 1000} {
		h.Record(v)
	}
	h.Record(-5) // clamps to 0
	if h.Count() != 6 || h.Sum() != 2000 || h.Min() != 0 || h.Max() != 1000 {
		t.Errorf("stats = count %d sum %d min %d max %d", h.Count(), h.Sum(), h.Min(), h.Max())
	}
	if got := h.Percentile(100); got != 1000 {
		t.Errorf("p100 = %d, want the max", got)
	}
	if got := h.Percentile(0); got != 0 {
		t.Errorf("p0 = %d, want the min", got)
	}
	// p50 selects rank ceil(0.5*6) = 3, the 3rd-smallest sample (200);
	// the result is that bucket's upper edge, so allow bounded error.
	p50 := h.Percentile(50)
	if p50 < 200 || p50 > 200+200/histSubs {
		t.Errorf("p50 = %d, want ~200 within bucket error", p50)
	}
	if m := h.Mean(); m != 2000.0/6 {
		t.Errorf("mean = %g", m)
	}
}

func TestHistogramMergeEqualDiff(t *testing.T) {
	var sa, sb HistogramSet
	a, b := sa.Get("x"), sb.Get("x")
	a.Record(10)
	a.Record(1 << 30)
	b.Record(10)
	b.Record(1 << 30)
	if !a.Equal(b) {
		t.Fatalf("identical histograms must be Equal:\n%s", a.Diff(b))
	}
	b.Record(99)
	if a.Equal(b) {
		t.Fatal("differing histograms must not be Equal")
	}
	if d := a.Diff(b); d == "" || !strings.Contains(d, "count") {
		t.Errorf("Diff must describe the difference, got %q", d)
	}
	a.Merge(b)
	if a.Count() != 5 || a.Min() != 10 || a.Max() != 1<<30 {
		t.Errorf("merged: count %d min %d max %d", a.Count(), a.Min(), a.Max())
	}

	// Nil handles are recordable and comparable.
	var nh *Histogram
	nh.Record(1)
	if nh.Count() != 0 || nh.Percentile(99) != 0 || nh.Buckets() != nil {
		t.Error("nil histogram must read as empty")
	}
	nh.Merge(a)
	if !nh.Equal((*Histogram)(nil)) {
		t.Error("two empty histograms must be Equal")
	}
}

// Two histograms with the same count, sum and bucket counts but
// different extremes are not Equal, and Diff says so.
func TestHistogramDiffMinMaxOnly(t *testing.T) {
	var sa, sb HistogramSet
	a, b := sa.Get("x"), sb.Get("x")
	a.Record(1000)
	a.Record(1002)
	b.Record(1001)
	b.Record(1001)
	if len(a.Buckets()) != 1 || a.Buckets()[0] != b.Buckets()[0] || a.Sum() != b.Sum() {
		t.Fatalf("fixture must share buckets and sum: %v/%d vs %v/%d", a.Buckets(), a.Sum(), b.Buckets(), b.Sum())
	}
	if a.Equal(b) || sa.Equal(&sb) {
		t.Fatal("histograms with different min/max must not be Equal")
	}
	if d := a.Diff(b); !strings.Contains(d, "min 1000/1001 max 1002/1001") {
		t.Errorf("Diff must name the extremes, got %q", d)
	}
	if sa.Diff(&sb) == "" {
		t.Error("HistogramSet.Diff must be non-empty when Equal is false")
	}
}

// TestHistogramExportRoundTrip pins that WriteJSON → ReadHistogramsJSON
// reconstructs the exact distribution, and that exports are
// byte-deterministic.
func TestHistogramExportRoundTrip(t *testing.T) {
	var set HistogramSet
	h := set.Get("b.second") // registration order, not lexical
	g := set.Get("a.first")
	for i := int64(1); i <= 1000; i++ {
		h.Record(i * i)
		g.Record(i)
	}
	set.Get("empty")

	var buf bytes.Buffer
	if err := set.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadHistogramsJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !set.Equal(back) {
		t.Fatalf("round trip lost data:\n%s", set.Diff(back))
	}
	if names := back.Names(); names[0] != "b.second" || names[1] != "a.first" {
		t.Errorf("round trip must preserve registration order, got %v", names)
	}
	for _, p := range []float64{50, 90, 99, 99.9} {
		if a, b := h.Percentile(p), back.Lookup("b.second").Percentile(p); a != b {
			t.Errorf("p%g differs after round trip: %d != %d", p, a, b)
		}
	}

	var again bytes.Buffer
	if err := set.WriteJSON(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("repeated JSON exports differ")
	}

	var csv bytes.Buffer
	if err := set.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if lines[0] != "name,low,high,count,cum" {
		t.Errorf("CSV header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "b.second,") {
		t.Errorf("CSV must follow registration order, first row %q", lines[1])
	}
	last := lines[len(lines)-1]
	if !strings.HasSuffix(last, ",1000") {
		t.Errorf("cumulative column must reach the count, last row %q", last)
	}
}

// TestHistogramRecordAllocationFree pins Record at zero allocations in
// an octave that already holds a sample, and always for a nil handle —
// the condition that lets every hot path record unconditionally. A live
// handle allocates at most one block per octave over its life.
func TestHistogramRecordAllocationFree(t *testing.T) {
	var set HistogramSet
	h := set.Get("pin")
	h.Record(123) // warm: registration already happened in Get
	allocs := testing.AllocsPerRun(200, func() {
		h.Record(42)
		h.Record(1 << 40)
	})
	if allocs != 0 {
		t.Fatalf("live Record allocates %.1f objects per call, want 0", allocs)
	}
	var nh *Histogram
	allocs = testing.AllocsPerRun(200, func() { nh.Record(42) })
	if allocs != 0 {
		t.Fatalf("nil Record allocates %.1f objects per call, want 0", allocs)
	}
}

// denseHist is the reference the per-octave block storage must match:
// the same geometry with every bucket in one preallocated array.
type denseHist struct {
	name             string
	counts           [histBuckets]int64
	n, sum, min, max int64
}

func newDense(name string) *denseHist { return &denseHist{name: name, min: math.MaxInt64} }

func (d *denseHist) record(v int64) {
	if v < 0 {
		v = 0
	}
	d.counts[histBucketOf(v)]++
	d.n++
	d.sum += v
	d.min = min(d.min, v)
	d.max = max(d.max, v)
}

func (d *denseHist) merge(o *denseHist) {
	if o.n == 0 {
		return
	}
	for i, c := range o.counts {
		d.counts[i] += c
	}
	d.n += o.n
	d.sum += o.sum
	d.min = min(d.min, o.min)
	d.max = max(d.max, o.max)
}

func (d *denseHist) minOrZero() int64 {
	if d.n == 0 {
		return 0
	}
	return d.min
}

func (d *denseHist) percentile(p float64) int64 {
	if d.n == 0 {
		return 0
	}
	rank := min(max(int64(math.Ceil(p/100*float64(d.n))), 1), d.n)
	var cum int64
	for i, c := range d.counts {
		if cum += c; cum >= rank {
			_, high := histBucketBounds(i)
			return max(min(high-1, d.max), d.min)
		}
	}
	return d.max
}

func (d *denseHist) buckets() []Bucket {
	var out []Bucket
	for i, c := range d.counts {
		if c != 0 {
			low, high := histBucketBounds(i)
			out = append(out, Bucket{Low: low, High: high, Count: c})
		}
	}
	return out
}

func (d *denseHist) diff(o *denseHist) string {
	if d.n == 0 && o.n == 0 {
		return ""
	}
	out := ""
	if d.n != o.n || d.sum != o.sum || d.minOrZero() != o.minOrZero() || d.max != o.max {
		out += fmt.Sprintf("  count %d/%d sum %d/%d min %d/%d max %d/%d\n",
			d.n, o.n, d.sum, o.sum, d.minOrZero(), o.minOrZero(), d.max, o.max)
	}
	diffs := 0
	for i := 0; i < histBuckets && diffs < 8; i++ {
		if d.counts[i] != o.counts[i] {
			low, high := histBucketBounds(i)
			out += fmt.Sprintf("  bucket %d [%d,%d): %d != %d\n", i, low, high, d.counts[i], o.counts[i])
			diffs++
		}
	}
	return out
}

// denseExports renders ds the way WriteJSON and WriteCSV render a set.
func denseExports(t *testing.T, ds []*denseHist) (jsonOut, csvOut []byte) {
	t.Helper()
	all := make([]histJSON, 0, len(ds))
	var csv bytes.Buffer
	csv.WriteString("name,low,high,count,cum\n")
	for _, d := range ds {
		hj := histJSON{Name: d.name, Count: d.n, Sum: d.sum, Min: d.minOrZero(), Max: d.max}
		var cum int64
		for i, c := range d.counts {
			if c == 0 {
				continue
			}
			low, high := histBucketBounds(i)
			hj.Buckets = append(hj.Buckets, histBucketJSON{Bucket: i, Low: low, High: high, Count: c})
			cum += c
			fmt.Fprintf(&csv, "%s,%d,%d,%d,%d\n", d.name, low, high, c, cum)
		}
		all = append(all, hj)
	}
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n'), csv.Bytes()
}

// blockCount is how many octave blocks h holds.
func blockCount(h *Histogram) int {
	n := 0
	for _, b := range h.blocks {
		if b != nil {
			n++
		}
	}
	return n
}

// histSamples returns n fixed-seed samples whose bit lengths cover every
// octave, plus the edge values: zero, negatives (which clamp to zero)
// and MaxInt64.
func histSamples(seed int64, n int) []int64 {
	r := rand.New(rand.NewSource(seed))
	out := []int64{0, -1, -12345, math.MinInt64, math.MaxInt64}
	for len(out) < n {
		out = append(out, r.Int63()>>r.Intn(64))
	}
	return out
}

// TestHistogramMatchesDense pins the per-octave block storage to the
// dense reference: statistics, percentiles, buckets, merges in both
// directions, equality and diffs, and byte-equal exports and import, on
// samples spanning every octave. It also pins the footprint: samples in
// k octaves leave exactly k blocks.
func TestHistogramMatchesDense(t *testing.T) {
	sampleSets := map[string][]int64{
		"wide":   histSamples(1, 4000),
		"other":  histSamples(2, 3000),
		"narrow": {5, 7, 900, 901, 950, 1 << 20, 1<<20 + 3},
		"empty":  nil,
	}
	names := []string{"wide", "other", "narrow", "empty"}
	build := func(names ...string) (*HistogramSet, []*denseHist) {
		var set HistogramSet
		var ds []*denseHist
		for _, name := range names {
			h, d := set.Get(name), newDense(name)
			for _, v := range sampleSets[name] {
				h.Record(v)
				d.record(v)
			}
			ds = append(ds, d)
		}
		return &set, ds
	}
	check := func(label string, h *Histogram, d *denseHist) {
		t.Helper()
		if h.Count() != d.n || h.Sum() != d.sum || h.Min() != d.minOrZero() || h.Max() != d.max {
			t.Errorf("%s: count/sum/min/max %d/%d/%d/%d, dense %d/%d/%d/%d", label,
				h.Count(), h.Sum(), h.Min(), h.Max(), d.n, d.sum, d.minOrZero(), d.max)
		}
		for _, p := range []float64{0, 50, 90, 99, 100} {
			if got, want := h.Percentile(p), d.percentile(p); got != want {
				t.Errorf("%s: p%g = %d, dense %d", label, p, got, want)
			}
		}
		if got, want := h.Buckets(), d.buckets(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: buckets differ from dense:\n  %v\n  %v", label, got, want)
		}
		octaves := map[int]bool{}
		for i, c := range d.counts {
			if c != 0 {
				octaves[i>>histSubBits] = true
			}
		}
		if got := blockCount(h); got != len(octaves) {
			t.Errorf("%s: %d blocks for samples in %d octaves", label, got, len(octaves))
		}
	}

	set, ds := build(names...)
	if got := blockCount(set.Lookup("wide")); got != histOctaves {
		t.Fatalf("wide samples touch %d of %d octaves; the fixture must cover them all", got, histOctaves)
	}
	for i, h := range set.All() {
		check(h.Name(), h, ds[i])
	}

	// Merge in both directions, including into and from an empty one.
	for _, pair := range [][2]string{{"wide", "other"}, {"other", "wide"}, {"narrow", "wide"}, {"empty", "narrow"}, {"narrow", "empty"}} {
		a, da := build(pair[0])
		b, db := build(pair[1])
		ha, hb := a.All()[0], b.All()[0]
		if ha.Equal(hb) != (da[0].diff(db[0]) == "") {
			t.Errorf("%s vs %s: Equal = %v, dense diff %q", pair[0], pair[1], ha.Equal(hb), da[0].diff(db[0]))
		}
		if got, want := ha.Diff(hb), da[0].diff(db[0]); got != want {
			t.Errorf("%s vs %s: Diff\n%s\ndense\n%s", pair[0], pair[1], got, want)
		}
		ha.Merge(hb)
		da[0].merge(db[0])
		check(pair[0]+"+"+pair[1], ha, da[0])
	}
	again, _ := build(names...)
	if !set.Equal(again) || set.Diff(again) != "" {
		t.Errorf("identically built sets must be Equal:\n%s", set.Diff(again))
	}

	wantJSON, wantCSV := denseExports(t, ds)
	var gotJSON, gotCSV bytes.Buffer
	if err := set.WriteJSON(&gotJSON); err != nil {
		t.Fatal(err)
	}
	if err := set.WriteCSV(&gotCSV); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON.Bytes(), wantJSON) {
		t.Error("WriteJSON differs from the dense export")
	}
	if !bytes.Equal(gotCSV.Bytes(), wantCSV) {
		t.Error("WriteCSV differs from the dense export")
	}
	back, err := ReadHistogramsJSON(bytes.NewReader(wantJSON))
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(set) {
		t.Fatalf("round trip lost data:\n%s", back.Diff(set))
	}
	for i, h := range back.All() {
		check("read "+h.Name(), h, ds[i])
	}
	var reJSON bytes.Buffer
	if err := back.WriteJSON(&reJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reJSON.Bytes(), wantJSON) {
		t.Error("re-export of the imported set differs")
	}
}

// BenchmarkHistogramRecord records into a warm handle: every octave the
// loop reaches already holds a block, so it reports 0 B/op.
func BenchmarkHistogramRecord(b *testing.B) {
	var set HistogramSet
	h := set.Get("bench.lat_ps")
	vals := histSamples(1, 1024)
	for _, v := range vals {
		h.Record(v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Record(vals[i&1023])
	}
}

// BenchmarkHistogramFresh is what a run's fresh instruments cost: a new
// set of 15 histograms, each recorded once.
func BenchmarkHistogramFresh(b *testing.B) {
	names := make([]string, 15)
	for i := range names {
		names[i] = fmt.Sprintf("bench.h%d_ps", i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var set HistogramSet
		for j, name := range names {
			set.Get(name).Record(int64(j+1) * 1000)
		}
	}
}
