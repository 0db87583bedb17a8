package obs

import (
	"bytes"
	"math"
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

// TestHistogramRecordAllocationFree pins Record at zero allocations for
// both live and nil handles — the condition that lets every hot path
// record unconditionally.
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
