package obs

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"dramless/internal/sim"
)

func TestSeriesAddWindows(t *testing.T) {
	set := NewSeriesSet(100)
	s := set.Get("bytes")
	s.Add(0, 5)
	s.Add(99, 5)  // same window
	s.Add(100, 7) // next window
	s.Add(350, 1) // skips window 2
	s.Add(-10, 2) // clamps to window 0
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	want := []int64{12, 7, 0, 1}
	for i, w := range want {
		if got := s.At(i); got != w {
			t.Errorf("window %d = %d, want %d", i, got, w)
		}
	}
	if s.At(99) != 0 || s.At(-1) != 0 {
		t.Error("out-of-range At must read 0")
	}
}

// TestSeriesAddSpanDecomposition pins the property the batched datapath
// relies on: splitting an interval at arbitrary points accumulates
// exactly the same window values as adding it whole.
func TestSeriesAddSpanDecomposition(t *testing.T) {
	whole := NewSeriesSet(100).Get("w")
	split := NewSeriesSet(100).Get("w")

	whole.AddSpan(37, 912)
	for _, cut := range [][2]sim.Time{{37, 40}, {40, 199}, {199, 200}, {200, 650}, {650, 912}} {
		split.AddSpan(cut[0], cut[1])
	}
	if !whole.Equal(split) {
		t.Errorf("decomposed AddSpan differs: whole %v split %v", whole.vals, split.vals)
	}
	// Sum of window contributions equals the span length.
	var sum int64
	for i := 0; i < whole.Len(); i++ {
		sum += whole.At(i)
	}
	if sum != 912-37 {
		t.Errorf("span picoseconds = %d, want %d", sum, 912-37)
	}
	// Window-aligned and empty spans.
	aligned := NewSeriesSet(100).Get("w")
	aligned.AddSpan(200, 400)
	if aligned.At(1) != 0 || aligned.At(2) != 100 || aligned.At(3) != 100 {
		t.Errorf("aligned span landed wrong: %v", aligned.vals)
	}
	aligned.AddSpan(500, 500)
	aligned.AddSpan(500, 400)
	if aligned.Len() != 4 {
		t.Error("empty/inverted spans must not extend the series")
	}
}

func TestSeriesMergeEqual(t *testing.T) {
	a := NewSeriesSet(100)
	b := NewSeriesSet(100)
	a.Get("x").Add(0, 3)
	b.Get("x").Add(0, 3)
	// Trailing zeros are insignificant for Equal.
	b.Get("x").Add(500, 0)
	if !a.Equal(b) {
		t.Errorf("trailing zero windows must not break Equal:\n%s", a.Diff(b))
	}
	b.Get("x").Add(500, 1)
	if a.Equal(b) || a.Diff(b) == "" {
		t.Error("differing windows must fail Equal with a non-empty Diff")
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if got := a.Get("x").At(0); got != 6 {
		t.Errorf("merged window 0 = %d, want 6", got)
	}
	if got := a.Get("x").At(5); got != 1 {
		t.Errorf("merged window 5 = %d, want 1", got)
	}

	// Mismatched windows are different instruments: Merge must refuse
	// them with an error naming both windows, and not mix.
	c := NewSeriesSet(999)
	c.Get("x").Add(0, 100)
	if err := a.Merge(c); err == nil || !strings.Contains(err.Error(), "999ps") || !strings.Contains(err.Error(), "100ps") {
		t.Errorf("mismatched-window set merge: err = %v, want one naming both windows", err)
	}
	if err := a.Get("x").Merge(c.Get("x")); err == nil {
		t.Error("mismatched-window series merge must return an error")
	}
	if got := a.Get("x").At(0); got != 6 {
		t.Errorf("mismatched-window merge leaked values: window 0 = %d", got)
	}

	// Nil handles record and compare safely.
	var ns *Series[int64]
	ns.Add(0, 1)
	ns.AddSpan(0, 100)
	ns.Spread(0, 100, 1)
	if ns.Len() != 0 || !ns.Equal(nil) || ns.Merge(a.Get("x")) != nil || ns.Err() != nil {
		t.Error("nil series must stay empty and equal nil")
	}
}

func TestSeriesSetExport(t *testing.T) {
	set := NewSeriesSet(100)
	set.Get("b.second").Add(0, 1)
	set.Get("a.first").Add(250, 4)

	var csv bytes.Buffer
	if err := set.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	want := "window_start_ps,b.second,a.first\n" +
		"0,1,0\n100,0,0\n200,0,4\n"
	if csv.String() != want {
		t.Errorf("CSV export:\n%q\nwant:\n%q", csv.String(), want)
	}

	var j1, j2 bytes.Buffer
	if err := set.WriteJSON(&j1); err != nil {
		t.Fatal(err)
	}
	if err := set.WriteJSON(&j2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1.Bytes(), j2.Bytes()) {
		t.Error("repeated JSON exports differ")
	}
	if !strings.Contains(j1.String(), `"window_ps": 100`) {
		t.Errorf("JSON export missing window: %s", j1.String())
	}
}

// TestSeriesRecordAllocationFree pins steady-state Add/AddSpan at zero
// allocations once the run's time range has been touched.
func TestSeriesRecordAllocationFree(t *testing.T) {
	s := NewSeriesSet(100).Get("pin")
	s.Add(10_000, 1) // touch the range once; growth is amortized append
	allocs := testing.AllocsPerRun(200, func() {
		s.Add(5_000, 2)
		s.AddSpan(1_000, 2_000)
	})
	if allocs != 0 {
		t.Fatalf("steady-state series record allocates %.1f objects per call, want 0", allocs)
	}
	var ns *Series[int64]
	allocs = testing.AllocsPerRun(200, func() {
		ns.Add(1, 1)
		ns.AddSpan(0, 10)
	})
	if allocs != 0 {
		t.Fatalf("nil series record allocates %.1f objects per call, want 0", allocs)
	}
	f := NewSeries[float64]("pin", 100)
	f.Spread(0, 10_000, 1) // touch the range once
	allocs = testing.AllocsPerRun(200, func() {
		f.Spread(1_000, 2_500, 3)
		f.Add(5_000, 1)
		s.Add(maxWindows*100, 1) // past the cap: dropped
		s.AddSpan(0, maxWindows*100+1)
		f.Spread(0, maxWindows*100+1, 1)
	})
	if allocs != 0 {
		t.Fatalf("steady-state float / overflowing record allocates %.1f objects per call, want 0", allocs)
	}
}

// sum adds up a series' windows in index order.
func sum[T int64 | float64](s *Series[T]) T {
	var t T
	for i := 0; i < s.Len(); i++ {
		t += s.At(i)
	}
	return t
}

func TestSeriesAccumulate(t *testing.T) {
	ts := NewSeries[float64]("f", 10*sim.Nanosecond)
	ts.Add(5*sim.Nanosecond, 1)
	ts.Add(9*sim.Nanosecond, 2)
	ts.Add(10*sim.Nanosecond, 4)
	if ts.Len() != 2 {
		t.Fatalf("len = %d, want 2", ts.Len())
	}
	if ts.At(0) != 3 || ts.At(1) != 4 {
		t.Fatalf("windows = %v %v, want 3 4", ts.At(0), ts.At(1))
	}
	if sum(ts) != 7 {
		t.Fatalf("total = %v, want 7", sum(ts))
	}
}

func TestSeriesSpread(t *testing.T) {
	ts := NewSeries[float64]("f", 10*sim.Nanosecond)
	// 30 units over [5ns, 35ns): window 0 gets 5/30, window 1 10/30, ...
	ts.Spread(5*sim.Nanosecond, 35*sim.Nanosecond, 30)
	want := []float64{5, 10, 10, 5}
	for i, w := range want {
		if math.Abs(ts.At(i)-w) > 1e-9 {
			t.Fatalf("window %d = %v, want %v", i, ts.At(i), w)
		}
	}
	if math.Abs(sum(ts)-30) > 1e-9 {
		t.Fatalf("total = %v, want 30", sum(ts))
	}
	// An empty span lands whole at its start, even a zero; an inverted
	// span or a zero value over a real span records nothing.
	ts.Spread(45*sim.Nanosecond, 45*sim.Nanosecond, 0)
	ts.Spread(60*sim.Nanosecond, 50*sim.Nanosecond, 1)
	ts.Spread(70*sim.Nanosecond, 90*sim.Nanosecond, 0)
	if ts.Len() != 5 || ts.At(4) != 0 {
		t.Fatalf("after empty/inverted/zero spreads: len %d, window 4 = %v; want 5, 0", ts.Len(), ts.At(4))
	}
}

// Property: Spread conserves mass for arbitrary windows.
func TestSpreadConservesMassProperty(t *testing.T) {
	f := func(start uint16, length uint16, v float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		ts := NewSeries[float64]("f", 7*sim.Nanosecond)
		t0 := sim.Time(start)
		t1 := t0 + sim.Time(length)
		ts.Spread(t0, t1, v)
		return math.Abs(sum(ts)-v) <= 1e-9*math.Max(1, math.Abs(v))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSeriesCap pins the window cap: a sample at or past it is dropped
// without growing the series, and the first one is reported by Err,
// carried through Merge and SeriesSet.Err.
func TestSeriesCap(t *testing.T) {
	set := NewSeriesSet(1)
	s := set.Get("tiny")
	s.Add(10, 1)
	if s.Err() != nil || set.Err() != nil {
		t.Fatal("in-range sample reported an overflow")
	}
	s.Add(maxWindows, 5)
	s.AddSpan(5, 2*maxWindows) // straddles the cap: dropped whole
	s.Add(3*maxWindows, 5)
	if s.Len() != 11 || sum(s) != 1 {
		t.Fatalf("overflowing samples landed: len %d, sum %d", s.Len(), sum(s))
	}
	err := set.Err()
	for _, want := range []string{`"tiny"`, "1ps window", "4194304 windows", "4.194us"} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Err() = %v, want it to name %s", err, want)
		}
	}

	f := NewSeries[float64]("f", sim.Microsecond)
	f.Spread(0, maxWindows*sim.Microsecond+1, 1)
	if f.Len() != 0 || f.Err() == nil {
		t.Errorf("span past the cap: len %d, err %v; want 0 and an error", f.Len(), f.Err())
	}
	g := NewSeries[float64]("f", sim.Microsecond)
	if err := g.Merge(f); err != nil || g.Err() == nil {
		t.Errorf("Merge must carry the overflow: merge err %v, Err %v", err, g.Err())
	}
	if g.Equal(NewSeries[float64]("f", sim.Microsecond)) {
		t.Error("an overflowed series must not equal a clean one")
	}
}

// FuzzSeries checks the series primitives on both element types: Add,
// AddSpan and Spread calls decoded from ops (7 bytes each: op, start,
// length, value, far flags) over a window from 1 ps up. A far time sits
// past the window cap, so the cap is reached without growing a series
// anywhere near it.
func FuzzSeries(f *testing.F) {
	f.Add(uint32(100), []byte{0, 10, 0, 50, 0, 3, 0, 1, 37, 0, 100, 3, 0, 0, 2, 5, 0, 200, 0, 7, 0})
	f.Add(uint32(0), []byte{1, 200, 3, 200, 1, 1, 0, 2, 0, 0, 255, 255, 9, 0})
	f.Add(uint32(6), []byte{1, 10, 0, 10, 0, 0, 2, 2, 10, 0, 0, 1, 250, 3, 0, 1, 0, 0, 0, 1, 1})
	f.Fuzz(func(t *testing.T, window uint32, ops []byte) {
		w := sim.Duration(window%(1<<20)) + 1
		ints := NewSeries[int64]("i", w)
		floats := NewSeries[float64]("f", w)
		over := false
		past := func(t sim.Time) bool { return t > 0 && t/w >= maxWindows }
		for ; len(ops) >= 7; ops = ops[7:] {
			far := func(bit byte) sim.Time {
				if ops[6]&bit != 0 {
					return maxWindows * w
				}
				return 0
			}
			// Times span about 1000 windows at any window, at any
			// alignment, starting 16 windows before 0.
			t0 := sim.Time(binary.LittleEndian.Uint16(ops[1:]))*w/64 - 16*w + far(1)
			t1 := t0 + sim.Time(binary.LittleEndian.Uint16(ops[3:]))*w/64 - 2*w + far(2)
			v := int64(int8(ops[5]))
			switch ops[0] % 3 {
			case 0:
				ints.Add(t0, v)
				floats.Add(t0, float64(v)/7)
				over = over || past(t0)
			case 1:
				ints.AddSpan(t0, t1)
				floats.AddSpan(t0, t1)
				spanOver := t1 > t0 && past(t1-1)
				over = over || spanOver
				if spanOver || t1 <= t0 {
					break
				}
				// Exact mass, and any split gives identical windows.
				whole, split := NewSeries[int64]("w", w), NewSeries[int64]("w", w)
				whole.AddSpan(t0, t1)
				cut := t0 + (t1-t0)*sim.Time(ops[5])/255
				split.AddSpan(t0, cut)
				split.AddSpan(cut, t1)
				if want := max(int64(t1-max(t0, 0)), 0); sum(whole) != want {
					t.Fatalf("AddSpan(%d, %d) over %d: mass %d, want %d", t0, t1, w, sum(whole), want)
				}
				if !whole.Equal(split) {
					t.Fatalf("AddSpan(%d, %d) split at %d differs: %s", t0, t1, cut, whole.diff(split))
				}
			case 2:
				fv := float64(v) / 7
				ints.Spread(t0, t1, v)
				floats.Spread(t0, t1, fv)
				spanOver := (t1 == t0 && past(t0)) || (t1 > t0 && v != 0 && past(t1-1))
				over = over || spanOver
				if spanOver || t1 < t0 || t0 < 0 {
					break
				}
				one := NewSeries[float64]("s", w)
				one.Spread(t0, t1, fv)
				if math.Abs(sum(one)-fv) > 1e-9*math.Max(1, math.Abs(fv)) {
					t.Fatalf("Spread(%d, %d, %v) over %d: mass %v", t0, t1, fv, w, sum(one))
				}
			}
		}
		for _, s := range []interface {
			Len() int
			Err() error
		}{ints, floats} {
			if s.Len() > maxWindows {
				t.Fatalf("Len %d exceeds the cap %d", s.Len(), maxWindows)
			}
			if (s.Err() != nil) != over {
				t.Fatalf("overflow reported %v, want %v", s.Err(), over)
			}
		}
	})
}
