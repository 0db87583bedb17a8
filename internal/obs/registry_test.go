package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"slices"
	"testing"

	"dramless/internal/sim"
)

// family is the method set every ordered named registry shares.
type family[R any] interface {
	Len() int
	Equal(R) bool
	Diff(R) string
	MarshalJSON() ([]byte, error)
}

// familyCase describes one registry family to the contract test.
type familyCase[R family[R]] struct {
	empty func() R
	// merge merges src into dst; nil for the families that do not merge
	// (HistogramSet, SeriesSet).
	merge func(dst, src R)
	// fill records one instrument per name, in order, with values
	// weight(name)*k, so fills in any order with the same k agree.
	fill  func(r R, names []string, k int64)
	names func(R) []string
	// reads calls every exported read method (and recording entry point)
	// on r; the contract runs it on a nil receiver.
	reads func(R)
	// edge, when set, returns two registries that differ only in a
	// detail of the family's element (not in the values fill varies).
	edge func() (a, b R)
}

// TestRegistryFamilyContract pins the behaviour the four registries
// (Counters, HistogramSet, SeriesSet, Blame) share: nil receivers read as
// empty, merging into an empty registry reproduces the source (for the
// two that merge), Diff is empty exactly when Equal holds
// (registration-order skew included) and the indented export is the
// compact export indented.
func TestRegistryFamilyContract(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(*testing.T)
	}{
		{"Counters", func(t *testing.T) {
			testFamily(t, familyCase[*Counters]{
				merge: (*Counters).Merge,
				empty: func() *Counters { return &Counters{} },
				fill: func(c *Counters, names []string, k int64) {
					for _, n := range names {
						if weight(n)%2 == 0 {
							c.Add(n, k*weight(n))
						} else {
							c.SetGauge(n, float64(k)/float64(weight(n)))
						}
					}
				},
				names: (*Counters).Names,
				reads: func(c *Counters) {
					c.Add("x", 1)
					c.SetGauge("y", 1)
					_, _, _ = c.Get("x"), c.Gauge("y"), c.Has("x")
					_, _ = c.Entries(), c.Names()
					_, _ = c.WriteTo(io.Discard)
				},
				// A zero counter against a zero gauge: only the kind differs.
				edge: func() (*Counters, *Counters) {
					a, b := &Counters{}, &Counters{}
					a.Add("x", 0)
					b.SetGauge("x", 0)
					return a, b
				},
			})
		}},
		{"HistogramSet", func(t *testing.T) {
			testFamily(t, familyCase[*HistogramSet]{
				empty: func() *HistogramSet { return &HistogramSet{} },
				fill: func(s *HistogramSet, names []string, k int64) {
					for _, n := range names {
						h := s.Get(n)
						for v := int64(0); v < 5; v++ {
							h.Record(k * (v + weight(n)) * 1000)
						}
					}
				},
				names: (*HistogramSet).Names,
				reads: func(s *HistogramSet) {
					s.Get("x").Record(1)
					_, _, _ = s.Lookup("x"), s.Names(), s.All()
					_ = s.WriteCSV(io.Discard)
				},
				// Same count, sum and buckets; only min and max differ.
				edge: func() (*HistogramSet, *HistogramSet) {
					a, b := &HistogramSet{}, &HistogramSet{}
					a.Get("x").Record(1000)
					a.Get("x").Record(1002)
					b.Get("x").Record(1001)
					b.Get("x").Record(1001)
					return a, b
				},
			})
		}},
		{"SeriesSet", func(t *testing.T) {
			testFamily(t, familyCase[*SeriesSet]{
				empty: func() *SeriesSet { return NewSeriesSet(100) },
				fill: func(s *SeriesSet, names []string, k int64) {
					for _, n := range names {
						sr := s.Get(n)
						sr.Add(50, k)
						sr.AddSpan(120, sim.Time(120+k*weight(n)*70))
					}
				},
				names: (*SeriesSet).Names,
				reads: func(s *SeriesSet) {
					s.Get("x").Add(0, 1)
					_, _, _, _ = s.Window(), s.Lookup("x"), s.Names(), s.All()
					_ = s.WriteCSV(io.Discard)
				},
				// Same values over different windows.
				edge: func() (*SeriesSet, *SeriesSet) {
					a, b := NewSeriesSet(100), NewSeriesSet(200)
					a.Get("x").Add(0, 1)
					b.Get("x").Add(0, 1)
					return a, b
				},
			})
		}},
		{"Blame", func(t *testing.T) {
			testFamily(t, familyCase[*Blame]{
				merge: (*Blame).Merge,
				empty: NewBlame,
				fill: func(b *Blame, names []string, k int64) {
					for _, n := range names {
						b.Add("kernel/"+n, k*weight(n))
					}
				},
				names: func(b *Blame) []string {
					var out []string
					for _, e := range b.Entries() {
						out = append(out, e.Name)
					}
					return out
				},
				reads: func(b *Blame) {
					b.Add("kernel/x", 1)
					_, _, _ = b.Get("kernel/x"), b.Entries(), b.Sum("kernel/")
					_ = b.TopShares("kernel/", 2)
					_ = b.WriteTree(io.Discard, nil)
				},
			})
		}},
	} {
		t.Run(tc.name, tc.run)
	}
}

func testFamily[R family[R]](t *testing.T, c familyCase[R]) {
	order := []string{"z.second", "a.first", "m.third", "b.fourth"}
	src := c.empty()
	c.fill(src, order, 3)

	// Nil receivers read as empty and ignore merges.
	var nilR R
	c.reads(nilR)
	if c.merge != nil {
		c.merge(nilR, src)
		c.merge(c.empty(), nilR)
	}
	if nilR.Len() != 0 || c.names(nilR) != nil {
		t.Errorf("nil registry: Len %d, names %v", nilR.Len(), c.names(nilR))
	}
	if !nilR.Equal(c.empty()) || !c.empty().Equal(nilR) || nilR.Diff(c.empty()) != "" {
		t.Error("a nil registry must equal an empty one")
	}
	if b, err := nilR.MarshalJSON(); err != nil || string(b) != "[]" {
		t.Errorf("nil MarshalJSON = %q, %v; want []", b, err)
	}

	// Merging into an empty registry reproduces the source.
	if c.merge != nil {
		dst := c.empty()
		c.merge(dst, src)
		if !dst.Equal(src) || dst.Diff(src) != "" {
			t.Errorf("merge into empty differs from source:\n%s", dst.Diff(src))
		}
		if got, want := c.names(dst), c.names(src); !slices.Equal(got, want) || len(got) != len(order) {
			t.Errorf("merged names %v, want %v", got, want)
		}
		sj, err := src.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if dj, err := dst.MarshalJSON(); err != nil || !bytes.Equal(dj, sj) {
			t.Errorf("merged export differs (err %v):\n%s\nwant:\n%s", err, dj, sj)
		}
	}

	// Diff is empty exactly when Equal holds.
	differ := func(what string, other R) {
		t.Helper()
		if src.Equal(other) || other.Equal(src) {
			t.Errorf("%s: must not be Equal", what)
		}
		if src.Diff(other) == "" || other.Diff(src) == "" {
			t.Errorf("%s: Diff must be non-empty when Equal is false", what)
		}
	}
	same := c.empty()
	c.fill(same, order, 3)
	if !src.Equal(same) || src.Diff(same) != "" {
		t.Errorf("identical fills must be Equal:\n%s", src.Diff(same))
	}
	skew := c.empty()
	c.fill(skew, []string{order[1], order[0], order[2], order[3]}, 3)
	differ("registration-order skew", skew)
	values := c.empty()
	c.fill(values, order, 5)
	differ("value mismatch", values)
	renamed := c.empty() // same values, one name differs
	c.fill(renamed, []string{"z.other", order[1], order[2], order[3]}, 3)
	differ("renamed instrument", renamed)
	longer := c.empty()
	c.fill(longer, append(slices.Clone(order), "y.extra"), 3)
	differ("extra instrument", longer)
	if c.edge != nil {
		a, b := c.edge()
		if a.Equal(b) || b.Equal(a) {
			t.Error("element detail: must not be Equal")
		}
		if a.Diff(b) == "" || b.Diff(a) == "" {
			t.Error("element detail: Diff must be non-empty when Equal is false")
		}
	}

	// The indented export is the compact export, indented.
	for _, r := range []R{nilR, c.empty(), src} {
		w, ok := any(r).(interface{ WriteJSON(io.Writer) error })
		if !ok {
			break
		}
		compact, err := r.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var want, got bytes.Buffer
		if err := json.Indent(&want, compact, "", "  "); err != nil {
			t.Fatal(err)
		}
		want.WriteByte('\n')
		if err := w.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("WriteJSON:\n%s\nwant:\n%s", got.Bytes(), want.Bytes())
		}
	}
}

// weight is the value an instrument named n records: a function of the
// name alone, so fills in different orders record the same values.
func weight(n string) int64 { return int64(n[0]-'a') + 1 }
