package obs

import (
	"fmt"
	"io"

	"dramless/internal/sim"
)

// DefaultSeriesWindow is the simulated-time window series accumulate
// over unless the Observer is built with WithSeriesWindow.
const DefaultSeriesWindow = 10 * sim.Microsecond

// Series accumulates an int64 value per fixed simulated-time window
// (bytes moved, hits, busy picoseconds, ...). Windows are addressed by
// simulated time only — window index = t/window — so the contents are
// byte-deterministic and independent of host timing, worker count or
// recording order: every record is an integer add into the window its
// simulated timestamp selects. All methods are nil-safe; a nil *Series
// is the disabled handle.
type Series struct {
	name   string
	window sim.Duration
	vals   []int64
}

func newSeries(name string, window sim.Duration) *Series {
	if window <= 0 {
		window = DefaultSeriesWindow
	}
	return &Series{name: name, window: window, vals: make([]int64, 0, 64)}
}

// Name returns the instrument name.
func (s *Series) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Window returns the accumulation window.
func (s *Series) Window() sim.Duration {
	if s == nil {
		return 0
	}
	return s.window
}

// Len returns the number of windows touched so far (index of the last
// written window plus one).
func (s *Series) Len() int {
	if s == nil {
		return 0
	}
	return len(s.vals)
}

// At returns window i's accumulated value.
func (s *Series) At(i int) int64 {
	if s == nil || i < 0 || i >= len(s.vals) {
		return 0
	}
	return s.vals[i]
}

// grow extends the window array through index i. Amortized append keeps
// steady-state recording allocation-free once the run's time range has
// been touched.
func (s *Series) grow(i int) {
	for len(s.vals) <= i {
		s.vals = append(s.vals, 0)
	}
}

// Add accumulates v into the window containing simulated time t.
// Negative times clamp to window 0. Nil-safe.
func (s *Series) Add(t sim.Time, v int64) {
	if s == nil {
		return
	}
	i := 0
	if t > 0 {
		i = int(t / sim.Time(s.window))
	}
	s.grow(i)
	s.vals[i] += v
}

// AddSpan distributes the interval [t0, t1) across the windows it
// overlaps, adding the overlap duration (picoseconds) to each — the
// primitive behind busy-fraction and stall-time series. Splitting is
// exact integer arithmetic, so any decomposition of an interval into
// sub-intervals accumulates identical window values (this is what makes
// the batched run-folding path's contiguous spans byte-equivalent to
// op-at-a-time recording). Nil-safe.
func (s *Series) AddSpan(t0, t1 sim.Time) {
	if s == nil || t1 <= t0 {
		return
	}
	if t0 < 0 {
		t0 = 0
	}
	w := sim.Time(s.window)
	for t0 < t1 {
		i := int(t0 / w)
		edge := (sim.Time(i) + 1) * w
		end := t1
		if edge < end {
			end = edge
		}
		s.grow(i)
		s.vals[i] += int64(end - t0)
		t0 = end
	}
}

// Merge accumulates other into s window by window. Both series must use
// the same window; mismatched windows are ignored (they are different
// instruments).
func (s *Series) Merge(other *Series) {
	if s == nil || other == nil || s.window != other.window {
		return
	}
	s.grow(len(other.vals) - 1)
	for i, v := range other.vals {
		s.vals[i] += v
	}
}

// Equal reports whether both series hold identical windows. Trailing
// zero windows are insignificant: a series that never saw a late sample
// equals one that recorded a zero there.
func (s *Series) Equal(other *Series) bool { return s.diff(other) == "" }

func (s *Series) key() string { return s.name }

func (s *Series) merge(o *Series) *Series {
	s.Merge(o)
	return s
}

// diff names the first differing window, or both window durations when
// the series hold data over different ones.
func (s *Series) diff(o *Series) string {
	if s.Window() != o.Window() && s.Len() > 0 && o.Len() > 0 {
		return fmt.Sprintf("  %s: window %d != %d\n", s.Name(), s.Window(), o.Window())
	}
	for i := 0; i < max(s.Len(), o.Len()); i++ {
		if s.At(i) != o.At(i) {
			return fmt.Sprintf("  %s window %d: %d != %d\n", s.Name(), i, s.At(i), o.At(i))
		}
	}
	return ""
}

// seriesJSON is one series in the JSON export.
type seriesJSON struct {
	Name     string  `json:"name"`
	WindowPS int64   `json:"window_ps"`
	Values   []int64 `json:"values"`
}

func (s *Series) toJSON() seriesJSON {
	vals := s.vals
	if vals == nil {
		vals = []int64{}
	}
	return seriesJSON{Name: s.name, WindowPS: int64(s.window), Values: vals}
}

// SeriesSet is an ordered registry of named series sharing one window,
// with the same stable-handle contract as HistogramSet.
type SeriesSet struct {
	window sim.Duration
	r      registry[*Series]
}

func (s *SeriesSet) reg() *registry[*Series] {
	if s == nil {
		return nil
	}
	return &s.r
}

// NewSeriesSet returns a set whose series accumulate over window
// (DefaultSeriesWindow when <= 0).
func NewSeriesSet(window sim.Duration) *SeriesSet {
	if window <= 0 {
		window = DefaultSeriesWindow
	}
	return &SeriesSet{window: window}
}

// Window returns the set's accumulation window.
func (s *SeriesSet) Window() sim.Duration {
	if s == nil {
		return 0
	}
	return s.window
}

// Get returns the named series, registering it on first use. A nil set
// returns a nil (safely recordable) handle.
func (s *SeriesSet) Get(name string) *Series {
	return s.reg().get(name, func(n string) *Series { return newSeries(n, s.window) })
}

// Lookup returns the named series without registering it.
func (s *SeriesSet) Lookup(name string) *Series {
	sr, _ := s.reg().lookup(name)
	return sr
}

// Len returns how many series are registered.
func (s *SeriesSet) Len() int { return s.reg().len() }

// Names returns every registered name in registration order.
func (s *SeriesSet) Names() []string { return s.reg().names() }

// All returns the series in registration order. The slice is shared;
// callers must not mutate it.
func (s *SeriesSet) All() []*Series { return s.reg().all() }

// Merge accumulates other's series into s, registering new names at the
// tail in other's order. Sets must share a window for values to land.
func (s *SeriesSet) Merge(other *SeriesSet) {
	s.reg().merge(other.reg(), func(sr *Series) *Series { return newSeries(sr.name, s.window) })
}

// Equal reports whether both sets hold the same series in the same
// order with identical windows.
func (s *SeriesSet) Equal(other *SeriesSet) bool { return s.reg().equal(other.reg()) }

// Diff returns a description of the first differences between two sets;
// empty when Equal.
func (s *SeriesSet) Diff(other *SeriesSet) string { return s.reg().diff(other.reg()) }

// MarshalJSON renders the set as an ordered array of series.
func (s *SeriesSet) MarshalJSON() ([]byte, error) {
	return exportJSON(s.All(), (*Series).toJSON)
}

// WriteJSON writes the set as indented JSON (the `-series file.json`
// format).
func (s *SeriesSet) WriteJSON(w io.Writer) error { return writeIndented(w, s) }

// WriteCSV writes one table: window_start_ps followed by one column per
// series, rows padded with zeros to the longest series.
func (s *SeriesSet) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w, "window_start_ps"); err != nil {
		return err
	}
	rows := 0
	for _, sr := range s.All() {
		if _, err := fmt.Fprintf(w, ",%s", sr.name); err != nil {
			return err
		}
		if sr.Len() > rows {
			rows = sr.Len()
		}
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}
	for i := 0; i < rows; i++ {
		if _, err := fmt.Fprintf(w, "%d", sim.Time(i)*sim.Time(s.Window())); err != nil {
			return err
		}
		for _, sr := range s.All() {
			if _, err := fmt.Fprintf(w, ",%d", sr.At(i)); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}
