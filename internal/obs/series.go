package obs

import (
	"fmt"
	"io"

	"dramless/internal/sim"
)

// DefaultSeriesWindow is the simulated-time window series accumulate
// over unless the Observer is built with WithSeriesWindow.
const DefaultSeriesWindow = 10 * sim.Microsecond

// maxWindows caps the windows one series holds, so a tiny window or a
// far-off timestamp costs a returned error instead of the host's memory.
// The longest `experiments -full` cell over all kinds, Integrated-TLC
// gemver at 2 MiB, ends at 2.196 s of simulated time: 219,642 windows at
// DefaultSeriesWindow. The cap is 41.9 s at that window, 19x that cell.
const maxWindows = 1 << 22

// Series accumulates a value per fixed simulated-time window: int64 for
// the Observer's instruments (bytes moved, hits, busy picoseconds, ...),
// float64 for the sampled IPC and power series. Windows are addressed by
// simulated time only — window index = t/window — so the contents are
// byte-deterministic and independent of host timing, worker count or
// recording order: every record is an add into the window its simulated
// timestamp selects. The window array grows on demand up to maxWindows;
// a sample at or past the cap is dropped and marks the series
// overflowed, which Err reports. All methods are nil-safe; a nil
// *Series is the disabled handle.
type Series[T int64 | float64] struct {
	name   string
	window sim.Duration
	vals   []T
	// over is the time of the first dropped sample, 0 while none was
	// (a sample past the cap is always at t > 0).
	over sim.Time
	// [lo, hi) is the window the last sample landed in and cur its
	// index (empty until the first sample). Samples within it, the
	// common case, skip the division that picks a window.
	lo, hi sim.Time
	cur    int
}

// NewSeries returns an empty series named name, accumulating over
// window (DefaultSeriesWindow when <= 0).
func NewSeries[T int64 | float64](name string, window sim.Duration) *Series[T] {
	if window <= 0 {
		window = DefaultSeriesWindow
	}
	return &Series[T]{name: name, window: window, vals: make([]T, 0, 64)}
}

// Name returns the instrument name.
func (s *Series[T]) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Window returns the accumulation window.
func (s *Series[T]) Window() sim.Duration {
	if s == nil {
		return 0
	}
	return s.window
}

// Len returns the number of windows touched so far (index of the last
// written window plus one).
func (s *Series[T]) Len() int {
	if s == nil {
		return 0
	}
	return len(s.vals)
}

// At returns window i's accumulated value.
func (s *Series[T]) At(i int) T {
	if s == nil || i < 0 || i >= len(s.vals) {
		return 0
	}
	return s.vals[i]
}

// Err reports a series that dropped samples at or past its cap, naming
// the series, its window and the first time that overflowed; nil
// otherwise.
func (s *Series[T]) Err() error {
	if s == nil || s.over == 0 {
		return nil
	}
	return fmt.Errorf("obs: series %q overflowed: a %v window holds %d windows (%v of simulated time), but a sample reached %v",
		s.name, s.window, maxWindows, sim.Time(maxWindows)*s.window, s.over)
}

// fits reports whether window i (the last one a sample touches) is
// under the cap, marking the series overflowed at time t when not.
func (s *Series[T]) fits(i, t sim.Time) bool {
	if i < maxWindows {
		return true
	}
	if s.over == 0 {
		s.over = t
	}
	return false
}

// grow extends the window array through index i. Amortized append keeps
// steady-state recording allocation-free once the run's time range has
// been touched.
func (s *Series[T]) grow(i int) {
	if n := i + 1 - len(s.vals); n > 0 {
		s.vals = append(s.vals, make([]T, n)...)
	}
}

// remember makes window i, which exists, the one samples test first.
func (s *Series[T]) remember(i sim.Time) {
	s.cur, s.lo, s.hi = int(i), i*s.window, (i+1)*s.window
}

// Add accumulates v into the window containing simulated time t.
// Negative times clamp to window 0. Nil-safe.
func (s *Series[T]) Add(t sim.Time, v T) {
	if s == nil {
		return
	}
	if t >= s.lo && t < s.hi {
		s.vals[s.cur] += v
		return
	}
	i := max(t, 0) / s.window
	if !s.fits(i, t) {
		return
	}
	s.grow(int(i))
	s.vals[i] += v
	s.remember(i)
}

// AddSpan distributes the interval [t0, t1) across the windows it
// overlaps, adding the overlap duration (picoseconds) to each — the
// primitive behind busy-fraction and stall-time series. Splitting is
// exact integer arithmetic, so any decomposition of an interval into
// sub-intervals accumulates identical window values (this is what makes
// the batched run-folding path's contiguous spans byte-equivalent to
// op-at-a-time recording). A span reaching past the cap is dropped
// whole. Nil-safe.
func (s *Series[T]) AddSpan(t0, t1 sim.Time) {
	if s == nil || t1 <= t0 {
		return
	}
	if t0 >= s.lo && t1 <= s.hi {
		s.vals[s.cur] += T(t1 - t0)
		return
	}
	if t0 < 0 {
		t0 = 0
	}
	w := s.window
	last := (t1 - 1) / w
	if !s.fits(last, t1) {
		return
	}
	s.grow(int(last))
	for i := t0 / w; t0 < t1; i++ {
		end := min((i+1)*w, t1)
		s.vals[i] += T(end - t0)
		t0 = end
	}
	s.remember(last)
}

// Spread distributes v over [t0, t1) in proportion to each window's
// overlap, v*(overlap/length) — the treatment for the energy or the
// instructions of an operation spanning many windows. An empty span
// (t1 == t0) adds v at t0; an inverted span or a zero v records
// nothing. A span reaching past the cap is dropped whole. Nil-safe.
func (s *Series[T]) Spread(t0, t1 sim.Time, v T) {
	if s == nil || t1 < t0 || (t1 > t0 && v == 0) {
		return
	}
	if t1 == t0 {
		s.Add(t0, v)
		return
	}
	w := s.window
	last := (t1 - 1) / w
	if !s.fits(last, t1) {
		return
	}
	s.grow(int(last))
	total := float64(t1 - t0)
	for i := max(t0, 0) / w; i <= last; i++ {
		lo, hi := max(i*w, t0), min((i+1)*w, t1)
		if hi > lo {
			s.vals[i] += T(float64(v) * (float64(hi-lo) / total)) // fraction first: v may be near MaxFloat64
		}
	}
}

// Merge accumulates other into s window by window and carries over its
// overflow. Series over different windows are different instruments:
// merging them is an error and leaves s unchanged.
func (s *Series[T]) Merge(other *Series[T]) error {
	if s == nil || other == nil {
		return nil
	}
	if s.window != other.window {
		return fmt.Errorf("obs: series %q: cannot merge a %v window into a %v window", s.name, other.window, s.window)
	}
	if s.over == 0 {
		s.over = other.over
	}
	s.grow(len(other.vals) - 1)
	for i, v := range other.vals {
		s.vals[i] += v
	}
	return nil
}

// Equal reports whether both series hold identical windows and the same
// overflow state. Trailing zero windows are insignificant: a series that
// never saw a late sample equals one that recorded a zero there.
func (s *Series[T]) Equal(other *Series[T]) bool { return s.diff(other) == "" }

func (s *Series[T]) key() string { return s.name }

// diff names the first differing window, or both window durations when
// the series hold data over different ones.
func (s *Series[T]) diff(o *Series[T]) string {
	if s.Window() != o.Window() && s.Len() > 0 && o.Len() > 0 {
		return fmt.Sprintf("  %s: window %d != %d\n", s.Name(), s.Window(), o.Window())
	}
	if (s.Err() == nil) != (o.Err() == nil) {
		return fmt.Sprintf("  %s: overflowed %t != %t\n", s.Name(), s.Err() != nil, o.Err() != nil)
	}
	for i := 0; i < max(s.Len(), o.Len()); i++ {
		if s.At(i) != o.At(i) {
			return fmt.Sprintf("  %s window %d: %v != %v\n", s.Name(), i, s.At(i), o.At(i))
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

func seriesToJSON(s *Series[int64]) seriesJSON {
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
	r      registry[*Series[int64]]
}

func (s *SeriesSet) reg() *registry[*Series[int64]] {
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
func (s *SeriesSet) Get(name string) *Series[int64] {
	return s.reg().get(name, func(n string) *Series[int64] { return NewSeries[int64](n, s.window) })
}

// Lookup returns the named series without registering it.
func (s *SeriesSet) Lookup(name string) *Series[int64] {
	sr, _ := s.reg().lookup(name)
	return sr
}

// Len returns how many series are registered.
func (s *SeriesSet) Len() int { return s.reg().len() }

// Names returns every registered name in registration order.
func (s *SeriesSet) Names() []string { return s.reg().names() }

// All returns the series in registration order. The slice is shared;
// callers must not mutate it.
func (s *SeriesSet) All() []*Series[int64] { return s.reg().all() }

// Err returns the first overflowed series' error in registration order,
// nil when none overflowed.
func (s *SeriesSet) Err() error {
	for _, sr := range s.All() {
		if err := sr.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Equal reports whether both sets hold the same series in the same
// order with identical windows.
func (s *SeriesSet) Equal(other *SeriesSet) bool { return s.reg().equal(other.reg()) }

// Diff returns a description of the first differences between two sets;
// empty when Equal.
func (s *SeriesSet) Diff(other *SeriesSet) string { return s.reg().diff(other.reg()) }

// MarshalJSON renders the set as an ordered array of series.
func (s *SeriesSet) MarshalJSON() ([]byte, error) {
	return exportJSON(s.All(), seriesToJSON)
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
