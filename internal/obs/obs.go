// Package obs is the observability layer of the simulator: a
// deterministic Counters registry (typed counters and gauges, named per
// subsystem) and a Tracer that records simulated-time spans and exports
// them as Chrome chrome://tracing JSON.
//
// The layer is zero-overhead when disabled. Every recording entry point
// is nil-safe — calling Span on a nil *Tracer or reading a nil *Observer
// returns immediately — so model code threads observer handles
// unconditionally and pays one predictable nil check on the hot path
// when observation is off (pinned by TestNilObserverAllocationFree).
//
// Determinism: counters are collected from single-goroutine simulation
// state in fixed code order, and spans are recorded in the
// simulation's deterministic call order, so identical runs produce
// identical counter sets and byte-identical trace exports.
package obs

import (
	"fmt"
	"io"

	"dramless/internal/sim"
)

// Kind distinguishes the typed registry entries.
type Kind uint8

const (
	// KindCounter is a monotonically accumulated int64 (events, bytes,
	// picoseconds of busy time).
	KindCounter Kind = iota
	// KindGauge is a point-in-time float64 (hit rates, utilizations).
	KindGauge
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Entry is one named registry value.
type Entry struct {
	Name  string
	Kind  Kind
	Int   int64   // counter value (KindCounter)
	Float float64 // gauge value (KindGauge)
}

// Counters is an ordered registry of named counters and gauges. The zero
// value is ready to use. Names are dotted per-subsystem paths
// ("memctrl.ch0.rdb_hits", "accel.pe3.busy_ps"); entries keep their
// registration order, which is deterministic because every collector
// walks its components in fixed code order.
type Counters struct{ r registry[Entry] }

func (c *Counters) reg() *registry[Entry] {
	if c == nil {
		return nil
	}
	return &c.r
}

func (e Entry) key() string { return e.Name }

// merge adds a counter and overwrites with a gauge.
func (e Entry) merge(o Entry) Entry {
	switch o.Kind {
	case KindCounter:
		e.Int += o.Int
	case KindGauge:
		e.Float = o.Float
	}
	return e
}

// diff reports a kind mismatch (a gauge in one registry, a counter in
// the other) or the two values. Gauges compare exactly: the determinism
// guarantee is bit-identical floats, not approximate ones.
func (e Entry) diff(o Entry) string {
	switch {
	case e.Kind != o.Kind:
		return fmt.Sprintf("  %s: %s != %s\n", e.Name, e.Kind, o.Kind)
	case e.Int != o.Int || e.Float != o.Float:
		return fmt.Sprintf("  %s: %d/%g != %d/%g\n", e.Name, e.Int, e.Float, o.Int, o.Float)
	}
	return ""
}

// fresh is the empty entry a new name registers with: e's name and kind.
func (e Entry) fresh() Entry { return Entry{Name: e.Name, Kind: e.Kind} }

// Add accumulates delta into the named counter, registering it on first
// use. Nil-safe.
func (c *Counters) Add(name string, delta int64) {
	put(c.reg(), Entry{Name: name, Kind: KindCounter, Int: delta}, Entry.fresh)
}

// SetGauge sets the named gauge, registering it on first use. Nil-safe.
func (c *Counters) SetGauge(name string, v float64) {
	put(c.reg(), Entry{Name: name, Kind: KindGauge, Float: v}, Entry.fresh)
}

// Get returns the named counter's value (0 when absent).
func (c *Counters) Get(name string) int64 {
	e, _ := c.reg().lookup(name)
	return e.Int
}

// Gauge returns the named gauge's value (0 when absent).
func (c *Counters) Gauge(name string) float64 {
	e, _ := c.reg().lookup(name)
	return e.Float
}

// Has reports whether name is registered.
func (c *Counters) Has(name string) bool {
	_, ok := c.reg().lookup(name)
	return ok
}

// Len returns how many entries are registered.
func (c *Counters) Len() int { return c.reg().len() }

// Entries returns the registry in registration order. The slice is
// shared; callers must not mutate it.
func (c *Counters) Entries() []Entry { return c.reg().all() }

// Names returns every registered name in registration order.
func (c *Counters) Names() []string { return c.reg().names() }

// Reserve sizes an empty registry for n entries, so registering them
// allocates its index and entry list once instead of growing both by
// doubling. It does nothing to a registry that holds entries. Nil-safe.
func (c *Counters) Reserve(n int) { c.reg().reserve(n) }

// Merge accumulates other into c: counters add, gauges overwrite. New
// names register at the tail in other's order.
func (c *Counters) Merge(other *Counters) {
	merge(c.reg(), other.reg(), Entry.fresh)
}

// Equal reports whether both registries hold the same entries in the
// same order with identical values.
func (c *Counters) Equal(other *Counters) bool { return c.reg().equal(other.reg()) }

// Diff returns a human-readable description of the first few differences
// between two registries (for test failure messages); empty when Equal.
// Names are reported in sorted order so the output is deterministic
// regardless of registration order; kind mismatches and pure
// registration-order skew are both reported.
func (c *Counters) Diff(other *Counters) string { return c.reg().diff(other.reg()) }

// WriteTo renders the registry as an aligned text table in registration
// order.
func (c *Counters) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for _, e := range c.Entries() {
		var n int
		var err error
		switch e.Kind {
		case KindGauge:
			n, err = fmt.Fprintf(w, "%-40s %14.4f\n", e.Name, e.Float)
		default:
			n, err = fmt.Fprintf(w, "%-40s %14d\n", e.Name, e.Int)
		}
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// counterJSON is one entry in the JSON export.
type counterJSON struct {
	Name  string   `json:"name"`
	Kind  string   `json:"kind"`
	Value *int64   `json:"value,omitempty"`
	Gauge *float64 `json:"gauge,omitempty"`
}

// MarshalJSON renders the registry as an ordered array of entries.
func (c *Counters) MarshalJSON() ([]byte, error) {
	return exportJSON(c.Entries(), func(e Entry) counterJSON {
		je := counterJSON{Name: e.Name, Kind: e.Kind.String()}
		switch e.Kind {
		case KindGauge:
			g := e.Float
			je.Gauge = &g
		default:
			v := e.Int
			je.Value = &v
		}
		return je
	})
}

// Observer is the handle model code threads through the stack: a
// Counters registry that accumulates across observed runs and an
// optional Tracer for the simulated-time timeline. A nil *Observer is
// the disabled state — every accessor returns the corresponding nil
// handle and recording becomes a no-op.
//
// An Observer is not safe for concurrent use: attach it to runs that
// execute one at a time (the parallel experiment engine never attaches
// observers to its pooled simulations).
type Observer struct {
	counters Counters
	tracer   *Tracer
	hists    HistogramSet
	series   *SeriesSet
	blame    Blame
}

// Option customizes New.
type Option func(*Observer)

// WithTracing enables simulated-time span recording (Chrome trace
// export). Without it the Observer only accumulates counters.
func WithTracing() Option {
	return func(o *Observer) { o.tracer = NewTracer() }
}

// WithSeriesWindow sets the simulated-time window the Observer's series
// accumulate over (DefaultSeriesWindow otherwise). It must precede any
// recording: handles resolve their window at registration.
func WithSeriesWindow(window sim.Duration) Option {
	return func(o *Observer) { o.series = NewSeriesSet(window) }
}

// New builds an Observer.
func New(opts ...Option) *Observer {
	o := &Observer{}
	for _, fn := range opts {
		fn(o)
	}
	if o.series == nil {
		o.series = NewSeriesSet(DefaultSeriesWindow)
	}
	return o
}

// Tracer returns the span recorder, nil when tracing is disabled or o is
// nil. The nil result is itself safe to record against.
func (o *Observer) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.tracer
}

// Counters returns the accumulated registry (nil when o is nil; the nil
// registry is safe to read).
func (o *Observer) Counters() *Counters {
	if o == nil {
		return nil
	}
	return &o.counters
}

// Record merges one run's counter snapshot into the Observer's registry.
// Nil-safe on both sides.
func (o *Observer) Record(c *Counters) {
	if o == nil {
		return
	}
	o.counters.Merge(c)
}

// Blame returns the accumulated time-blame account set (nil when o is
// nil; the nil set is safe to read and record against).
func (o *Observer) Blame() *Blame {
	if o == nil {
		return nil
	}
	return &o.blame
}

// RecordBlame merges one run's blame accounts into the Observer's set.
// Nil-safe on both sides.
func (o *Observer) RecordBlame(b *Blame) {
	if o == nil {
		return
	}
	o.blame.Merge(b)
}

// Histograms returns the Observer's latency-histogram registry, nil
// when o is nil. The nil set hands out nil (safely recordable)
// histogram handles, so instrument sites resolve unconditionally.
func (o *Observer) Histograms() *HistogramSet {
	if o == nil {
		return nil
	}
	return &o.hists
}

// Series returns the Observer's windowed time-series registry, nil when
// o is nil (the nil set hands out nil handles).
func (o *Observer) Series() *SeriesSet {
	if o == nil {
		return nil
	}
	return o.series
}

// WriteTrace exports the recorded timeline as Chrome trace JSON. It
// errors when tracing was not enabled.
func (o *Observer) WriteTrace(w io.Writer) error {
	t := o.Tracer()
	if t == nil {
		return fmt.Errorf("obs: observer has no tracer (build it with WithTracing)")
	}
	return t.WriteChromeJSON(w)
}
