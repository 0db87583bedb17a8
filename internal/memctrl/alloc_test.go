package memctrl

import (
	"testing"

	"dramless/internal/obs"
	"dramless/internal/sim"
)

// TestObservedReadAllocationFree pins the instrumented memctrl hot path:
// with an observer attached, the steady-state read records its latency
// histogram sample and series points without allocating. The series
// window is stretched so window growth (amortized append, exercised
// elsewhere) stays out of the measurement; the bare-metal policy keeps the
// wave-building batcher (which allocates per call by design) off the
// path.
func TestObservedReadAllocationFree(t *testing.T) {
	cfg := testConfig(BareMetal)
	cfg.Obs = obs.New(obs.WithSeriesWindow(sim.Duration(1) << 60))
	sub := MustNew(cfg)

	dst := make([]byte, cfg.ChannelRequestBytes)
	// Warm: first read activates the row and registers every window.
	if _, err := sub.ReadInto(0, 0, dst); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := sub.ReadInto(sim.Microsecond, 0, dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("observed ReadInto allocates %.1f objects per call, want 0", allocs)
	}
}

// TestNilObserverReadAllocationFree pins the disabled state at the new
// call sites: the nil-handle chain (nil set -> nil histogram/series ->
// no-op Record) must not cost an allocation either.
func TestNilObserverReadAllocationFree(t *testing.T) {
	cfg := testConfig(BareMetal)
	sub := MustNew(cfg)

	dst := make([]byte, cfg.ChannelRequestBytes)
	if _, err := sub.ReadInto(0, 0, dst); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := sub.ReadInto(sim.Microsecond, 0, dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("unobserved ReadInto allocates %.1f objects per call, want 0", allocs)
	}
}
