package memctrl

import (
	"testing"

	"dramless/internal/obs"
	"dramless/internal/sim"
)

// TestObservedReadAllocationFree pins the instrumented memctrl hot path
// under each of Figure 13's four policies (bare-metal issues every read
// as a one-request wave, the others batch requests into overlapping
// waves; both go through readWave): with an observer attached, the steady-state
// read records its latency histogram sample and series points without
// allocating, and the wave issuer's scratch (wave tables, claim masks)
// is reused across calls. The series window is stretched so window
// growth (amortized append, exercised elsewhere) stays out of the
// measurement.
func TestObservedReadAllocationFree(t *testing.T) {
	for _, pp := range paperPolicies {
		t.Run(pp.label, func(t *testing.T) {
			cfg := testConfig(pp.p)
			cfg.Obs = obs.New(obs.WithSeriesWindow(sim.Duration(1) << 60))
			assertReadAllocationFree(t, MustNew(cfg), cfg.ChannelRequestBytes)
		})
	}
}

// TestNilObserverReadAllocationFree pins the disabled state at the same
// call sites: the nil-handle chain (nil set -> nil histogram/series ->
// no-op Record) must not cost an allocation either.
func TestNilObserverReadAllocationFree(t *testing.T) {
	for _, pp := range paperPolicies {
		t.Run(pp.label, func(t *testing.T) {
			cfg := testConfig(pp.p)
			assertReadAllocationFree(t, MustNew(cfg), cfg.ChannelRequestBytes)
		})
	}
}

// assertReadAllocationFree warms sub with one read (the first activates
// the row and sizes every scratch buffer), then requires the repeated
// read to allocate nothing.
func assertReadAllocationFree(t *testing.T, sub *Subsystem, n int) {
	t.Helper()
	dst := make([]byte, n)
	if _, err := sub.ReadInto(0, 0, dst); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := sub.ReadInto(sim.Microsecond, 0, dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ReadInto allocates %.1f objects per call, want 0", allocs)
	}
}
