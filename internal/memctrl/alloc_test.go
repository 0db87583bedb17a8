package memctrl

import (
	"testing"

	"dramless/internal/obs"
	"dramless/internal/sim"
)

// TestObservedReadAllocationFree pins the instrumented memctrl hot path
// under each of Figure 13's four policies (bare-metal issues every read
// as a one-request wave, the others batch requests into overlapping
// waves; both go through readWave): with an observer attached, the
// steady-state read and partial-row write record their latency
// histogram samples and series points without allocating, and the wave
// issuer's scratch (wave tables, claim masks, the one-request read of
// the read-modify-write) is reused across calls. The series window is stretched so window
// growth (amortized append, exercised elsewhere) stays out of the
// measurement.
func TestObservedReadAllocationFree(t *testing.T) {
	for _, pp := range paperPolicies {
		t.Run(pp.label, func(t *testing.T) {
			cfg := testConfig(pp.p)
			cfg.Obs = obs.New(obs.WithSeriesWindow(sim.Duration(1) << 60))
			assertAccessAllocationFree(t, MustNew(cfg), cfg.ChannelRequestBytes)
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
			assertAccessAllocationFree(t, MustNew(cfg), cfg.ChannelRequestBytes)
		})
	}
}

// assertAccessAllocationFree warms sub with one read (the first activates
// the row and sizes every scratch buffer), then requires the repeated
// read to allocate nothing. The same holds for a repeated 8 B write at
// one address: a partial-row write reads its row back through
// readRowInto for the read-modify-write before programming it.
func assertAccessAllocationFree(t *testing.T, sub *Subsystem, n int) {
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
	src := make([]byte, 8)
	if _, err := sub.Write(sim.Microsecond, 64, src); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(200, func() {
		if _, err := sub.Write(sim.Microsecond, 64, src); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("8 B Write allocates %.1f objects per call, want 0", allocs)
	}
}

// TestReleaseDropsWavePointers pins that Release hands the read wave
// tables back to the scratch pool without request pointers in them. A
// partial-row write under an interleaving policy leaves a pointer to
// the channel's one-request read in its wave table; kept in the pool,
// it would hold the released channel and its modules reachable.
func TestReleaseDropsWavePointers(t *testing.T) {
	sub := MustNew(testConfig(Final))
	if _, err := sub.Write(0, 64, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	var tables [][][]*rowReq
	for _, ch := range sub.channels {
		tables = append(tables, ch.rWaves)
	}
	sub.Release()
	for c, waves := range tables {
		for i, w := range waves {
			for j, r := range w[:cap(w)] {
				if r != nil {
					t.Fatalf("channel %d wave %d slot %d still points at a request after Release", c, i, j)
				}
			}
		}
	}
}
