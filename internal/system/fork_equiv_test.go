package system

import (
	"strings"
	"testing"

	"dramless/internal/obs"
	"dramless/internal/sim"
	"dramless/internal/workload"
)

// prefixCounter reports the registry name recording how a run's prefix
// came to be. Forked and cold runs differ in this one name by design
// (prefix_forks vs prefix_cold_runs); everything else must match.
func prefixCounter(name string) bool {
	return strings.HasPrefix(name, "system.prefix_")
}

func forkFilteredEntries(c *obs.Counters) []obs.Entry {
	out := make([]obs.Entry, 0, c.Len())
	for _, e := range c.Entries() {
		if !eventCounter(e.Name) && !prefixCounter(e.Name) {
			out = append(out, e)
		}
	}
	return out
}

// runColdAndForked runs cfg cold, then forked from a freshly captured
// checkpoint of its prefix, each under a fresh observer built with opts.
func runColdAndForked(t *testing.T, cfg Config, k workload.Kernel, opts ...obs.Option) (cold, forked *Result, cObs, fObs *obs.Observer) {
	t.Helper()
	cfg.Obs = obs.New(opts...)
	cold, err := Run(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	fcfg := cfg
	fcfg.Obs = obs.New(opts...)
	cp, err := CapturePrefix(PrefixOf(fcfg, k))
	if err != nil {
		t.Fatal(err)
	}
	// A template keeps no staging buffers: forks stage through their own.
	if cp.tmpl.scratch != nil || cp.tmpl.zeros != nil {
		t.Errorf("captured %s template holds staging buffers (scratch %d B, zeros %d B)", cfg.Kind, len(cp.tmpl.scratch), len(cp.tmpl.zeros))
	}
	forked, err = RunForked(fcfg, k, cp)
	if err != nil {
		t.Fatal(err)
	}
	return cold, forked, cfg.Obs, fcfg.Obs
}

// TestForkedMatchesCold is the checkpoint/fork layer's equivalence
// oracle: for every Table I organization x one kernel per workload
// class, a run forked from a captured populate/load checkpoint must
// reproduce the cold run exactly - phase walls, time/energy breakdowns,
// per-agent reports, the full counter registry (save the prefix-origin
// counter and engine event totals), and byte-identical histogram and
// series exports.
func TestForkedMatchesCold(t *testing.T) {
	for _, kind := range Kinds() {
		for _, kname := range equivKernels {
			t.Run(kind.String()+"/"+kname, func(t *testing.T) {
				cfg := testConfig(kind)
				cfg.Scale = 128 << 10
				cold, forked, cObs, fObs := runColdAndForked(t, cfg, workload.MustByName(kname))
				if v := forked.Counters.Get(CounterPrefixForks); v != 1 {
					t.Errorf("forked run: %s = %d, want 1", CounterPrefixForks, v)
				}
				if v := cold.Counters.Get(CounterPrefixColdRuns); v != 1 {
					t.Errorf("cold run: %s = %d, want 1", CounterPrefixColdRuns, v)
				}

				requireSameRun(t, [2]string{"forked", "cold"}, forked, cold, fObs, cObs, forkFilteredEntries)
			})
		}
		// The checkpoint's series samples are bucketed over the default
		// window; under any other window the fork must still match.
		t.Run(kind.String()+"/gemver/window-1us", func(t *testing.T) {
			cfg := testConfig(kind)
			cfg.Scale = 128 << 10
			cold, forked, cObs, fObs := runColdAndForked(t, cfg, workload.MustByName("gemver"), obs.WithSeriesWindow(sim.Microsecond))
			requireSameRun(t, [2]string{"forked", "cold"}, forked, cold, fObs, cObs, forkFilteredEntries)
		})
	}
}

// TestPrefixCountersCataloged pins the prefix-origin counters in the
// observability catalog so exports and docs stay in sync.
func TestPrefixCountersCataloged(t *testing.T) {
	for _, name := range []string{CounterPrefixForks, CounterPrefixColdRuns} {
		if !obs.Cataloged(name) {
			t.Errorf("%s is not in the obs name catalog", name)
		}
	}
}

// TestPrefixOfNormalizesObservability pins the key normalization: runs
// that differ only in attached observability share a prefix, runs that
// differ in anything timing-relevant do not.
func TestPrefixOfNormalizesObservability(t *testing.T) {
	k := workload.MustByName("gemver")
	base := testConfig(DRAMLess)

	withObs := base
	withObs.Obs = obs.New()
	withObs.SampleInterval = 100 * 1000 // arbitrary non-zero
	if PrefixOf(base, k) != PrefixOf(withObs, k) {
		t.Error("Obs/SampleInterval should not split the prefix key")
	}

	scaled := base
	scaled.Scale = base.Scale * 2
	if PrefixOf(base, k) == PrefixOf(scaled, k) {
		t.Error("Scale must split the prefix key")
	}
	if PrefixOf(base, k) == PrefixOf(base, workload.MustByName("doitg")) {
		t.Error("kernels with different footprints must split the prefix key")
	}
}
