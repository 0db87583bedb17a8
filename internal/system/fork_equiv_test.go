package system

import (
	"bytes"
	"slices"
	"testing"

	"dramless/internal/obs"
	"dramless/internal/sim"
	"dramless/internal/workload"
)

// shimEntries is the counter registry with RunForked's prefix counter
// spelled as Run's: the one name by which the deprecated entry point's
// results may differ from Run's.
func shimEntries(c *obs.Counters) []obs.Entry {
	out := slices.Clone(c.Entries())
	for i := range out {
		if out[i].Name == CounterPrefixForks {
			out[i].Name = CounterPrefixColdRuns
		}
	}
	return out
}

// runColdAndForked runs cfg through Run, then through the deprecated
// CapturePrefix/RunForked entry points, each under a fresh observer
// built with opts.
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
	defer cp.Release()
	forked, err = RunForked(fcfg, k, cp)
	if err != nil {
		t.Fatal(err)
	}
	return cold, forked, cfg.Obs, fcfg.Obs
}

// requireShimMatchesRun fails t unless the RunForked result reproduces
// the Run result byte for byte: phase walls, energy, time breakdown,
// kernel report, blame JSON, histogram JSON, series CSV and every
// counter, event totals included. The prefix counter's name is the one
// difference, and each side must carry its own.
func requireShimMatchesRun(t *testing.T, cold, forked *Result, cObs, fObs *obs.Observer) {
	t.Helper()
	if v := forked.Counters.Get(CounterPrefixForks); v != 1 {
		t.Errorf("RunForked: %s = %d, want 1", CounterPrefixForks, v)
	}
	if v := cold.Counters.Get(CounterPrefixColdRuns); v != 1 {
		t.Errorf("Run: %s = %d, want 1", CounterPrefixColdRuns, v)
	}
	if forked.Report.Events != cold.Report.Events {
		t.Errorf("RunForked dispatched %d events, Run %d", forked.Report.Events, cold.Report.Events)
	}
	requireSameRun(t, [2]string{"RunForked", "Run"}, forked, cold, fObs, cObs, shimEntries)
	var fb, cb bytes.Buffer
	if err := forked.Blame.WriteJSON(&fb); err != nil {
		t.Fatal(err)
	}
	if err := cold.Blame.WriteJSON(&cb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fb.Bytes(), cb.Bytes()) {
		t.Errorf("blame JSON differs:\n%s", forked.Blame.Diff(cold.Blame))
	}
}

// TestForkedMatchesCold pins the deprecated fork API to what it now is,
// a second spelling of Run: for every Table I organization x one kernel
// per workload class, and once under a non-default series window,
// RunForked reproduces Run byte for byte.
func TestForkedMatchesCold(t *testing.T) {
	for _, kind := range Kinds() {
		for _, kname := range equivKernels {
			t.Run(kind.String()+"/"+kname, func(t *testing.T) {
				cfg := testConfig(kind)
				cfg.Scale = 128 << 10
				cold, forked, cObs, fObs := runColdAndForked(t, cfg, workload.MustByName(kname))
				requireShimMatchesRun(t, cold, forked, cObs, fObs)
			})
		}
		t.Run(kind.String()+"/gemver/window-1us", func(t *testing.T) {
			cfg := testConfig(kind)
			cfg.Scale = 128 << 10
			cold, forked, cObs, fObs := runColdAndForked(t, cfg, workload.MustByName("gemver"), obs.WithSeriesWindow(sim.Microsecond))
			requireShimMatchesRun(t, cold, forked, cObs, fObs)
		})
	}
}

// TestCapturePrefixValidates: CapturePrefix simulates nothing, but it
// still rejects an invalid config with Validate's error.
func TestCapturePrefixValidates(t *testing.T) {
	k := workload.MustByName("gemver")
	bad := testConfig(DRAMLess)
	bad.Policy = "round-robin"
	want := bad.Validate()
	if want == nil {
		t.Fatal("the invalid config validates")
	}
	cp, err := CapturePrefix(PrefixOf(bad, k))
	if err == nil || err.Error() != want.Error() {
		t.Errorf("CapturePrefix error = %v, want Validate's %v", err, want)
	}
	if cp != nil {
		t.Error("CapturePrefix returned a checkpoint with its error")
	}
	if _, err := CapturePrefix(PrefixOf(testConfig(DRAMLess), k)); err != nil {
		t.Errorf("valid config: %v", err)
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
