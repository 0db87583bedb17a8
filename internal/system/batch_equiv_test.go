package system

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"dramless/internal/obs"
	"dramless/internal/sim"
	"dramless/internal/workload"
)

// equivKernels picks one kernel from each workload class (Table III
// taxonomy), so the batched datapath is exercised across read-, write-,
// compute- and memory-bound op mixes.
var equivKernels = []string{"gemver", "doitg", "fdtdap", "jaco1d"}

// eventCounter reports registry names that count simulation-engine
// events. Run coalescing services several ops per engine event by
// design, so dispatch/recycle totals legitimately shrink; every other
// observable must stay byte-identical.
func eventCounter(name string) bool {
	return strings.HasSuffix(name, "events_dispatched") ||
		strings.HasSuffix(name, "events_recycled")
}

func filteredEntries(c *obs.Counters) []obs.Entry {
	out := make([]obs.Entry, 0, c.Len())
	for _, e := range c.Entries() {
		if !eventCounter(e.Name) {
			out = append(out, e)
		}
	}
	return out
}

// requireSameCounters fails t unless got's and want's counter registries,
// as entries filters them, hold the same names and values in order.
func requireSameCounters(t *testing.T, names [2]string, got, want *Result, entries func(*obs.Counters) []obs.Entry) {
	t.Helper()
	ge, we := entries(&got.Counters), entries(&want.Counters)
	if len(ge) != len(we) {
		t.Fatalf("counter registries differ in size: %d != %d", len(ge), len(we))
	}
	for i := range ge {
		if ge[i] != we[i] {
			t.Errorf("counter %q: %s %+v != %s %+v", ge[i].Name, names[0], ge[i], names[1], we[i])
		}
	}
}

// requireSameRun fails t unless got reproduces want exactly: phase
// walls, footprint, time and energy accounts (power series included),
// the kernel report (IPC series included) save the engine event totals,
// the counter registry as filtered by entries, and byte-identical
// histogram and series exports. names label got and want in messages.
func requireSameRun(t *testing.T, names [2]string, got, want *Result, gotObs, wantObs *obs.Observer, entries func(*obs.Counters) []obs.Entry) {
	t.Helper()
	g, w := names[0], names[1]
	if got.Load != want.Load || got.Kernel != want.Kernel ||
		got.Store != want.Store || got.Total != want.Total {
		t.Errorf("phase walls differ:\n  %s load=%v kernel=%v store=%v total=%v\n  %s load=%v kernel=%v store=%v total=%v",
			g, got.Load, got.Kernel, got.Store, got.Total,
			w, want.Load, want.Kernel, want.Store, want.Total)
	}
	if got.Footprint != want.Footprint {
		t.Errorf("footprint differs: %d != %d", got.Footprint, want.Footprint)
	}
	if !reflect.DeepEqual(got.TimeParts(), want.TimeParts()) {
		t.Errorf("time breakdown differs:\n  %s: %+v\n  %s: %+v", g, got.TimeParts(), w, want.TimeParts())
	}
	if !reflect.DeepEqual(got.Energy, want.Energy) {
		t.Errorf("energy account differs:\n  %s: %+v\n  %s: %+v", g, got.Energy, w, want.Energy)
	}

	gr, wr := *got.Report, *want.Report
	gr.Events, wr.Events = 0, 0
	if !reflect.DeepEqual(gr, wr) {
		t.Errorf("kernel report differs:\n  %s: %+v\n  %s: %+v", g, gr, w, wr)
	}

	requireSameCounters(t, names, got, want, entries)

	// The latency histograms and windowed series must agree byte for
	// byte: the batched fast paths are required to record every
	// per-access sample the scalar reference loop would (mem.Run.OnOp,
	// cache run fast arms), and a fork replays its prefix's samples.
	gh, wh := gotObs.Histograms(), wantObs.Histograms()
	if !gh.Equal(wh) {
		t.Errorf("histograms differ:\n%s", gh.Diff(wh))
	}
	gs, ws := gotObs.Series(), wantObs.Series()
	if !gs.Equal(ws) {
		t.Errorf("series differ:\n%s", gs.Diff(ws))
	}
	if t.Failed() {
		return
	}
	var gbuf, wbuf bytes.Buffer
	if err := gh.WriteJSON(&gbuf); err != nil {
		t.Fatal(err)
	}
	if err := wh.WriteJSON(&wbuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gbuf.Bytes(), wbuf.Bytes()) {
		t.Error("histogram JSON exports are not byte-identical")
	}
	gbuf.Reset()
	wbuf.Reset()
	if err := gs.WriteCSV(&gbuf); err != nil {
		t.Fatal(err)
	}
	if err := ws.WriteCSV(&wbuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gbuf.Bytes(), wbuf.Bytes()) {
		t.Error("series CSV exports are not byte-identical")
	}
}

// runBatchedAndUnbatched runs cfg with the batched front-end and with
// the op-at-a-time reference, each under a fresh observer.
func runBatchedAndUnbatched(t *testing.T, cfg Config, k workload.Kernel) (batched, unbatched *Result, bObs, uObs *obs.Observer) {
	t.Helper()
	cfg.Obs = obs.New()
	batched, err := Run(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	ucfg := cfg
	ucfg.Accel.PE.Unbatched = true
	ucfg.Obs = obs.New()
	unbatched, err = Run(ucfg, k)
	if err != nil {
		t.Fatal(err)
	}
	return batched, unbatched, cfg.Obs, ucfg.Obs
}

// TestBatchedMatchesUnbatched is the coalescing datapath's equivalence
// oracle: for every Table I organization x one kernel per workload
// class, a run with the batched front-end must reproduce the op-at-a-
// time run exactly - phase walls, time/energy breakdowns, per-agent
// reports and cache stats, and the full counter registry, save only the
// engine's event-dispatch totals (see eventCounter).
func TestBatchedMatchesUnbatched(t *testing.T) {
	for _, kind := range Kinds() {
		for _, kname := range equivKernels {
			t.Run(kind.String()+"/"+kname, func(t *testing.T) {
				cfg := testConfig(kind)
				cfg.Scale = 128 << 10
				b, u, bObs, uObs := runBatchedAndUnbatched(t, cfg, workload.MustByName(kname))
				requireSameRun(t, [2]string{"batched", "unbatched"}, b, u, bObs, uObs, filteredEntries)
			})
		}
	}
}

// sampledKinds are the systems of the Figure 18-21 time series, the
// only cells that sample (experiments.timeSeriesKinds).
var sampledKinds = []Kind{IntegratedSLC, IntegratedMLC, IntegratedTLC, PageBuffer, NORIntf, DRAMLess}

// sampledConfigs are the two sampling setups of the time-series
// figures: the Figure 18/19 IPC series and the Figure 20/21 power
// capture over a 16 KiB footprint.
var sampledConfigs = []struct {
	name     string
	interval sim.Duration
	scale    int64
}{
	{"fig18", 50 * sim.Microsecond, 128 << 10},
	{"fig20", 10 * sim.Microsecond, 16 << 10},
}

func sampledConfig(kind Kind, interval sim.Duration, scale int64) Config {
	cfg := testConfig(kind)
	cfg.SampleInterval = interval
	cfg.Scale = scale
	return cfg
}

// TestSampledBatchedMatchesUnbatched extends the coalescing oracle to
// sampled runs, which fold like any other: the IPC series, the energy
// account with its power series, the histograms and series must be
// bit-equal to the op-at-a-time run, and the batched run must dispatch
// fewer events (proof that it folded).
func TestSampledBatchedMatchesUnbatched(t *testing.T) {
	for _, sc := range sampledConfigs {
		for _, kind := range sampledKinds {
			for _, kname := range []string{"gemver", "doitg"} {
				t.Run(sc.name+"/"+kind.String()+"/"+kname, func(t *testing.T) {
					cfg := sampledConfig(kind, sc.interval, sc.scale)
					b, u, bObs, uObs := runBatchedAndUnbatched(t, cfg, workload.MustByName(kname))
					if b.Report.IPC == nil || b.Energy.PowerSeries() == nil {
						t.Fatal("sampled run produced no IPC or power series")
					}
					if b.Report.Spans != nil {
						t.Error("result retains per-op active spans after accounting")
					}
					if b.Report.Events >= u.Report.Events {
						t.Errorf("batched run dispatched %d events, unbatched %d: sampled runs did not fold",
							b.Report.Events, u.Report.Events)
					}
					requireSameRun(t, [2]string{"batched", "unbatched"}, b, u, bObs, uObs, filteredEntries)
				})
			}
		}
	}
}

// TestSampledForkedMatchesCold runs the sampled configurations through
// a captured checkpoint: a fork must reproduce the cold run's series.
func TestSampledForkedMatchesCold(t *testing.T) {
	for _, sc := range sampledConfigs {
		for _, kind := range []Kind{DRAMLess, IntegratedSLC} {
			t.Run(sc.name+"/"+kind.String(), func(t *testing.T) {
				cfg := sampledConfig(kind, sc.interval, sc.scale)
				cold, forked, cObs, fObs := runColdAndForked(t, cfg, workload.MustByName("gemver"))
				requireSameRun(t, [2]string{"forked", "cold"}, forked, cold, fObs, cObs, forkFilteredEntries)
			})
		}
	}
}
