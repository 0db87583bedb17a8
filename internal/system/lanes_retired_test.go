package system

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"dramless/internal/obs"
	"dramless/internal/workload"
)

// The lane executors (the windowed PE interleave and the laned
// load/store phases) were removed: accel's serial min-scan is the only
// interleave. The two tests below keep the names of the equivalence
// oracles that compared laned runs against that serial engine, and pin
// what replaced them on every Table I organization x kernel class: a
// configuration asking for lanes fails loudly instead of running
// something else, and the serial engine reproduces itself exactly, run
// to run and fork to fork.

// laneRequest is cfg with the deprecated accel lane count set, the way a
// configuration written for the lane executors would arrive.
func laneRequest(cfg Config, lanes int) Config {
	cfg.Accel.Lanes = lanes
	return cfg
}

func wantLanesRemoved(t *testing.T, what string, err error) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), "lane executors were removed") {
		t.Errorf("%s: err = %v, want the removed-executor rejection", what, err)
	}
}

// exports returns an observer's histogram JSON and series CSV bytes.
func exports(t *testing.T, o *obs.Observer) (hist, series []byte) {
	t.Helper()
	var hb, sb bytes.Buffer
	if err := o.Histograms().WriteJSON(&hb); err != nil {
		t.Fatal(err)
	}
	if err := o.Series().WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	return hb.Bytes(), sb.Bytes()
}

// sameRun reports every difference between two results of the same
// configuration and kernel: phase walls, footprint, time and energy
// breakdowns, the kernel report, the full counter registry (which must
// name no lane statistic) and the two exports.
func sameRun(t *testing.T, got, want *Result, gotObs, wantObs *obs.Observer) {
	t.Helper()
	if got.Load != want.Load || got.Kernel != want.Kernel ||
		got.Store != want.Store || got.Total != want.Total {
		t.Errorf("phase walls differ:\n  got  load=%v kernel=%v store=%v total=%v\n  want load=%v kernel=%v store=%v total=%v",
			got.Load, got.Kernel, got.Store, got.Total,
			want.Load, want.Kernel, want.Store, want.Total)
	}
	if got.Footprint != want.Footprint {
		t.Errorf("footprint differs: %d != %d", got.Footprint, want.Footprint)
	}
	if !reflect.DeepEqual(got.TimeParts(), want.TimeParts()) {
		t.Errorf("time breakdown differs:\n  got:  %+v\n  want: %+v", got.TimeParts(), want.TimeParts())
	}
	if !reflect.DeepEqual(got.Energy, want.Energy) {
		t.Errorf("energy account differs:\n  got:  %+v\n  want: %+v", got.Energy, want.Energy)
	}
	if !reflect.DeepEqual(*got.Report, *want.Report) {
		t.Errorf("kernel report differs:\n  got:  %+v\n  want: %+v", *got.Report, *want.Report)
	}
	ge, we := got.Counters.Entries(), want.Counters.Entries()
	if len(ge) != len(we) {
		t.Fatalf("counter registries differ in size: %d != %d", len(ge), len(we))
	}
	for i := range ge {
		if ge[i] != we[i] {
			t.Errorf("counter %q: got %+v != want %+v", ge[i].Name, ge[i], we[i])
		}
		if strings.Contains(ge[i].Name, "lane") {
			t.Errorf("counter %q: the serial engine keeps no lane statistics", ge[i].Name)
		}
	}
	gh, gs := exports(t, gotObs)
	wh, ws := exports(t, wantObs)
	if !bytes.Equal(gh, wh) {
		t.Error("histogram JSON exports are not byte-identical")
	}
	if !bytes.Equal(gs, ws) {
		t.Error("series CSV exports are not byte-identical")
	}
}

// TestLanedMatchesSerial: Run rejects the lane counts that once selected
// the laned executor, and two serial runs of the same configuration are
// identical down to the event-dispatch count and the exported bytes.
func TestLanedMatchesSerial(t *testing.T) {
	for _, kind := range Kinds() {
		for _, kname := range equivKernels {
			t.Run(kind.String()+"/"+kname, func(t *testing.T) {
				k := workload.MustByName(kname)
				cfg := testConfig(kind)
				cfg.Scale = 128 << 10

				for _, lanes := range []int{1, 4} {
					lcfg := laneRequest(cfg, lanes)
					lcfg.Obs = obs.New()
					res, err := Run(lcfg, k)
					wantLanesRemoved(t, "Run", err)
					if res != nil {
						t.Errorf("lanes=%d: Run returned a result with its error", lanes)
					}
				}

				run := func() (*Result, *obs.Observer) {
					c := cfg
					c.Obs = obs.New()
					res, err := Run(c, k)
					if err != nil {
						t.Fatal(err)
					}
					return res, c.Obs
				}
				first, firstObs := run()
				again, againObs := run()
				sameRun(t, again, first, againObs, firstObs)
			})
		}
	}
}

// TestLanedForkedMatchesCold: the checkpoint path rejects a lane request
// both when capturing a prefix and when forking from one, and a captured
// checkpoint is not consumed by a fork: two forks from it are identical.
// (TestForkedMatchesCold pins a fork against the cold run.)
func TestLanedForkedMatchesCold(t *testing.T) {
	for _, kind := range Kinds() {
		for _, kname := range equivKernels {
			t.Run(kind.String()+"/"+kname, func(t *testing.T) {
				k := workload.MustByName(kname)
				cfg := testConfig(kind)
				cfg.Scale = 128 << 10

				_, err := CapturePrefix(PrefixOf(laneRequest(cfg, 4), k))
				wantLanesRemoved(t, "CapturePrefix", err)

				cp, err := CapturePrefix(PrefixOf(cfg, k))
				if err != nil {
					t.Fatal(err)
				}
				lcfg := laneRequest(cfg, 4)
				lcfg.Obs = obs.New()
				_, err = RunForked(lcfg, k, cp)
				wantLanesRemoved(t, "RunForked", err)

				fork := func() (*Result, *obs.Observer) {
					c := cfg
					c.Obs = obs.New()
					res, err := RunForked(c, k, cp)
					if err != nil {
						t.Fatal(err)
					}
					if v := res.Counters.Get(CounterPrefixForks); v != 1 {
						t.Errorf("%s = %d, want 1", CounterPrefixForks, v)
					}
					return res, c.Obs
				}
				first, firstObs := fork()
				again, againObs := fork()
				sameRun(t, again, first, againObs, firstObs)
			})
		}
	}
}
