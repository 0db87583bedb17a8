package accel

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dramless/internal/obs"
	"dramless/internal/sim"
	"dramless/internal/workload"
)

func smallJob(name string, agents int) Job {
	return Job{
		Kernel: workload.MustByName(name),
		Params: workload.Params{Scale: 64 << 10},
		Agents: agents,
	}
}

func TestRunJobsSingle(t *testing.T) {
	a := MustNew(Default(), fastBackend())
	res, err := a.RunJobs(0, []Job{smallJob("trisolv", 0)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Report.Instrs == 0 {
		t.Fatal("job did not run")
	}
	if len(res[0].AgentIDs) != a.Agents() {
		t.Fatalf("default job used %d agents, want all %d", len(res[0].AgentIDs), a.Agents())
	}
}

func TestRunJobsConcurrentDisjointAgents(t *testing.T) {
	a := MustNew(Default(), fastBackend())
	// Two 3-agent jobs fit the 7 agents together: they must overlap in
	// simulated time rather than serialize.
	res, err := a.RunJobs(0, []Job{smallJob("gemver", 3), smallJob("jaco1d", 3)})
	if err != nil {
		t.Fatal(err)
	}
	r0, r1 := res[0].Report, res[1].Report
	if r1.Start >= r0.End {
		t.Fatalf("second job started at %v, after the first ended at %v - no concurrency", r1.Start, r0.End)
	}
	// Agent sets must be disjoint.
	seen := map[int]bool{}
	for _, r := range res {
		for _, id := range r.AgentIDs {
			if seen[id] {
				t.Fatalf("agent %d assigned to both jobs", id)
			}
			seen[id] = true
		}
	}
}

func TestRunJobsQueuesWhenAgentsExhausted(t *testing.T) {
	a := MustNew(Default(), fastBackend())
	// Two all-agent jobs must serialize: the second starts after the
	// first's agents free.
	res, err := a.RunJobs(0, []Job{smallJob("trisolv", 0), smallJob("durbin", 0)})
	if err != nil {
		t.Fatal(err)
	}
	if res[1].Report.Start < res[0].Report.End-sim.Microsecond {
		t.Fatalf("second all-agent job started at %v before the first finished at %v",
			res[1].Report.Start, res[0].Report.End)
	}
}

func TestRunJobsOversizedRequestClamped(t *testing.T) {
	a := MustNew(Default(), fastBackend())
	res, err := a.RunJobs(0, []Job{smallJob("lu", 99)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0].AgentIDs) != a.Agents() {
		t.Fatalf("oversized request got %d agents", len(res[0].AgentIDs))
	}
}

func TestRunJobsEmpty(t *testing.T) {
	a := MustNew(Default(), fastBackend())
	res, err := a.RunJobs(0, nil)
	if err != nil || res != nil {
		t.Fatalf("empty job list: %v %v", res, err)
	}
}

func TestRunJobsMatchesRunKernelWork(t *testing.T) {
	// A single all-agent job retires the same instruction count as
	// RunKernel on the same kernel and scale.
	k := workload.MustByName("floyd")
	p := workload.Params{Scale: 64 << 10, Agents: 7}
	a1 := MustNew(Default(), fastBackend())
	rep, err := a1.RunKernel(0, k, p)
	if err != nil {
		t.Fatal(err)
	}
	a2 := MustNew(Default(), fastBackend())
	res, err := a2.RunJobs(0, []Job{{Kernel: k, Params: p}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Report.Instrs != rep.Instrs {
		t.Fatalf("job instrs %d != kernel instrs %d", res[0].Report.Instrs, rep.Instrs)
	}
}

func TestRunJobsManyJobsFIFO(t *testing.T) {
	a := MustNew(Default(), fastBackend())
	var jobs []Job
	names := []string{"trisolv", "durbin", "gemver", "dynpro", "jaco1d", "regd"}
	for _, n := range names {
		jobs = append(jobs, smallJob(n, 2))
	}
	res, err := a.RunJobs(0, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r == nil || r.Report.Instrs == 0 {
			t.Fatalf("job %d missing", i)
		}
		if r.Job.Kernel.Name != names[i] {
			t.Fatalf("result order broken at %d", i)
		}
	}
	// Three 2-agent jobs per wave on 7 agents: at least two jobs overlap.
	if res[1].Report.Start >= res[0].Report.End && res[2].Report.Start >= res[0].Report.End {
		t.Fatal("no overlap among the first wave's jobs")
	}
}

// TestRunJobsDeterministic pins RunJobs' repeatability: the same FIFO
// job mix — concurrent disjoint-agent waves plus queued waves — run on
// two fresh accelerators must produce identical per-job reports and
// placements, an identical counter registry, and byte-identical
// histogram and series exports.
func TestRunJobsDeterministic(t *testing.T) {
	names := []string{"trisolv", "durbin", "gemver", "dynpro", "jaco1d", "regd"}
	type outcome struct {
		res      []*JobResult
		counters obs.Counters
		hist     []byte
		series   []byte
	}
	run := func() outcome {
		cfg := Default()
		cfg.Obs = obs.New()
		a := MustNew(cfg, fastBackend())
		var jobs []Job
		for _, n := range names {
			jobs = append(jobs, smallJob(n, 2))
		}
		res, err := a.RunJobs(0, jobs)
		if err != nil {
			t.Fatal(err)
		}
		var o outcome
		o.res = res
		a.CountersInto(&o.counters)
		var hb, sb bytes.Buffer
		if err := cfg.Obs.Histograms().WriteJSON(&hb); err != nil {
			t.Fatal(err)
		}
		if err := cfg.Obs.Series().WriteCSV(&sb); err != nil {
			t.Fatal(err)
		}
		o.hist, o.series = hb.Bytes(), sb.Bytes()
		return o
	}

	first, again := run(), run()
	if len(again.res) != len(first.res) {
		t.Fatalf("%d results, then %d", len(first.res), len(again.res))
	}
	for i := range again.res {
		if !reflect.DeepEqual(again.res[i].AgentIDs, first.res[i].AgentIDs) {
			t.Errorf("job %d placement differs: %v != %v", i, again.res[i].AgentIDs, first.res[i].AgentIDs)
		}
		if !reflect.DeepEqual(*again.res[i].Report, *first.res[i].Report) {
			t.Errorf("job %d report differs:\n  again: %+v\n  first: %+v",
				i, *again.res[i].Report, *first.res[i].Report)
		}
	}
	ae, fe := again.counters.Entries(), first.counters.Entries()
	if len(ae) != len(fe) {
		t.Fatalf("counter registries differ in size: %d != %d", len(ae), len(fe))
	}
	for i := range ae {
		if ae[i] != fe[i] {
			t.Errorf("counter %q: %+v != %+v", ae[i].Name, ae[i], fe[i])
		}
	}
	if !bytes.Equal(again.hist, first.hist) {
		t.Error("histogram JSON export is not byte-identical")
	}
	if !bytes.Equal(again.series, first.series) {
		t.Error("series CSV export is not byte-identical")
	}
}

// TestSampledRunJobsFoldMatchesUnbatched covers sampled RunJobs waves:
// with IPC sampling on, the batched front-end must fold (fewer
// dispatched events) and still reproduce the op-at-a-time run's
// reports - per-job IPC series included - and observability exports.
func TestSampledRunJobsFoldMatchesUnbatched(t *testing.T) {
	run := func(unbatched bool) ([]*JobResult, *Accelerator, *obs.Observer) {
		cfg := Default()
		cfg.SampleInterval = 10 * sim.Microsecond
		cfg.PE.Unbatched = unbatched
		cfg.Obs = obs.New()
		a := MustNew(cfg, fastBackend())
		res, err := a.RunJobs(0, []Job{smallJob("gemver", 3), smallJob("doitg", 4), smallJob("jaco1d", 0)})
		if err != nil {
			t.Fatal(err)
		}
		return res, a, cfg.Obs
	}
	bres, ba, bObs := run(false)
	ures, ua, uObs := run(true)

	if ba.events >= ua.events {
		t.Errorf("batched waves dispatched %d events, unbatched %d: sampled runs did not fold", ba.events, ua.events)
	}
	for i := range bres {
		br, ur := *bres[i].Report, *ures[i].Report
		if br.IPC == nil || br.IPC.Len() == 0 {
			t.Fatalf("job %d: no IPC series sampled", i)
		}
		br.Events, ur.Events = 0, 0
		if !reflect.DeepEqual(br, ur) || !reflect.DeepEqual(bres[i].AgentIDs, ures[i].AgentIDs) {
			t.Errorf("job %d differs:\n  batched:   %+v\n  unbatched: %+v", i, br, ur)
		}
	}
	if !bObs.Histograms().Equal(uObs.Histograms()) {
		t.Errorf("histograms differ:\n%s", bObs.Histograms().Diff(uObs.Histograms()))
	}
	if !bObs.Series().Equal(uObs.Series()) {
		t.Errorf("series differ:\n%s", bObs.Series().Diff(uObs.Series()))
	}
}

// TestRunJobsTraced covers jobs on the collector RunKernel uses: with
// tracing on, every placed agent gets exactly one kernel and one flush
// span on its pe<id> track, and tracing changes no report or counter;
// with sampling on as well, each job report keeps one span list per
// agent.
func TestRunJobsTraced(t *testing.T) {
	jobs := []Job{smallJob("gemver", 3), smallJob("doitg", 4)}
	run := func(traced, sampled bool) ([]*JobResult, *obs.Counters, *obs.Tracer) {
		cfg := Default()
		cfg.Obs = obs.New()
		if traced {
			cfg.Obs = obs.New(obs.WithTracing())
		}
		if sampled {
			cfg.SampleInterval = 10 * sim.Microsecond
		}
		a := MustNew(cfg, fastBackend())
		res, err := a.RunJobs(0, jobs)
		if err != nil {
			t.Fatal(err)
		}
		c := &obs.Counters{}
		a.CountersInto(c)
		for _, r := range res {
			r.Report.CountersInto(c)
		}
		return res, c, cfg.Obs.Tracer()
	}

	res, c, tr := run(true, false)
	want := map[string]int{}
	for _, r := range res {
		for _, id := range r.AgentIDs {
			want[fmt.Sprintf("pe%d/kernel", id)]++
			want[fmt.Sprintf("pe%d/flush", id)]++
		}
	}
	got := map[string]int{}
	for _, ev := range tr.Events() {
		if ev.Proc == "accel" {
			got[ev.Track+"/"+ev.Name]++
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("accel spans per track:\n  got:  %v\n  want: %v", got, want)
	}

	ures, uc, _ := run(false, false)
	for i := range res {
		if !reflect.DeepEqual(*res[i].Report, *ures[i].Report) {
			t.Errorf("job %d report differs with tracing on:\n  traced:   %+v\n  untraced: %+v",
				i, *res[i].Report, *ures[i].Report)
		}
	}
	if !c.Equal(uc) {
		t.Errorf("counters differ with tracing on:\n%s", c.Diff(uc))
	}

	sres, _, _ := run(true, true)
	for i, r := range sres {
		if len(r.Report.Spans) != len(r.AgentIDs) {
			t.Errorf("job %d: %d span lists for %d agents", i, len(r.Report.Spans), len(r.AgentIDs))
		}
		for j, s := range r.Report.Spans {
			if s == nil || s.Len() == 0 {
				t.Errorf("job %d agent %d: no active spans recorded", i, j)
			}
		}
	}
}

// TestSeriesOverflowIsAnError starts RunKernel and RunJobs at 1 ms with
// 1 ps series windows, so every sample falls past the window cap: both
// must return an error naming the overflowed series.
func TestSeriesOverflowIsAnError(t *testing.T) {
	sampled := Default()
	sampled.SampleInterval = 1
	observed := Default()
	observed.Obs = obs.New(obs.WithSeriesWindow(1))
	for _, tc := range []struct {
		name, series string
		cfg          Config
	}{
		{"sampled", obs.SeriesAccelInstrs, sampled},
		{"observed", obs.SeriesPEBusy, observed},
	} {
		job := smallJob("gemver", 0)
		_, err := MustNew(tc.cfg, fastBackend()).RunKernel(sim.Millisecond, job.Kernel, workload.Params{Scale: 64 << 10, Agents: 7})
		if err == nil || !strings.Contains(err.Error(), tc.series) {
			t.Errorf("%s RunKernel: err = %v, want one naming %s", tc.name, err, tc.series)
		}
		if _, err := MustNew(tc.cfg, fastBackend()).RunJobs(sim.Millisecond, []Job{job}); err == nil {
			t.Errorf("%s RunJobs: no error", tc.name)
		}
	}
}
