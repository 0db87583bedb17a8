package main

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"dramless/internal/accel"
	"dramless/internal/system"
	"dramless/internal/workload"
)

func TestSelfTimeOnHandBuiltTree(t *testing.T) {
	// root [0,100) has children a [10,30), b [30,50) and c [60,70); a
	// has child d [12,20); c has child e [62,68), which has child f
	// [63,64). A second root [200,210) is a leaf.
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "d", Start: 12, End: 20, Parent: 1},
		{Name: "b", Start: 30, End: 50, Parent: 0},
		{Name: "c", Start: 60, End: 70, Parent: 0},
		{Name: "e", Start: 62, End: 68, Parent: 4},
		{Name: "f", Start: 63, End: 64, Parent: 5},
		{Name: "root", Start: 200, End: 210, Parent: -1},
	}
	st := summarize(spans)
	want := map[string]time.Duration{
		"root": 100 - 20 - 20 - 10 + 10,
		"a":    20 - 8,
		"b":    20,
		"c":    10 - 6,
		"d":    8,
		"e":    6 - 1,
		"f":    1,
	}
	for name, w := range want {
		if got := st.self[name]; got != w {
			t.Errorf("self(%s) = %d, want %d", name, got, w)
		}
	}
	if st.dur["root"] != 110 || st.n["root"] != 2 {
		t.Errorf("root totals: dur %d n %d, want 110 and 2", st.dur["root"], st.n["root"])
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer(1)
	tr.setOp(7)
	outer := tr.begin("outer")
	inner := tr.beginAlloc("inner")
	_ = make([]byte, 1<<20)
	tr.end(inner)
	tr.end(outer)
	var nilTr *tracer
	nilTr.end(nilTr.begin("ignored"))
	if len(tr.spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(tr.spans))
	}
	in := tr.spans[1]
	if in.Parent != 0 || in.Op != 7 || in.Pass != 1 || in.Alloc < 1<<20 {
		t.Errorf("inner span %+v: want parent 0, op 7, pass 1, alloc >= 1 MiB", in)
	}
	if tr.spans[0].Parent != -1 || tr.spans[0].End < in.End {
		t.Errorf("outer span %+v does not enclose inner %+v", tr.spans[0], in)
	}
}

func TestCellDigestRejectsPerturbedResult(t *testing.T) {
	refs, err := loadRefs("arena-1m")
	if err != nil {
		t.Fatal(err)
	}
	a := newArena(99)
	c := arenaCell{policy: "final", kernel: workload.MustByName("lu")}
	res, ob, err := a.simulate(c, nil)
	a.endPass(nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := cellDigest(res, ob)
	if err != nil {
		t.Fatal(err)
	}
	if err := refs.check(99, c.key(), d); err != nil {
		t.Fatalf("unperturbed run: %v", err)
	}
	perturb := map[string]func(*system.Result){
		"kernel wall": func(r *system.Result) { r.Kernel++ },
		"counter":     func(r *system.Result) { r.Counters.Add("memctrl.reads", 1) },
		"energy":      func(r *system.Result) { r.Energy.Add("pram", 1e-12) },
		"blame":       func(r *system.Result) { r.Blame.Add("kernel/pe/compute", 1) },
	}
	for what, f := range perturb {
		f(res)
		d2, err := cellDigest(res, ob)
		if err != nil {
			t.Fatal(err)
		}
		if err := refs.check(99, c.key(), d2); err == nil {
			t.Errorf("perturbed %s: digest still matches the reference", what)
		}
	}
	if err := refs.check(99, "final/nosuch", d); err == nil {
		t.Error("an op without a reference digest passed the check")
	}
}

func TestJobChecksRejectPerturbedBatch(t *testing.T) {
	j, err := newJobsMix(defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []accel.Job{
		{Kernel: workload.MustByName("lu"), Params: workload.Params{Scale: jobScale}, Agents: 3},
		{Kernel: workload.MustByName("gemver"), Params: workload.Params{Scale: jobScale, BaseAddr: jobRegion}, Agents: 3},
	}
	report := func(n int64) *accel.Report { return &accel.Report{Instrs: n} }
	res := []*accel.JobResult{
		{Job: jobs[0], Report: report(10), AgentIDs: []int{0, 1, 2}},
		{Job: jobs[1], Report: report(20), AgentIDs: []int{3, 4, 5}},
	}
	if err := checkJobs(jobs, []int64{10, 20}, res, 7); err != nil {
		t.Fatalf("valid batch rejected: %v", err)
	}
	if err := checkJobs(jobs, []int64{10, 21}, res, 7); err == nil {
		t.Error("wrong instruction count accepted")
	}
	res[1].AgentIDs = []int{2, 4, 5}
	if err := checkJobs(jobs, []int64{10, 20}, res, 7); err == nil || !strings.Contains(err.Error(), "shares agent") {
		t.Errorf("overlapping agent sets in one wave: err %v", err)
	}
	res[1].AgentIDs = []int{3, 4}
	if err := checkJobs(jobs, []int64{10, 20}, res, 7); err == nil {
		t.Error("short agent set accepted")
	}

	refs, err := loadRefs("jobs-mix")
	if err != nil {
		t.Fatal(err)
	}
	d, err := j.ops(0)[0].run(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := refs.check(defaultSeed, "batch00", d); err != nil {
		t.Fatal(err)
	}
	if err := refs.check(defaultSeed, "batch01", d); err == nil {
		t.Error("batch00's digest passed as batch01's")
	}
	if err := refs.check(defaultSeed+1, "batch01", d); err != nil {
		t.Errorf("references hold for the default seed only, yet seed %d failed: %v", defaultSeed+1, err)
	}
}

func TestTimingDecoratorKeepsSimulation(t *testing.T) {
	j, err := newJobsMix(5)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := runBatch(j.batches[0], j.instrs[0], nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr, acc := newTracer(1), newLayerAcc()
	timed, err := runBatch(j.batches[0], j.instrs[0], tr, acc)
	if err != nil {
		t.Fatal(err)
	}
	if bare != timed {
		t.Fatalf("decorated backend changed the simulation: %.12s vs %.12s", timed, bare)
	}
	st := summarize(tr.spans)
	if st.n["accel.run_jobs"] != 1 || st.n["memctrl.read"] == 0 || st.n["memctrl.write"] == 0 || st.n["memctrl.drain"] != 1 {
		t.Errorf("span counts %v: want one run_jobs, memctrl reads and writes, one drain", st.n)
	}
	if st.self["accel.run_jobs"] >= st.dur["accel.run_jobs"] {
		t.Errorf("run_jobs self time %v not below its duration %v", st.self["accel.run_jobs"], st.dur["accel.run_jobs"])
	}
	if acc.counters.Get("memctrl.reads") == 0 || acc.events == 0 {
		t.Error("traced batch recorded no layer counts")
	}
}

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	keys := func(ops []op) []string {
		out := make([]string, len(ops))
		for i, o := range ops {
			out[i] = o.key
		}
		return out
	}
	for _, name := range []string{"arena-1m", "suite-fast"} {
		a, _ := newBench(name, 7)
		b, _ := newBench(name, 7)
		c, _ := newBench(name, 8)
		if !reflect.DeepEqual(keys(a.ops(3)), keys(b.ops(3))) {
			t.Errorf("%s: seed 7 pass 3 order differs between two instances", name)
		}
		if reflect.DeepEqual(keys(a.ops(3)), keys(c.ops(3))) {
			t.Errorf("%s: seeds 7 and 8 give the same order", name)
		}
		if reflect.DeepEqual(keys(a.ops(3)), keys(a.ops(4))) {
			t.Errorf("%s: passes 3 and 4 give the same order", name)
		}
	}
	describe := func(bs [][]accel.Job) string {
		var sb strings.Builder
		for _, jobs := range bs {
			for _, jb := range jobs {
				fmt.Fprintf(&sb, "%s:%d:%d ", jb.Kernel.Name, jb.Agents, jb.Params.BaseAddr)
			}
			sb.WriteString("| ")
		}
		return sb.String()
	}
	if describe(dealJobs(7)) != describe(dealJobs(7)) {
		t.Error("jobs-mix: seed 7 dealt two different mixes")
	}
	if describe(dealJobs(7)) == describe(dealJobs(8)) {
		t.Error("jobs-mix: seeds 7 and 8 dealt the same mix")
	}
	// Every batch runs each kernel once, whatever the seed.
	for _, jobs := range dealJobs(7) {
		seen := map[string]bool{}
		for _, jb := range jobs {
			seen[jb.Kernel.Name] = true
		}
		if len(seen) != len(jobReadKernels)+len(jobWriteKernels) || len(jobs) != len(seen) {
			t.Errorf("batch runs %d jobs over %d distinct kernels, want each of %d once",
				len(jobs), len(seen), len(jobReadKernels)+len(jobWriteKernels))
		}
	}
}

func TestReferencesCoverEveryOp(t *testing.T) {
	for _, name := range workloadNames {
		refs, err := loadRefs(name)
		if err != nil {
			t.Fatal(err)
		}
		w, err := newBench(name, 42)
		if err != nil {
			t.Fatal(err)
		}
		ops := w.ops(0)
		if len(refs.Digests) != len(ops) {
			t.Errorf("%s: %d reference digests for %d ops", name, len(refs.Digests), len(ops))
		}
		for _, o := range ops {
			if _, ok := refs.Digests[o.key]; !ok {
				t.Errorf("%s: op %s has no reference digest", name, o.key)
			}
		}
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	if m := median(xs); m != 5.5 {
		t.Errorf("median = %v, want 5.5", m)
	}
	if p := percentile(xs, 90); p != 9 {
		t.Errorf("p90 = %v, want 9 (nearest rank)", p)
	}
	if xs[0] != 5 {
		t.Error("median sorted its input in place")
	}
	// Means of (5,1,4), (2,3,6), (7,8,9) are 10/3, 11/3 and 8; the 10
	// is a partial group.
	if m := medianOfMeans(xs, 3); m != 11.0/3 {
		t.Errorf("medianOfMeans = %v, want 11/3", m)
	}
}
