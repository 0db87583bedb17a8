package main

import (
	"regexp"
	"time"

	"dramless/internal/obs"
	"dramless/internal/system"
)

// layerAcc accumulates one traced pass's counts from the program's own
// outputs: result counters and blame accounts, simulated events, the
// experiment engine's accounting and its per-cell host timings.
type layerAcc struct {
	counters    obs.Counters
	blame       obs.Blame
	kernelPS    int64 // summed kernel-phase walls, the blame shares' base
	events      int64
	captureWall time.Duration
	forkWall    time.Duration
	extra       map[string]float64
}

func newLayerAcc() *layerAcc { return &layerAcc{extra: map[string]float64{}} }

func (a *layerAcc) set(name string, v float64) { a.extra[name] = v }

// addResult totals one simulation cell. Nil-safe.
func (a *layerAcc) addResult(res *system.Result) {
	if a == nil {
		return
	}
	a.counters.Merge(&res.Counters)
	a.blame.Merge(res.Blame)
	a.kernelPS += int64(res.Kernel)
	if res.Report != nil {
		a.events += res.Report.Events
	}
}

// sum totals every counter whose name matches re.
func (a *layerAcc) sum(re *regexp.Regexp) int64 {
	var n int64
	for _, e := range a.counters.Entries() {
		if e.Kind == obs.KindCounter && re.MatchString(e.Name) {
			n += e.Int
		}
	}
	return n
}

var (
	reL1Hits   = regexp.MustCompile(`^accel\.pe\d+\.l1\.hits$`)
	reL1Misses = regexp.MustCompile(`^accel\.pe\d+\.l1\.misses$`)
	reL2Hits   = regexp.MustCompile(`^accel\.pe\d+\.l2\.hits$`)
	reL2Misses = regexp.MustCompile(`^accel\.pe\d+\.l2\.misses$`)
)

// ratio is n/d, 0 when d is 0.
func ratio(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}

// layerMetrics computes the per-layer metrics of a traced run. Host
// times are per pass, the median over the traced passes; counts come
// from the first of them (every pass runs the same ops, so the counts
// repeat exactly). Metrics of a layer the workload does not reach read
// 0.
func layerMetrics(traced, untraced []passResult) map[string]metric {
	sums := make([]spanTotals, len(traced))
	for i, p := range traced {
		sums[i] = summarize(p.spans)
	}
	perPass := func(f func(p passResult, st spanTotals) float64) float64 {
		xs := make([]float64, len(traced))
		for i, p := range traced {
			xs[i] = f(p, sums[i])
		}
		return median(xs)
	}
	spanMS := func(name string) float64 {
		return perPass(func(_ passResult, st spanTotals) float64 { return ms(st.dur[name]) })
	}
	spanMB := func(name string) float64 {
		return perPass(func(_ passResult, st spanTotals) float64 { return float64(st.alloc[name]) / 1e6 })
	}
	wallOf := func(ps []passResult) float64 {
		xs := make([]float64, len(ps))
		for i, p := range ps {
			xs[i] = p.wall.Seconds()
		}
		return median(xs)
	}

	acc := traced[0].acc
	c := &acc.counters
	f := func(name string) float64 { return float64(c.Get(name)) }
	captureMS, forkMS := spanMS("system.capture"), spanMS("system.fork")
	if captureMS == 0 && forkMS == 0 { // suite-fast: the engine's own cell timings
		captureMS = perPass(func(p passResult, _ spanTotals) float64 { return ms(p.acc.captureWall) })
		forkMS = perPass(func(p passResult, _ spanTotals) float64 { return ms(p.acc.forkWall) })
	}
	runJobsMS := spanMS("accel.run_jobs")
	hostNS := (captureMS + forkMS + runJobsMS) * 1e6
	if _, ok := sums[0].dur["system.fork"]; ok { // arena-1m: fork spans alone
		hostNS = forkMS * 1e6
	}
	l1h, l1m := float64(acc.sum(reL1Hits)), float64(acc.sum(reL1Misses))
	l2h, l2m := float64(acc.sum(reL2Hits)), float64(acc.sum(reL2Misses))
	kernel := float64(acc.kernelPS)

	return map[string]metric{
		"experiments.table_ms":        {spanMS("experiments.table"), "ms"},
		"experiments.sims":            {acc.extra["experiments.sims"], "count"},
		"experiments.cache_hits":      {acc.extra["experiments.cache_hits"], "count"},
		"experiments.prefix_captures": {acc.extra["experiments.prefix_captures"], "count"},
		"experiments.prefix_hits":     {acc.extra["experiments.prefix_hits"], "count"},
		"system.capture_ms":           {captureMS, "ms"},
		"system.fork_ms":              {forkMS, "ms"},
		"system.capture_alloc_mb":     {spanMB("system.capture"), "MB"},
		"system.fork_alloc_mb":        {spanMB("system.fork"), "MB"},
		"accel.run_jobs_ms":           {runJobsMS, "ms"},
		"accel.self_ms": {perPass(func(_ passResult, st spanTotals) float64 {
			return ms(st.self["accel.run_jobs"])
		}), "ms"},
		"memctrl.read_ms":  {spanMS("memctrl.read"), "ms"},
		"memctrl.write_ms": {spanMS("memctrl.write"), "ms"},
		"memctrl.drain_ms": {spanMS("memctrl.drain"), "ms"},
		"memctrl.calls": {perPass(func(_ passResult, st spanTotals) float64 {
			return float64(st.n["memctrl.read"] + st.n["memctrl.write"] + st.n["memctrl.drain"])
		}), "count"},
		"sim.events":            {float64(acc.events), "count"},
		"sim.host_ns_per_event": {ratio(hostNS, float64(acc.events)), "ns"},
		"gc.cycles":             {perPass(func(p passResult, _ spanTotals) float64 { return float64(p.gcCycles) }), "count"},
		"gc.pause_ms":           {perPass(func(p passResult, _ spanTotals) float64 { return ms(p.gcPause) }), "ms"},

		"memctrl.reads":                 {f("memctrl.reads"), "count"},
		"memctrl.writes":                {f("memctrl.writes"), "count"},
		"memctrl.rdb_hit_rate":          {ratio(f("memctrl.rdb_hits"), f("memctrl.reads")), "ratio"},
		"memctrl.rab_hit_rate":          {ratio(f("memctrl.rab_hits"), f("memctrl.reads")), "ratio"},
		"memctrl.interleave_overlaps":   {f("memctrl.interleave_overlaps"), "count"},
		"memctrl.pre_erased_rows":       {f("memctrl.pre_erased_rows"), "count"},
		"memctrl.pause_preempted_reads": {f("memctrl.pause_preempted_reads"), "count"},
		"memctrl.wear.gap_moves":        {f("memctrl.wear.gap_moves"), "count"},
		"pram.programs":                 {f("pram.programs"), "count"},
		"pram.write_pauses":             {f("pram.write_pauses"), "count"},
		"cache.l1.hit_rate":             {ratio(l1h, l1h+l1m), "ratio"},
		"cache.l2.hit_rate":             {ratio(l2h, l2h+l2m), "ratio"},
		"accel.job_queue_wait_ps":       {f("accel.job_queue_wait_ps"), "ps"},
		"accel.psc.boots":               {f("accel.psc.boots"), "count"},
		"ssd.ftl.gc_runs":               {f("ssd.ext.ftl.gc_runs") + f("ssd.int.ftl.gc_runs"), "count"},
		"pcie.bytes":                    {f("pcie.accel.bytes") + f("pcie.ssd.bytes"), "bytes"},
		"blame.kernel.pe_stall_pct":     {100 * ratio(kernel-float64(acc.blame.Get("kernel/pe/compute")), kernel), "%"},
		"blame.kernel.memctrl_pct":      {100 * ratio(float64(acc.blame.Sum("kernel/memctrl.")), kernel), "%"},

		"trace.overhead_pct": {100 * ratio(wallOf(traced)-wallOf(untraced), wallOf(untraced)), "%"},
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
