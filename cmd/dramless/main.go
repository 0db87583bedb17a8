// Command dramless regenerates the paper's tables and figures and runs
// individual system x workload simulations.
//
// Usage:
//
//	dramless experiments [-full] [-scale N] [-kernels a,b,c] [-parallel N] [id ...]
//	dramless run -system DRAM-less -kernel gemver [-scale N]
//	dramless blame -system DRAM-less -kernel gemver [-top N]
//	dramless diff [-top N] [-fail-over F] a.json b.json
//	dramless arena [-policies a,b] [-systems x,y] [-kernels a,b,c]
//	dramless list
//
// With no experiment ids, every table and figure is regenerated in paper
// order.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"dramless"
)

// profileFlags registers -cpuprofile/-memprofile on fs. Call the returned
// start function after fs.Parse; it begins CPU profiling and returns the
// stop function that finishes the CPU profile and writes the heap profile
// (run it before exiting, including error exits).
func profileFlags(fs *flag.FlagSet) (start func() func()) {
	cpu := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memp := fs.String("memprofile", "", "write a heap profile to this file on exit")
	return func() func() {
		if *cpu != "" {
			f, err := os.Create(*cpu)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		return func() {
			if *cpu != "" {
				pprof.StopCPUProfile()
			}
			if *memp != "" {
				f, err := os.Create(*memp)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				runtime.GC() // materialize the final live set
				if err := pprof.WriteHeapProfile(f); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				f.Close()
			}
		}
	}
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "experiments":
		cmdExperiments(os.Args[2:])
	case "arena":
		cmdArena(os.Args[2:])
	case "run":
		cmdRun(os.Args[2:])
	case "trace":
		cmdTrace(os.Args[2:])
	case "report":
		cmdReport(os.Args[2:])
	case "blame":
		cmdBlame(os.Args[2:])
	case "diff":
		cmdDiff(os.Args[2:])
	case "list":
		cmdList()
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `dramless - HPCA'20 "DRAM-less" reproduction harness

commands:
  experiments [-full] [-scale bytes] [-kernels a,b,c] [-parallel N]
        [-scheduler name] [-slowest N] [id ...]
        regenerate the paper's tables/figures (default: all of them);
        -scheduler overrides the DRAM-less PRAM scheduling policy for
        every cell (any registered policy name), except in the
        scheduler-sweep tables fig12, fig13 and sec5-interleave, which
        set the policy per column (arena takes -policies instead);
        -parallel bounds the simulation worker pool (0 = GOMAXPROCS,
        1 = serial) - output is byte-identical at any setting;
        -slowest lists the N slowest cells by host wall-clock, each
        tagged with whether it forked a cached populate/load prefix
        checkpoint or simulated it cold
  arena [-full] [-scale bytes] [-kernels a,b,c] [-policies a,b]
        [-systems x,y] [-parallel N] [-json]
        scheduler tournament: run every registered scheduling policy
        (or the -policies subset) x every kernel on the -systems
        organizations (default DRAM-less) and rank them against the
        paper's final scheduler, with mean/p99/d-p99 read latency
        from the histogram layer; byte-identical at any -parallel
  run   -system <name> -kernel <name> [-scale bytes] [-scheduler name]
        [-trace out.json] [-hist out.json] [-series out.json] [-counters]
        one end-to-end system simulation with full breakdowns;
        -trace records a simulated-time timeline (open the JSON in
        chrome://tracing), -hist exports per-instrument latency
        histograms and -series windowed time series (.csv extension
        selects CSV, anything else JSON), -counters prints the hardware
        counters, -scheduler selects any registered PRAM scheduling
        policy by name (bare-metal, interleaving, selective-erasing,
        final, palp, pause-aware, wear-aware, ...)
  report [-json] [-cdf instrument] <hist.json>
        render the percentile table (p50/p90/p99/p999/max) of a -hist
        export; -cdf prints the named instrument's text CDF; -json
        emits the table (or CDF) as machine-readable JSON
  blame [-system name] [-kernel name] [-scale bytes] [-scheduler name]
        [-top N] [-json] [-o blame.json] [blame.json]
        answer "where did the time go": simulate one cell with tracing
        forced on, print the exact phase->component->cause blame tree
        (accounts sum to each phase wall to the picosecond) and the
        kernel phase's critical path (-top rows); -o exports the
        account as JSON; with a file argument render a previous export
        instead of simulating
  diff  [-top N] [-fail-over F] <A.json> <B.json>
        compare two -hist exports or two blame exports: pair the
        instruments (accounts) by name and rank them by |B-A| of p99
        (ps), with "only in A/B" rows; a blame diff leads with the
        load/kernel/store totals; -fail-over exits 1 when any B exceeds
        its A by more than that fraction or data present in A is
        missing or empty in B

  experiments and run both take -cpuprofile / -memprofile <file> to
  capture pprof profiles of the simulation (see DESIGN.md §8).
  trace [-addr N] [-n bytes] [-write] [-scheduler name]
        dump the LPDDR2-NVM command stream one access produces
  list  show experiment ids, system names and workloads`)
}

func cmdList() {
	fmt.Println("experiments:")
	for _, id := range dramless.ExperimentIDs() {
		fmt.Printf("  %s\n", id)
	}
	fmt.Println("systems:")
	for _, k := range dramless.SystemKinds() {
		fmt.Printf("  %s\n", k)
	}
	fmt.Println("workloads:")
	for _, w := range dramless.Workloads() {
		fmt.Printf("  %-8s %s\n", w.Name, w.Class)
	}
}

func cmdExperiments(args []string) {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	full := fs.Bool("full", false, "paper-scale footprints (slow)")
	asJSON := fs.Bool("json", false, "emit JSON instead of tables")
	scale := fs.Int64("scale", 0, "override footprint scale in bytes")
	kernels := fs.String("kernels", "", "comma-separated kernel subset")
	parallel := fs.Int("parallel", 0, "simulation worker pool size (0 = GOMAXPROCS, 1 = serial)")
	schedName := fs.String("scheduler", "", "override the DRAM-less PRAM scheduling policy for every cell by registry `name`; not applied to the scheduler-sweep tables fig12, fig13 and sec5-interleave, nor to the arena command")
	slowest := fs.Int("slowest", 0, "report the N slowest simulation cells with prefix cache hit/miss")
	startProf := profileFlags(fs)
	fs.Parse(args)
	if *scale < 0 {
		fmt.Fprintf(os.Stderr, "experiments: -scale must be >= 0 (0 keeps the default), got %d\n", *scale)
		os.Exit(2)
	}
	stopProf := startProf()
	defer stopProf()

	o := dramless.FastExperiments()
	if *full {
		o = dramless.FullExperiments()
	}
	if *scale > 0 {
		o.Scale = *scale
	}
	if *kernels != "" {
		o.Kernels = strings.Split(*kernels, ",")
	}
	o.Parallelism = *parallel
	if *schedName != "" {
		o.Policy = policyName(*schedName)
	}

	ids := fs.Args()
	if len(ids) == 0 {
		ids = dramless.ExperimentIDs()
	}
	// One engine for the whole invocation: experiments share a result
	// cache (fig15/16/17 walk the same system x kernel matrix) and
	// distinct simulations spread over the worker pool.
	eng := dramless.NewExperimentEngine(o)
	wall := time.Now()
	for _, id := range ids {
		start := time.Now()
		tab, err := eng.Table(id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			stopProf()
			os.Exit(1)
		}
		if *asJSON {
			doc, err := tab.JSON()
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			os.Stdout.Write(doc)
			fmt.Println()
		} else {
			tab.Print(os.Stdout)
			fmt.Printf("(%s in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
		}
	}
	if !*asJSON {
		fmt.Printf("engine: %s; prefixes: %s; wall %v\n",
			eng.Stats(), eng.PrefixStats(), time.Since(wall).Round(time.Millisecond))
	}
	if *slowest > 0 {
		fmt.Printf("slowest %d cells (host wall-clock):\n", *slowest)
		for _, ct := range eng.SlowestCells(*slowest) {
			tag := "prefix-cold"
			if ct.PrefixHit {
				tag = "prefix-fork"
			}
			// The blame column names where the cell's kernel wall went:
			// its largest kernel-phase account and that account's share.
			blame := ""
			if ct.BlameTop != "" {
				blame = fmt.Sprintf("  kernel: %s %.1f%%", ct.BlameTop, float64(ct.BlameTopMille)/10)
			}
			fmt.Printf("  %-10v %-22s %-8s %s%s\n", ct.Wall.Round(time.Microsecond), ct.Kind, ct.Kernel, tag, blame)
		}
	}
}

func cmdTrace(args []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	addr := fs.Uint64("addr", 0, "target byte address")
	n := fs.Int("n", 128, "access size in bytes")
	write := fs.Bool("write", false, "trace a write instead of a read")
	schedName := fs.String("scheduler", "final", "scheduling policy (any registry name, e.g. final, palp, pause-aware)")
	fs.Parse(args)
	if *n <= 0 {
		fmt.Fprintf(os.Stderr, "trace: -n must be positive, got %d\n", *n)
		os.Exit(2)
	}

	sched, err := dramless.PolicyByName(*schedName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	pram, ready, err := dramless.NewPRAM(
		dramless.WithCapacityRows(1<<16),
		dramless.WithPolicy(sched))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	pram.EnableTrace(true)
	op := "read"
	var done dramless.Time
	if *write {
		op = "write"
		done, err = pram.Write(ready, *addr, make([]byte, *n))
	} else {
		_, done, err = pram.Read(ready, *addr, *n)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("%s of %d B at %#x under %s: accepted after %v (drain %v)\n\n",
		op, *n, *addr, sched.Name(), done-ready, pram.Drain()-ready)
	for ch := 0; ch < 2; ch++ {
		for pkg := 0; pkg < 16; pkg++ {
			cmds := pram.Trace(ch, pkg)
			if len(cmds) == 0 {
				continue
			}
			fmt.Printf("channel %d, package %d:\n", ch, pkg)
			for i, c := range cmds {
				fmt.Printf("  %2d: %v\n", i, c)
			}
		}
	}
}

// cmdArena runs the scheduler tournament: every registered policy (or
// the -policies subset) x every kernel on the -systems organizations,
// ranked against the paper's final scheduler.
func cmdArena(args []string) {
	fs := flag.NewFlagSet("arena", flag.ExitOnError)
	full := fs.Bool("full", false, "paper-scale footprints (slow)")
	asJSON := fs.Bool("json", false, "emit JSON instead of a table")
	scale := fs.Int64("scale", 0, "override footprint scale in bytes")
	kernels := fs.String("kernels", "", "comma-separated kernel subset")
	parallel := fs.Int("parallel", 0, "simulation worker pool size (0 = GOMAXPROCS, 1 = serial)")
	policies := fs.String("policies", "", "comma-separated policy subset (default: every registered policy)")
	systems := fs.String("systems", "", "comma-separated organizations (default: DRAM-less)")
	startProf := profileFlags(fs)
	fs.Parse(args)
	if *scale < 0 {
		fmt.Fprintf(os.Stderr, "arena: -scale must be >= 0 (0 keeps the default), got %d\n", *scale)
		os.Exit(2)
	}
	stopProf := startProf()
	defer stopProf()

	o := dramless.FastExperiments()
	if *full {
		o = dramless.FullExperiments()
	}
	if *scale > 0 {
		o.Scale = *scale
	}
	if *kernels != "" {
		o.Kernels = strings.Split(*kernels, ",")
	}
	o.Parallelism = *parallel

	var pols []string
	if *policies != "" {
		for _, name := range strings.Split(*policies, ",") {
			pols = append(pols, policyName(strings.TrimSpace(name)))
		}
	}
	var kinds []dramless.SystemKind
	if *systems != "" {
		for _, name := range strings.Split(*systems, ",") {
			kinds = append(kinds, systemKind(name))
		}
	}

	eng := dramless.NewExperimentEngine(o)
	wall := time.Now()
	tab, err := eng.Arena(pols, kinds)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		stopProf()
		os.Exit(1)
	}
	if *asJSON {
		doc, err := tab.JSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Stdout.Write(doc)
		fmt.Println()
		return
	}
	tab.Print(os.Stdout)
	fmt.Printf("engine: %s; prefixes: %s; wall %v\n",
		eng.Stats(), eng.PrefixStats(), time.Since(wall).Round(time.Millisecond))
}

// systemKind resolves a system organization name, case-insensitively and
// ignoring surrounding spaces; an unknown name exits 2, quoted trimmed.
func systemKind(name string) dramless.SystemKind {
	name = strings.TrimSpace(name)
	for _, k := range dramless.SystemKinds() {
		if strings.EqualFold(k.String(), name) {
			return k
		}
	}
	fmt.Fprintf(os.Stderr, "unknown system %q (see `dramless list`)\n", name)
	os.Exit(2)
	return 0
}

// policyName resolves a scheduling policy name to its canonical registry
// name; an unknown name exits 2 with the registry's error.
func policyName(name string) string {
	p, err := dramless.PolicyByName(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	return p.Name()
}

// share returns part's fraction of total (0 when total is 0).
func share(part, total float64) float64 {
	if total == 0 {
		return 0
	}
	return part / total
}

func cmdRun(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	sysName := fs.String("system", "DRAM-less", "system organization (see list)")
	kernelName := fs.String("kernel", "gemver", "workload (see list)")
	scale := fs.Int64("scale", 256<<10, "footprint scale in bytes")
	schedName := fs.String("scheduler", "", "override PRAM controller policy (any registry name, e.g. final, palp, pause-aware)")
	traceOut := fs.String("trace", "", "record a simulated-time timeline to this file (chrome://tracing JSON)")
	histOut := fs.String("hist", "", "export latency histograms to this file (.csv for CSV, else JSON)")
	seriesOut := fs.String("series", "", "export simulated-time series to this file (.csv for CSV, else JSON)")
	counters := fs.Bool("counters", false, "print the run's hardware counters")
	startProf := profileFlags(fs)
	fs.Parse(args)
	stopProf := startProf()
	defer stopProf()

	kind := systemKind(*sysName)
	w, err := dramless.WorkloadByName(*kernelName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var obsOpts []dramless.ObserverOption
	if *traceOut != "" {
		obsOpts = append(obsOpts, dramless.WithTracing())
	}
	observer := dramless.NewObserver(obsOpts...)
	cfg := dramless.NewSystemConfig(kind, dramless.WithObserver(observer))
	cfg.Scale = *scale
	if *schedName != "" {
		cfg.Policy = policyName(*schedName)
	}
	res, err := dramless.RunSystem(cfg, w)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := observer.WriteTrace(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("timeline: %s (open in chrome://tracing or https://ui.perfetto.dev)\n\n", *traceOut)
	}
	if *histOut != "" {
		if err := writeExport(*histOut, observer.Histograms().WriteJSON, observer.Histograms().WriteCSV); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("latency histograms: %s (render with `dramless report %s`)\n", *histOut, *histOut)
	}
	if *seriesOut != "" {
		if err := writeExport(*seriesOut, observer.Series().WriteJSON, observer.Series().WriteCSV); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("time series: %s\n", *seriesOut)
	}

	fmt.Printf("%s running %s (%s), footprint %d KiB\n\n", kind, w.Name, w.Class, res.Footprint>>10)
	fmt.Printf("total %v   (load %v | kernel %v | store %v)\n", res.Total, res.Load, res.Kernel, res.Store)
	fmt.Printf("throughput %.1f MB/s\n\n", res.BandwidthMBps())

	fmt.Println("time decomposition:")
	parts := res.TimeParts()
	var wall float64
	for _, p := range parts {
		wall += p.Seconds
	}
	for _, p := range parts {
		fmt.Printf("  %-10s %6.1f%%\n", p.Name, share(p.Seconds, wall)*100)
	}
	fmt.Println("energy decomposition:")
	bd := res.Energy.Breakdown()
	for _, k := range bd.Keys() {
		if bd.Get(k) == 0 {
			continue
		}
		fmt.Printf("  %-12s %10.4g J  (%4.1f%%)\n", k, bd.Get(k), share(bd.Get(k), res.Energy.Total())*100)
	}
	fmt.Printf("total energy %.4g J\n\n", res.Energy.Total())

	rep := res.Report
	fmt.Printf("kernel phase: %d instructions on %d agents, aggregate IPC %.2f\n",
		rep.Instrs, len(rep.Agents), rep.TotalIPC(1e9))
	var l1, l2 float64
	for _, ag := range rep.Agents {
		l1 += ag.L1.HitRate()
		l2 += ag.L2.HitRate()
	}
	n := float64(len(rep.Agents))
	fmt.Printf("cache hit rates: L1 %.0f%%  L2 %.0f%%\n", 100*l1/n, 100*l2/n)

	if *counters {
		fmt.Println("\nhardware counters:")
		if _, err := res.Counters.WriteTo(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
