package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"dramless"
)

// cmdBlame answers "where did the time go": it simulates one system x
// kernel cell with tracing forced on, prints the hierarchical blame
// tree (phase -> component -> cause, exact to the picosecond) and the
// kernel phase's critical path. With a file argument it renders a
// previously exported account instead of simulating (`dramless diff`
// explains the delta between two exports).
func cmdBlame(args []string) {
	fs := flag.NewFlagSet("blame", flag.ExitOnError)
	sysName := fs.String("system", "DRAM-less", "system organization (see list)")
	kernelName := fs.String("kernel", "gemver", "workload (see list)")
	scale := fs.Int64("scale", 256<<10, "footprint scale in bytes")
	schedName := fs.String("scheduler", "", "override PRAM controller policy (any registry name)")
	top := fs.Int("top", 10, "rows in the critical-path table (0 = all)")
	asJSON := fs.Bool("json", false, "emit the blame account as JSON instead of the text report")
	out := fs.String("o", "", "also export the blame account JSON to this file")
	fs.Parse(args)

	switch paths := fs.Args(); len(paths) {
	case 0:
		// Simulate below.
	case 1:
		b := readBlameFile(paths[0])
		if *asJSON {
			if err := b.WriteJSON(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			return
		}
		fmt.Printf("blame account from %s (wall %s):\n\n", paths[0], fmtPS(blameWall(b)))
		if err := b.WriteTree(os.Stdout, fmtPS); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	default:
		fmt.Fprintln(os.Stderr, "usage: dramless blame [flags] [blame.json] (compare two with `dramless diff a.json b.json`)")
		os.Exit(2)
	}

	kind := systemKind(*sysName)
	w, err := dramless.WorkloadByName(*kernelName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// Tracing is forced on: the blame tree is always-on accounting, but
	// the critical path needs the span forest.
	observer := dramless.NewObserver(dramless.WithTracing())
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

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := res.Blame.WriteJSON(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *asJSON {
		if err := res.Blame.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("%s running %s (%s), footprint %d KiB\n", kind, w.Name, w.Class, res.Footprint>>10)
	fmt.Printf("total %v   (load %v | kernel %v | store %v)\n\n", res.Total, res.Load, res.Kernel, res.Store)

	fmt.Println("blame (simulated time, exact to the picosecond):")
	if err := res.Blame.WriteTree(os.Stdout, fmtPS); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	printCriticalPath(os.Stdout, observer.Tracer(), *top)
	if *out != "" {
		fmt.Printf("\nblame account exported to %s (diff two runs with `dramless diff a.json b.json`)\n", *out)
	}
}

// printCriticalPath extracts the kernel phase's critical path from the
// traced span forest and prints the top rows grouped by span identity.
// The segment durations tile the kernel wall exactly, so the printed
// total always equals the wall.
func printCriticalPath(w io.Writer, tr *dramless.Tracer, top int) {
	var kStart, kEnd dramless.Time
	for _, e := range tr.Events() {
		if e.Proc == "system" && e.Name == "kernel" {
			kStart, kEnd = e.Start, e.End
		}
	}
	if kEnd <= kStart {
		fmt.Fprintln(w, "\nno kernel span recorded; critical path unavailable")
		return
	}
	segs := tr.CriticalPath(kStart, kEnd)

	type groupKey struct{ proc, track, name string }
	totals := map[groupKey]dramless.Duration{}
	counts := map[groupKey]int{}
	var order []groupKey
	var total dramless.Duration
	for _, s := range segs {
		total += s.Dur()
		k := groupKey{s.Proc, s.Track, s.Name}
		if _, seen := totals[k]; !seen {
			order = append(order, k)
		}
		totals[k] += s.Dur()
		counts[k]++
	}
	sort.SliceStable(order, func(i, j int) bool { return totals[order[i]] > totals[order[j]] })
	shown := len(order)
	if top > 0 && top < shown {
		shown = top
	}

	fmt.Fprintf(w, "\ncritical path over the kernel phase (%d segments, path total %v = kernel wall):\n",
		len(segs), total)
	fmt.Fprintf(w, "  %-12s %-10s %-22s %6s %12s\n", "proc", "track", "span", "segs", "blocking")
	for _, k := range order[:shown] {
		proc, track, name := k.proc, k.track, k.name
		if proc == "" {
			proc, track, name = "(idle)", "-", "no recorded span active"
		}
		fmt.Fprintf(w, "  %-12s %-10s %-22s %6d %12v  %5.1f%%\n",
			proc, track, name, counts[k], totals[k], 100*float64(totals[k])/float64(total))
	}
	if shown < len(order) {
		var rest dramless.Duration
		for _, k := range order[shown:] {
			rest += totals[k]
		}
		fmt.Fprintf(w, "  %-12s %-10s %-22s %6s %12v  %5.1f%%\n",
			"...", "", fmt.Sprintf("(%d more)", len(order)-shown), "", rest, 100*float64(rest)/float64(total))
	}
}

// readBlameFile parses one `dramless blame -o` / `-json` export.
func readBlameFile(path string) *dramless.Blame {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	b, err := dramless.ReadBlame(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
		os.Exit(1)
	}
	return b
}

// blameWall sums an account's three phase scopes — the run's total wall.
// (Sum("") would also pick up the informational raw/ accounts, which are
// inclusive and would double-count.)
func blameWall(b *dramless.Blame) int64 {
	return b.Sum("load/") + b.Sum("kernel/") + b.Sum("store/")
}
