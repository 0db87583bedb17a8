// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload for a fixed host time, checks every simulated output
// against committed reference digests, and prints its metrics as one
// JSON object on the last line of standard output. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"
)

const (
	// lanes is every simulation's accel.Config.Lanes: the legacy serial
	// interleave, one goroutine per simulation.
	lanes = 0
	// workers is the experiment engine's worker count.
	workers = 1
	// defaultSeed is the seed the jobs-mix reference digests hold for.
	defaultSeed = 1
	// setupReps is how many fresh processes a run times its set-up in.
	// setup_s is the median over groups of setupGroup processes, taken
	// one after another in time, of each group's mean: a set-up lasts a
	// fraction of a second, and on a host whose speed switches between
	// a fast and a slow state a plain median jumps from one state to the
	// other as the share of slow samples crosses a half.
	setupReps  = 15
	setupGroup = 3
	// minOps and minPasses bound a run from below whatever --seconds
	// says, so op_ms_p90 has at least ten samples beyond it and wall_s
	// is a median of at least three passes.
	minOps    = 100
	minPasses = 3
	// spanDir receives the traced run's spans.
	spanDir = ".bench_build"
)

var workloadNames = []string{"arena-1m", "suite-fast", "jobs-mix"}

// bench is one workload. A pass runs every op of the workload once.
type bench interface {
	// warmup runs one untimed op, filling the storage pools.
	warmup() error
	// ops returns pass p's ops in the order the seed picks for it. The
	// reference file holds a digest for every op of pass 0.
	ops(p int) []op
	// endPass releases the pass's state and adds its layer counts to
	// acc (nil outside traced passes).
	endPass(acc *layerAcc)
}

// op is one unit of timed work. run returns the digest of its
// simulated output; tr and acc are nil outside traced passes. An
// untimed op is checked like any other but left out of the latency
// percentiles.
type op struct {
	key     string
	untimed bool
	run     func(tr *tracer, acc *layerAcc) (string, error)
}

func newBench(name string, seed int64) (bench, error) {
	switch name {
	case "arena-1m":
		return newArena(seed), nil
	case "suite-fast":
		return newSuite(seed), nil
	case "jobs-mix":
		return newJobsMix(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "arena-1m", "workload: "+fmt.Sprint(workloadNames))
	seed := flag.Int64("seed", defaultSeed, "input seed")
	seconds := flag.Int("seconds", 20, "least total time of the timed passes")
	trace := flag.Int("trace", 0, "1 runs the traced mode and prints the per-layer metrics")
	commit := flag.String("commit", "unknown", "source commit, recorded in the host record")
	regen := flag.String("regen", "", "re-simulate every reference op and rewrite the reference files in this directory, then exit")
	setupOnly := flag.Bool("setup-only", false, "set up, print "+readyLine+" and exit; a run times setup_s on such child processes")
	flag.Parse()

	if *setupOnly {
		if _, _, err := setUp(*name, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(readyLine)
		return
	}

	if *regen != "" {
		if err := regenRefs(*regen); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, host, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	host["commit"] = *commit
	hb, _ := json.Marshal(map[string]any{"host": host}) // strings, ints and finite floats only
	fmt.Println(string(hb))
	rb, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(rb))
}

// passResult is one pass's host measurements.
type passResult struct {
	traced   bool
	wall     time.Duration
	cpu      time.Duration
	alloc    uint64
	gcCycles uint32
	gcPause  time.Duration
	lat      []time.Duration
	spans    []span
	acc      *layerAcc
}

// readyLine is what a --setup-only process prints once it is set up.
const readyLine = "ready"

// setUp is everything a run does before its first timed op: it loads
// the reference digests, generates the inputs, constructs the workload
// and runs one untimed warm-up op, which fills the storage pools.
func setUp(name string, seed int64) (*refSet, bench, error) {
	refs, err := loadRefs(name)
	if err != nil {
		return nil, nil, err
	}
	w, err := newBench(name, seed)
	if err != nil {
		return nil, nil, err
	}
	if err := w.warmup(); err != nil {
		return nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	return refs, w, nil
}

// coldSetup starts this program with --setup-only and times it from
// just before its start to its ready line: process start to where its
// first timed op would begin, with empty storage pools. It also returns
// the process's CPU time, for the host record.
func coldSetup(name string, seed int64) (wall, cpu float64, err error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, 0, err
	}
	cmd := exec.Command(exe, "--setup-only", "--workload", name, "--seed", fmt.Sprint(seed))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, 0, err
	}
	line, rerr := bufio.NewReader(stdout).ReadString('\n')
	wall = time.Since(t0).Seconds()
	if err := cmd.Wait(); err != nil {
		return 0, 0, fmt.Errorf("set-up process: %w", err)
	}
	if rerr != nil || line != readyLine+"\n" {
		return 0, 0, fmt.Errorf("set-up process printed %q, want %q", line, readyLine)
	}
	return wall, (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds(), nil
}

func run(name string, seed int64, seconds time.Duration, trace bool) (*result, map[string]any, error) {
	// The run's own set-up starts with empty storage pools too, but
	// not at process start; it goes to the host record only.
	t0 := time.Now()
	refs, w, err := setUp(name, seed)
	if err != nil {
		return nil, nil, err
	}
	ownSetup := time.Since(t0).Seconds()

	// setup_s samples come from setupReps set-up processes spread evenly
	// over the timed section, between passes, so they meet the same
	// host as the passes do: a shared host's speed can change from one
	// stretch of seconds to the next.
	var setups, setupCPU []float64
	coldSetupIfDue := func(timed time.Duration) error {
		if trace || len(setups) == setupReps || timed < time.Duration(len(setups))*seconds/setupReps {
			return nil
		}
		wall, cpu, err := coldSetup(name, seed)
		if err != nil {
			return err
		}
		setups, setupCPU = append(setups, wall), append(setupCPU, cpu)
		return nil
	}

	var (
		traced, untraced  []passResult
		samples           int // op latencies in untraced passes
		attempted, failed int
		digests           = map[string]string{}
	)
	// timed is the sum of the pass times; the set-up processes between
	// passes do not count towards --seconds.
	var timed time.Duration
	steal0 := stealTicks()
	done := func() bool {
		switch {
		case timed < seconds:
			return false
		case trace: // passes alternate untraced and traced, from pass 0
			return len(traced) > 0
		}
		return len(untraced) >= minPasses && samples >= minOps
	}
	for p := 0; !done(); p++ {
		if err := coldSetupIfDue(timed); err != nil {
			return nil, nil, err
		}
		pr := passResult{traced: trace && p%2 == 1}
		var tr *tracer
		if pr.traced {
			tr, pr.acc = newTracer(p), newLayerAcc()
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		cpu0 := cpuTime()
		t0 := time.Now()
		// Every pass starts by collecting the heap, so no pass inherits
		// another's garbage. The collection is part of the pass's time.
		runtime.GC()
		for _, o := range w.ops(p) {
			attempted++
			tr.setOp(attempted)
			s := time.Now()
			d, err := o.run(tr, pr.acc)
			if !o.untimed {
				pr.lat = append(pr.lat, time.Since(s))
			}
			if err == nil {
				err = refs.check(seed, o.key, d)
			}
			// Every pass, traced or not, must reproduce the first
			// pass's simulated output op for op.
			if want, ok := digests[o.key]; err == nil && ok && want != d {
				err = fmt.Errorf("%s: digest %.12s differs from the first pass's %.12s", o.key, d, want)
			}
			if err != nil {
				failed++
				fmt.Fprintf(os.Stderr, "pass %d op %s failed: %v\n", p, o.key, err)
				continue
			}
			digests[o.key] = d
		}
		w.endPass(pr.acc)
		pr.wall = time.Since(t0)
		timed += pr.wall
		pr.cpu = cpuTime() - cpu0
		runtime.ReadMemStats(&ms1)
		pr.alloc = ms1.TotalAlloc - ms0.TotalAlloc
		pr.gcCycles = ms1.NumGC - ms0.NumGC
		pr.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
		if pr.traced {
			pr.spans = tr.spans
			traced = append(traced, pr)
		} else {
			untraced = append(untraced, pr)
			samples += len(pr.lat)
		}
	}
	steal := float64(stealTicks()-steal0) / 100 // USER_HZ
	for !trace && len(setups) < setupReps {
		if err := coldSetupIfDue(seconds); err != nil {
			return nil, nil, err
		}
	}

	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed}
	if trace {
		if name == "suite-fast" {
			if err := suiteDeviceCounts(traced[0].acc); err != nil {
				return nil, nil, err
			}
		}
		res.Metrics = layerMetrics(traced, untraced)
		if err := saveSpans(traced[0].spans, name, seed); err != nil {
			return nil, nil, err
		}
	} else {
		var ru syscall.Rusage
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail with a valid pointer
		res.Metrics = endToEnd(untraced, setups, float64(ru.Maxrss)*1024/1e6)
	}
	var passWall, passCPU, passAlloc []float64
	var passGC []uint32
	for _, p := range untraced {
		passWall = append(passWall, p.wall.Seconds())
		passCPU = append(passCPU, p.cpu.Seconds())
		passAlloc = append(passAlloc, float64(p.alloc)/1e6)
		passGC = append(passGC, p.gcCycles)
	}
	host := map[string]any{
		"workload":        name,
		"seed":            seed,
		"nproc":           runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"go":              runtime.Version(),
		"workers":         workers,
		"lanes":           lanes,
		"passes":          len(traced) + len(untraced),
		"op_samples":      samples,
		"timed_s":         timed.Seconds(),
		"steal_s":         steal,
		"setup_s_samples": setups,
		"setup_cpu_s":     setupCPU,
		"setup_s_own":     ownSetup,
		"pass_wall_s":     passWall,
		"pass_cpu_s":      passCPU,
		"pass_alloc_mb":   passAlloc,
		"pass_gc_cycles":  passGC,
	}
	fmt.Fprintf(os.Stderr, "%s seed %d: %d passes, %d ops (%d failed) in %.2fs, steal %.2fs\n",
		name, seed, len(traced)+len(untraced), attempted, failed, timed.Seconds(), steal)
	return res, host, nil
}

// endToEnd computes the user-visible metrics from the untraced passes.
// Times are medians over passes. alloc_mb is the least any pass
// allocated: the cache-line storage pool is a sync.Pool, whose entries
// sit in per-P slots after a collection, so whether a pass reuses them
// or allocates them anew depends on which P the goroutine resumes on,
// and a run can spend most of its passes either way.
func endToEnd(passes []passResult, setups []float64, rssMB float64) map[string]metric {
	var wall, cpu, alloc []float64
	var lat []float64
	for _, p := range passes {
		wall = append(wall, p.wall.Seconds())
		cpu = append(cpu, p.cpu.Seconds())
		alloc = append(alloc, float64(p.alloc)/1e6)
		for _, l := range p.lat {
			lat = append(lat, float64(l)/1e6)
		}
	}
	return map[string]metric{
		"setup_s":     {medianOfMeans(setups, setupGroup), "s"},
		"wall_s":      {median(wall), "s"},
		"cpu_s":       {median(cpu), "s"},
		"op_ms_p50":   {median(lat), "ms"},
		"op_ms_p90":   {percentile(lat, 90), "ms"},
		"alloc_mb":    {slices.Min(alloc), "MB"},
		"peak_rss_mb": {rssMB, "MB"},
	}
}

// median returns the middle value (the mean of the middle two for an
// even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOfMeans averages each group of k consecutive values of xs and
// returns the median of the means; a trailing partial group is dropped.
func medianOfMeans(xs []float64, k int) float64 {
	var means []float64
	for i := 0; i+k <= len(xs); i += k {
		var sum float64
		for _, x := range xs[i : i+k] {
			sum += x
		}
		means = append(means, sum/float64(k))
	}
	return median(means)
}

// percentile returns the nearest-rank q-th percentile of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(float64(len(s))*q/100+0.999999999) - 1
	return s[max(0, min(i, len(s)-1))]
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail with a valid pointer
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTicks reads the host-wide steal time from /proc/stat, in USER_HZ
// ticks; 0 where the file or field is unavailable.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	var user, nice, sys, idle, iowait, irq, softirq, steal int64
	if _, err := fmt.Sscanf(string(b), "cpu %d %d %d %d %d %d %d %d",
		&user, &nice, &sys, &idle, &iowait, &irq, &softirq, &steal); err != nil {
		return 0
	}
	return steal
}

// saveSpans writes one traced pass's spans to dir. Every traced pass
// runs the same ops, and one pass of jobs-mix alone records some 70k
// memctrl spans.
func saveSpans(spans []span, name string, seed int64) error {
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(spanDir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed)))
	if err != nil {
		return err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
