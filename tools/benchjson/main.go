// Command benchjson converts `go test -bench` output on stdin into a
// JSON benchmark-trajectory document. Every metric pair of each result
// line is kept (ns/op, B/op, allocs/op and any custom b.ReportMetric
// unit — e.g. BenchmarkAllExperiments' events/sec dispatch throughput,
// which attributes suite speedups to the event kernel rather than to
// caching), so the emitted file pins the per-figure wall-clock and
// allocation counts the repo tracks across PRs:
//
//	go test -run '^$' -bench . -benchmem . | benchjson -out BENCH_suite.json
//
// Repeated results for one benchmark (`go test -count N`) collapse to
// the repetition with the lowest ns/op. Host load spikes only ever slow
// a deterministic benchmark down, so min-of-N is the noise-robust
// estimator; record and compare with the same -count so both sides get
// the same treatment.
//
// With -compare, the parsed results are instead diffed against a
// committed baseline document and nothing is written: per-benchmark
// ns/op deltas go to stderr and the exit status is 1 when any benchmark
// regressed by more than -threshold (fractional, default 0.10):
//
//	go test -run '^$' -bench . . | benchjson -compare BENCH_suite.json
//
// Input lines are echoed to stdout, so the tool tees transparently.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// result is one benchmark line.
type result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// document is the emitted file. GOMAXPROCS and NumCPU pin the host
// shape the numbers were recorded on: min-of-N ns/op is only comparable
// between runs with the same available parallelism (the experiment
// engine's worker pool scales with it), so -compare warns when they
// differ instead of silently flapping.
type document struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	Pkg        string   `json:"pkg,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	GoMaxProcs int      `json:"gomaxprocs,omitempty"`
	NumCPU     int      `json:"numcpu,omitempty"`
	Commit     string   `json:"commit,omitempty"`
	Dirty      bool     `json:"dirty,omitempty"`
	Benchmarks []result `json:"benchmarks"`
}

// gitCommit stamps the recorded numbers with the code they measured:
// the current HEAD hash plus a dirty marker when the working tree has
// uncommitted changes. Best-effort — outside a git checkout (or without
// a git binary) both stay zero and the fields are omitted.
func gitCommit() (commit string, dirty bool) {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "", false
	}
	commit = strings.TrimSpace(string(out))
	if status, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
		dirty = len(strings.TrimSpace(string(status))) > 0
	}
	return commit, dirty
}

func main() {
	out := flag.String("out", "BENCH_suite.json", "output JSON file")
	compare := flag.String("compare", "", "baseline JSON file: diff ns/op against it instead of writing")
	threshold := flag.Float64("threshold", 0.10, "with -compare, fail on ns/op regressions above this fraction")
	flag.Parse()

	doc := document{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Benchmarks: []result{},
	}
	doc.Commit, doc.Dirty = gitCommit()
	byName := map[string]int{} // first-seen order, min ns/op wins
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			doc.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			r, ok := parseLine(line)
			if !ok {
				continue
			}
			i, seen := byName[r.Name]
			switch {
			case !seen:
				byName[r.Name] = len(doc.Benchmarks)
				doc.Benchmarks = append(doc.Benchmarks, r)
			case r.Metrics["ns/op"] < doc.Benchmarks[i].Metrics["ns/op"]:
				// Keep the whole fastest repetition, not a per-metric
				// mix, so B/op and allocs/op stay from one coherent run.
				doc.Benchmarks[i] = r
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *compare != "" {
		ok, err := compareBaseline(doc, *compare, *threshold)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(doc.Benchmarks), *out)
}

// compareBaseline diffs ns/op of the parsed results against the
// baseline document at path, printing one line per benchmark to stderr.
// It reports false when any benchmark shared with the baseline slowed
// down by more than threshold (fractional).
func compareBaseline(doc document, path string, threshold float64) (bool, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return false, fmt.Errorf("benchjson: read baseline: %w", err)
	}
	var base document
	if err := json.Unmarshal(raw, &base); err != nil {
		return false, fmt.Errorf("benchjson: parse baseline %s: %w", path, err)
	}
	// Host-shape mismatch is a warning, not a failure: the deltas still
	// print, but they are not apples to apples. Baselines recorded before
	// the fields existed (both zero) skip the check.
	if base.GoMaxProcs != 0 || base.NumCPU != 0 {
		if base.GoMaxProcs != doc.GoMaxProcs || base.NumCPU != doc.NumCPU {
			fmt.Fprintf(os.Stderr,
				"benchjson: WARNING: host shape differs from baseline %s: GOMAXPROCS %d vs %d, NumCPU %d vs %d — ns/op deltas are not comparable\n",
				path, doc.GoMaxProcs, base.GoMaxProcs, doc.NumCPU, base.NumCPU)
		}
	}
	if base.Commit != "" && base.Commit != doc.Commit {
		dirty := ""
		if base.Dirty {
			dirty = " (dirty tree)"
		}
		fmt.Fprintf(os.Stderr, "benchjson: baseline %s was recorded at commit %.12s%s\n",
			path, base.Commit, dirty)
	}
	baseNs := make(map[string]float64, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		if ns, ok := b.Metrics["ns/op"]; ok && ns > 0 {
			baseNs[b.Name] = ns
		}
	}
	if len(doc.Benchmarks) == 0 {
		return false, fmt.Errorf("benchjson: no benchmark results on stdin to compare")
	}
	regressions, compared := 0, 0
	for _, b := range doc.Benchmarks {
		ns, ok := b.Metrics["ns/op"]
		if !ok {
			continue
		}
		old, ok := baseNs[b.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchjson: %-45s %14.0f ns/op  (new, no baseline)\n", b.Name, ns)
			continue
		}
		compared++
		delta := ns/old - 1
		mark := ""
		if delta > threshold {
			mark = "  REGRESSION"
			regressions++
		}
		fmt.Fprintf(os.Stderr, "benchjson: %-45s %14.0f ns/op  vs %14.0f  %+7.1f%%%s\n",
			b.Name, ns, old, delta*100, mark)
	}
	if compared == 0 {
		return false, fmt.Errorf("benchjson: no benchmarks in common with baseline %s", path)
	}
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) regressed more than %.0f%% vs %s\n",
			regressions, threshold*100, path)
		return false, nil
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) within %.0f%% of %s\n",
		compared, threshold*100, path)
	return true, nil
}

// parseLine decodes one result line:
//
//	BenchmarkFig15_Throughput-8  1  3228537278 ns/op  218 B/op  28 allocs/op
//
// Fields after the iteration count come in (value, unit) pairs.
func parseLine(line string) (result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return result{}, false
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	// Strip the trailing -GOMAXPROCS suffix.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	r := result{Name: name, Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return result{}, false
		}
		r.Metrics[fields[i+1]] = v
	}
	return r, len(r.Metrics) > 0
}
