// Command benchjson compares two sets of `go test -bench` results
// paired by repetition: base (the parent commit) and head (the working
// tree), run interleaved on one host so both sides meet the same host
// state. The i-th result of a benchmark in the base file pairs with the
// i-th result of that benchmark in the head file; each pair gives one
// head/base ns/op ratio, and a benchmark regresses when the median of its
// ratios exceeds 1 + -threshold. `make bench-compare` produces the two
// files:
//
//	benchjson -base base.txt -head head.txt -base-commit C -out FILE
//
// Per-benchmark medians go to stderr, the document (both commits, both
// sides' ns/op per pair and median metrics, the ratios) to -out, and the
// exit status is 1 when any benchmark regressed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// result is one benchmark line.
type result struct {
	Name    string
	Metrics map[string]float64
}

// run is one parsed `go test -bench` output: the host header and every
// result line, repetitions of a benchmark in the order they ran.
type run struct {
	goos, goarch, pkg, cpu string
	results                map[string][]result
	order                  []string // first-seen benchmark order
}

// side names the code one set of results measured.
type side struct {
	Commit string `json:"commit"`
	Dirty  bool   `json:"dirty,omitempty"`
}

// pair is one benchmark's paired comparison.
type pair struct {
	Name        string             `json:"name"`
	BaseNs      []float64          `json:"base_ns_per_op"`
	HeadNs      []float64          `json:"head_ns_per_op"`
	Ratios      []float64          `json:"ratios"`
	MedianRatio float64            `json:"median_ratio"`
	BaseMetrics map[string]float64 `json:"base_metrics"`
	HeadMetrics map[string]float64 `json:"head_metrics"`
}

// document is the emitted file. GOMAXPROCS and NumCPU pin the host
// shape the pairs ran on.
type document struct {
	Goos       string  `json:"goos,omitempty"`
	Goarch     string  `json:"goarch,omitempty"`
	Pkg        string  `json:"pkg,omitempty"`
	CPU        string  `json:"cpu,omitempty"`
	GoMaxProcs int     `json:"gomaxprocs"`
	NumCPU     int     `json:"numcpu"`
	Threshold  float64 `json:"threshold"`
	Base       side    `json:"base"`
	Head       side    `json:"head"`
	Benchmarks []pair  `json:"benchmarks"`
}

// gitCommit returns the current HEAD hash plus a dirty marker when the
// working tree has uncommitted changes. Best-effort: outside a git
// checkout both stay zero.
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
	basePath := flag.String("base", "", "go test -bench output of the base side")
	headPath := flag.String("head", "", "go test -bench output of the head side")
	baseCommit := flag.String("base-commit", "", "commit the base side was built from")
	out := flag.String("out", "", "write the comparison document here")
	threshold := flag.Float64("threshold", 0.10, "fail when a median head/base ns/op ratio exceeds 1 + this")
	flag.Parse()
	if *basePath == "" || *headPath == "" {
		fmt.Fprintln(os.Stderr, "benchjson: -base and -head are required")
		os.Exit(2)
	}
	base, err := parseFile(*basePath)
	if err == nil {
		var head run
		head, err = parseFile(*headPath)
		if err == nil {
			err = compare(base, head, *baseCommit, *threshold, *out)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// compare pairs head against base, prints one line per benchmark,
// writes the document to out (when set) and returns an error when any
// benchmark regressed.
func compare(base, head run, baseCommit string, threshold float64, out string) error {
	doc := document{
		Goos: head.goos, Goarch: head.goarch, Pkg: head.pkg, CPU: head.cpu,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Threshold:  threshold,
		Base:       side{Commit: baseCommit},
		Benchmarks: []pair{},
	}
	doc.Head.Commit, doc.Head.Dirty = gitCommit()
	regressions := 0
	for _, name := range head.order {
		hs, bs := head.results[name], base.results[name]
		n := min(len(hs), len(bs))
		if n == 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %-45s (head only, not compared)\n", name)
			continue
		}
		if len(hs) != len(bs) {
			fmt.Fprintf(os.Stderr, "benchjson: %s: %d base and %d head repetitions; pairing the first %d\n", name, len(bs), len(hs), n)
		}
		p := pair{Name: name, BaseMetrics: medianMetrics(bs[:n]), HeadMetrics: medianMetrics(hs[:n])}
		for i := 0; i < n; i++ {
			b, h := bs[i].Metrics["ns/op"], hs[i].Metrics["ns/op"]
			p.BaseNs = append(p.BaseNs, b)
			p.HeadNs = append(p.HeadNs, h)
			p.Ratios = append(p.Ratios, round4(h/b))
		}
		p.MedianRatio = round4(median(p.Ratios))
		mark := ""
		if p.MedianRatio > 1+threshold {
			mark = "  REGRESSION"
			regressions++
		}
		fmt.Fprintf(os.Stderr, "benchjson: %-45s %14.0f ns/op  vs %14.0f  median ratio %.3f over %d pairs (%.3f-%.3f)%s\n",
			name, p.HeadMetrics["ns/op"], p.BaseMetrics["ns/op"], p.MedianRatio, n,
			slices.Min(p.Ratios), slices.Max(p.Ratios), mark)
		doc.Benchmarks = append(doc.Benchmarks, p)
	}
	for _, name := range base.order {
		if _, ok := head.results[name]; !ok {
			fmt.Fprintf(os.Stderr, "benchjson: %-45s (base only, not compared)\n", name)
		}
	}
	if len(doc.Benchmarks) == 0 {
		return fmt.Errorf("benchjson: no benchmark ran on both sides")
	}
	if out != "" {
		enc, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(enc, '\n'), 0o644); err != nil {
			return err
		}
	}
	if regressions > 0 {
		return fmt.Errorf("benchjson: %d benchmark(s) slower than base by more than %.0f%% in the median pair", regressions, threshold*100)
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) within %.0f%% of base (%.12s) in the median pair\n",
		len(doc.Benchmarks), threshold*100, baseCommit)
	return nil
}

// median returns the median of xs (the mean of the middle two for an
// even count). xs is not modified.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// medianMetrics returns each metric's median over the repetitions.
func medianMetrics(rs []result) map[string]float64 {
	vals := map[string][]float64{}
	for _, r := range rs {
		for k, v := range r.Metrics {
			vals[k] = append(vals[k], v)
		}
	}
	out := make(map[string]float64, len(vals))
	for k, vs := range vals {
		out[k] = median(vs)
	}
	return out
}

func round4(x float64) float64 { return math.Round(x*1e4) / 1e4 }

// parseFile reads one `go test -bench` output.
func parseFile(path string) (run, error) {
	f, err := os.Open(path)
	if err != nil {
		return run{}, fmt.Errorf("benchjson: %w", err)
	}
	defer f.Close()
	r := run{results: map[string][]result{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			r.goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			r.goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			r.pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			r.cpu = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			res, ok := parseLine(line)
			if !ok || res.Metrics["ns/op"] <= 0 {
				continue
			}
			if _, seen := r.results[res.Name]; !seen {
				r.order = append(r.order, res.Name)
			}
			r.results[res.Name] = append(r.results[res.Name], res)
		}
	}
	if err := sc.Err(); err != nil {
		return run{}, fmt.Errorf("benchjson: %s: %w", path, err)
	}
	return r, nil
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
	if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
		return result{}, false
	}
	r := result{Name: name, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return result{}, false
		}
		r.Metrics[fields[i+1]] = v
	}
	return r, len(r.Metrics) > 0
}
