package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dramless"
)

// writeExport writes one observability export to path, choosing CSV when
// the extension is .csv and JSON otherwise.
func writeExport(path string, asJSON, asCSV func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	write := asJSON
	if strings.HasSuffix(path, ".csv") {
		write = asCSV
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cmdReport renders the percentile table or a text CDF of one
// `run -hist` JSON export (`dramless diff` compares two).
func cmdReport(args []string) {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	cdf := fs.String("cdf", "", "print the named instrument's text CDF instead of the percentile table")
	asJSON := fs.Bool("json", false, "emit the table as machine-readable JSON instead of text")
	fs.Parse(args)

	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: dramless report [-json] [-cdf instrument] <hist.json> (compare two with `dramless diff a.json b.json`)")
		os.Exit(2)
	}
	path := fs.Arg(0)
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	s, err := dramless.ReadHistograms(f)
	f.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
		os.Exit(1)
	}
	if err := report(os.Stdout, path, s, *cdf, *asJSON); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// report renders the requested view of one histogram export to w.
// Split from cmdReport (and given an explicit writer) so the golden
// tests can pin the output byte for byte.
func report(w io.Writer, path string, s *dramless.HistogramSet, cdf string, asJSON bool) error {
	switch {
	case cdf != "":
		h := s.Lookup(cdf)
		if h == nil {
			return fmt.Errorf("%s: no instrument %q (have %s)", path, cdf, strings.Join(s.Names(), ", "))
		}
		if asJSON {
			return printCDFJSON(w, h)
		}
		printCDF(w, h)
	case asJSON:
		return printPercentilesJSON(w, path, s)
	default:
		printPercentiles(w, s)
	}
	return nil
}

// reportPercentiles is the rendered percentile ladder.
var reportPercentiles = []float64{50, 90, 99, 99.9}

// printPercentiles renders one percentile table in registration order.
func printPercentiles(w io.Writer, s *dramless.HistogramSet) {
	fmt.Fprintf(w, "%-28s %12s %12s %12s %12s %12s %12s\n",
		"instrument", "count", "p50", "p90", "p99", "p999", "max")
	for _, h := range s.All() {
		if h.Count() == 0 {
			continue
		}
		fmt.Fprintf(w, "%-28s %12d", h.Name(), h.Count())
		for _, p := range reportPercentiles {
			fmt.Fprintf(w, " %12s", fmtPS(h.Percentile(p)))
		}
		fmt.Fprintf(w, " %12s\n", fmtPS(h.Max()))
	}
}

// printPercentilesJSON emits the percentile table as a JSON array, one
// record per non-empty instrument, all values in integer picoseconds.
// Hand-rendered so the output is byte-deterministic.
func printPercentilesJSON(w io.Writer, path string, s *dramless.HistogramSet) error {
	bw := &strings.Builder{}
	bw.WriteString("[")
	first := true
	for _, h := range s.All() {
		if h.Count() == 0 {
			continue
		}
		if !first {
			bw.WriteString(",")
		}
		first = false
		fmt.Fprintf(bw, "\n  {\"file\": %q, \"instrument\": %q, \"count\": %d", path, h.Name(), h.Count())
		labels := []string{"p50", "p90", "p99", "p999"}
		for j, p := range reportPercentiles {
			fmt.Fprintf(bw, ", %q: %d", labels[j], h.Percentile(p))
		}
		fmt.Fprintf(bw, ", \"max_ps\": %d}", h.Max())
	}
	bw.WriteString("\n]\n")
	_, err := io.WriteString(w, bw.String())
	return err
}

// printCDF renders one instrument's cumulative distribution as text:
// one line per non-empty bucket, upper bound then cumulative fraction.
// The format is plain enough to diff two runs' outputs directly.
func printCDF(w io.Writer, h *dramless.Histogram) {
	fmt.Fprintf(w, "# %s: %d samples, min %s, max %s\n", h.Name(), h.Count(), fmtPS(h.Min()), fmtPS(h.Max()))
	var cum int64
	for _, b := range h.Buckets() {
		cum += b.Count
		frac := float64(cum) / float64(h.Count())
		fmt.Fprintf(w, "%14d ps  %9.6f  %s\n", b.High-1, frac, cdfBar(frac))
	}
}

// printCDFJSON emits one instrument's CDF as a JSON array of
// (bucket upper bound, cumulative count) pairs — integers only, so the
// export is byte-deterministic and exact.
func printCDFJSON(w io.Writer, h *dramless.Histogram) error {
	bw := &strings.Builder{}
	fmt.Fprintf(bw, "{\"instrument\": %q, \"count\": %d, \"min_ps\": %d, \"max_ps\": %d, \"cdf\": [",
		h.Name(), h.Count(), h.Min(), h.Max())
	var cum int64
	for i, b := range h.Buckets() {
		if i > 0 {
			bw.WriteString(",")
		}
		cum += b.Count
		fmt.Fprintf(bw, "\n  {\"high_ps\": %d, \"cum\": %d}", b.High-1, cum)
	}
	bw.WriteString("\n]}\n")
	_, err := io.WriteString(w, bw.String())
	return err
}

// cdfBar renders a 40-column fill bar for a cumulative fraction.
func cdfBar(frac float64) string {
	n := int(frac * 40)
	return strings.Repeat("#", n) + strings.Repeat(".", 40-n)
}

// fmtPS renders a picosecond quantity with a human unit.
func fmtPS(ps int64) string {
	return dramless.Duration(ps).String()
}
