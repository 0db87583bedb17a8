package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dramless"
)

// diffSets renders `dramless diff` of two histogram sets without a gate.
func diffSets(t *testing.T, a, b *dramless.HistogramSet) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := diff(&buf, [2]string{"a.json", "b.json"}, [2]export{{hist: a}, {hist: b}}, 0, -1); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestReportComparison smoke-tests the comparison report of two
// histogram exports, which `dramless diff` prints.
func TestReportComparison(t *testing.T) {
	out := diffSets(t, goldenSet(), goldenSet())
	for _, want := range []string{"A = a.json", "B = b.json", "pram.read", "+0.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("comparison output missing %q:\n%s", want, out)
		}
	}
}

// TestReportComparisonOneSided pins the rows of instruments only one
// file registers: each side says so, and the missing side renders as
// "-" instead of a 0 ps measurement.
func TestReportComparisonOneSided(t *testing.T) {
	a, b := goldenSet(), goldenSet()
	a.Get("only.a").Record(1000)
	b.Get("only.b").Record(1000)
	b.Get("only.b").Record(2000)
	out := diffSets(t, a, b)
	for _, want := range []string{
		"only.b                                        -       1.01ns            -          2ns         +2ns  only in B\n",
		"only.a                                      1ns            -          1ns            -         -1ns  only in A\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("comparison missing %q:\n%s", want, out)
		}
	}
}

// writeHist writes a histogram export holding one instrument per name,
// each recording the samples k, 2k, ..., 100k for its step k in ps (0
// registers the instrument without samples), and returns its path.
func writeHist(t *testing.T, dir, name string, step map[string]int64) string {
	t.Helper()
	s := &dramless.HistogramSet{}
	for _, n := range []string{"a.read_ps", "b.write_ps", "c.flush_ps", "d.new_ps"} {
		k, ok := step[n]
		if !ok {
			continue
		}
		h := s.Get(n)
		for v := int64(1); k > 0 && v <= 100; v++ {
			h.Record(v * k)
		}
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := s.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	return path
}

// readExportFile parses one export file the way `dramless diff` does.
func readExportFile(t *testing.T, path string) export {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := readExport(data)
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

// TestCompareHistograms pins the -fail-over gate on histogram exports
// (the `make hist-compare` latency gate): a p99 regression over the
// threshold, a vanished instrument, an emptied one and no instrument in
// common each exit 1; identical exports and a change within the
// threshold pass.
func TestCompareHistograms(t *testing.T) {
	dir := t.TempDir()
	base := writeHist(t, dir, "base.json", map[string]int64{"a.read_ps": 1000, "b.write_ps": 2000, "c.flush_ps": 3000})
	for _, tc := range []struct {
		name   string
		cur    map[string]int64
		pass   bool
		report string
	}{
		{"identical", map[string]int64{"a.read_ps": 1000, "b.write_ps": 2000, "c.flush_ps": 3000}, true, "3 instrument(s) within 10% of A"},
		{"within threshold", map[string]int64{"a.read_ps": 1000, "b.write_ps": 2100, "c.flush_ps": 3000, "d.new_ps": 9000}, true, "3 instrument(s) within 10% of A"},
		{"p99 regression", map[string]int64{"a.read_ps": 1000, "b.write_ps": 4000, "c.flush_ps": 3000}, false, "REGRESSION b.write_ps: 200ns -> 400ns (+100.0% over A)"},
		{"vanished instrument", map[string]int64{"a.read_ps": 1000, "b.write_ps": 2000}, false, "REGRESSION c.flush_ps: missing or empty in B"},
		{"emptied instrument", map[string]int64{"a.read_ps": 1000, "b.write_ps": 2000, "c.flush_ps": 0}, false, "REGRESSION c.flush_ps: missing or empty in B"},
		{"no instruments in common", map[string]int64{"d.new_ps": 9000}, false, "no instruments with data in both A and B"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cur := writeHist(t, t.TempDir(), "cur.json", tc.cur)
			var out bytes.Buffer
			pass, err := diff(&out, [2]string{base, cur},
				[2]export{readExportFile(t, base), readExportFile(t, cur)}, 10, 0.10)
			if err != nil {
				t.Fatal(err)
			}
			if pass != tc.pass || !strings.Contains(out.String(), tc.report) {
				t.Errorf("pass = %v, want %v; output:\n%s", pass, tc.pass, out.String())
			}
			want := 0
			if !tc.pass {
				want = 1
			}
			if code, stderr := runCLI(t, "diff -fail-over 0.10 "+base+" "+cur); code != want {
				t.Errorf("dramless diff -fail-over 0.10: exit %d, want %d; stderr:\n%s", code, want, stderr)
			}
		})
	}
}

// TestDiffBlame pins the blame family of `dramless diff`: the phase
// totals header, accounts ranked by |Δ| with A's registration order
// breaking ties, one-sided accounts, -top and the gate on accounts.
func TestDiffBlame(t *testing.T) {
	a, b := &dramless.Blame{}, &dramless.Blame{}
	a.Add("load/host/cpu", 5000)
	a.Add("kernel/pe/compute", 100_000)
	a.Add("kernel/pram/read", 40_000)
	a.Add("store/host/cpu", 1000)
	b.Add("load/host/cpu", 5000)
	b.Add("kernel/pe/compute", 60_000)
	b.Add("kernel/ssd/read", 40_000)
	b.Add("store/host/cpu", 2000)
	var buf bytes.Buffer
	ok, err := diff(&buf, [2]string{"a.json", "b.json"}, [2]export{{blame: a}, {blame: b}}, 3, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	const want = "" +
		"A = a.json (wall 146ns)\n" +
		"B = b.json (wall 107ns)\n" +
		"\n" +
		"phase                                         A            B            Δ\n" +
		"load                                        5ns          5ns         +0ps\n" +
		"kernel                                    140ns        100ns        -40ns\n" +
		"store                                       1ns          2ns         +1ns\n" +
		"\n" +
		"account (by |Δ|)                              A            B            Δ         Δ%\n" +
		"kernel/pe/compute                         100ns         60ns        -40ns     -40.0%\n" +
		"kernel/pram/read                           40ns            -        -40ns  only in A\n" +
		"kernel/ssd/read                               -         40ns        +40ns  only in B\n" +
		"(2 more accounts; rerun with -top 0 for all)\n" +
		"REGRESSION kernel/pram/read: missing or empty in B (A 40ns)\n" +
		"REGRESSION store/host/cpu: 1ns -> 2ns (+100.0% over A)\n" +
		"diff: 2 account(s) regressed or vanished (fail-over 10%)\n"
	if got := buf.String(); ok || got != want {
		t.Errorf("ok = %v; blame diff drifted:\n--- got ---\n%s--- want ---\n%s", ok, got, want)
	}
}

// TestCLIOneFileModes pins that report and blame take one file: a file
// of the other family is an error (exit 1) instead of an empty table or
// a page of zero accounts, and two files are a usage error (exit 2)
// pointing to diff, which in turn refuses to compare across families.
func TestCLIOneFileModes(t *testing.T) {
	dir := t.TempDir()
	hist := writeHist(t, dir, "hist.json", map[string]int64{"a.read_ps": 1})
	blame := filepath.Join(dir, "blame.json")
	b := &dramless.Blame{}
	b.Add("kernel/pe/compute", 1000)
	f, err := os.Create(blame)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	for _, tc := range []struct {
		args   string
		code   int
		stderr string
	}{
		{"report " + blame, 1, `unknown field "ps"`},
		{"blame " + hist, 1, `unknown field "count"`},
		{"report " + hist + " " + hist, 2, "dramless diff"},
		{"blame " + blame + " " + blame, 2, "dramless diff"},
		{"diff " + hist, 2, "usage: dramless diff"},
		{"diff " + hist + " " + blame, 1, "different families"},
		{"diff " + blame + " " + blame, 0, ""},
	} {
		code, stderr := runCLI(t, tc.args)
		if code != tc.code || !strings.Contains(stderr, tc.stderr) || strings.Contains(stderr, "panic") {
			t.Errorf("%s: exit %d, want %d; stderr:\n%s", tc.args, code, tc.code, stderr)
		}
	}
}
