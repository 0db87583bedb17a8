package main

import (
	"bytes"
	"testing"

	"dramless"
)

// goldenSet builds a small deterministic histogram set: fixed samples,
// so bucket boundaries, percentiles and the CDF are pinned exactly.
func goldenSet() *dramless.HistogramSet {
	s := &dramless.HistogramSet{}
	read := s.Get("pram.read")
	for i := int64(1); i <= 100; i++ {
		read.Record(i * 1000) // 1ns..100ns ladder
	}
	write := s.Get("pram.write")
	for i := int64(0); i < 10; i++ {
		write.Record(500_000) // flat 500ns
	}
	s.Get("pram.empty") // zero-count instruments are skipped in tables
	return s
}

// TestReportGolden pins the `dramless report` percentile table byte for
// byte. A diff here means the human-facing report format changed;
// update the golden deliberately or fix the regression.
func TestReportGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := report(&buf, "golden.json", goldenSet(), "", false); err != nil {
		t.Fatal(err)
	}
	const want = "" +
		"instrument                          count          p50          p90          p99         p999          max\n" +
		"pram.read                             100       50.2ns       90.1ns        100ns        100ns        100ns\n" +
		"pram.write                             10        500ns        500ns        500ns        500ns        500ns\n"
	if got := buf.String(); got != want {
		t.Errorf("percentile table drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestReportCDFGolden pins the text CDF rendering (the diffable
// per-bucket cumulative view).
func TestReportCDFGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := report(&buf, "golden.json", goldenSet(), "pram.write", false); err != nil {
		t.Fatal(err)
	}
	const want = "" +
		"# pram.write: 10 samples, min 500ns, max 500ns\n" +
		"        507903 ps   1.000000  ########################################\n"
	if got := buf.String(); got != want {
		t.Errorf("CDF output drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestReportJSON exercises the -json view: byte-deterministic, integer
// picoseconds, zero-count instruments skipped.
func TestReportJSON(t *testing.T) {
	var a, b bytes.Buffer
	s := goldenSet()
	if err := report(&a, "golden.json", s, "", true); err != nil {
		t.Fatal(err)
	}
	if err := report(&b, "golden.json", s, "", true); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("-json output not byte-deterministic")
	}
	for _, want := range []string{`"instrument": "pram.read"`, `"count": 100`, `"max_ps":`} {
		if !bytes.Contains(a.Bytes(), []byte(want)) {
			t.Errorf("-json output missing %s:\n%s", want, a.String())
		}
	}
	if bytes.Contains(a.Bytes(), []byte("pram.empty")) {
		t.Errorf("-json output must skip zero-count instruments:\n%s", a.String())
	}
}
