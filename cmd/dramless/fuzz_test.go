package main

import (
	"bytes"
	"os"
	"testing"

	"dramless"
)

// FuzzReportFiles: every histogram export ReadHistograms accepts renders
// every `dramless report` view - the percentile table, -json, the text
// and JSON CDF of each instrument, and the comparison of the file with
// itself - without panicking, and byte-identically on a second render.
// Seeded with the committed reference-run export.
func FuzzReportFiles(f *testing.F) {
	seed, err := os.ReadFile("../../HIST_baseline.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := dramless.ReadHistograms(bytes.NewReader(data))
		if err != nil {
			return
		}
		one, two := []*dramless.HistogramSet{s}, []*dramless.HistogramSet{s, s}
		a, aa := []string{"a.json"}, []string{"a.json", "a.json"}
		render := func() []byte {
			var buf bytes.Buffer
			check := func(err error) {
				if err != nil {
					t.Fatal(err)
				}
			}
			check(report(&buf, a, one, "", false))
			check(report(&buf, a, one, "", true))
			check(report(&buf, aa, two, "", false))
			for _, n := range s.Names() {
				check(report(&buf, a, one, n, false))
				check(report(&buf, a, one, n, true))
			}
			return buf.Bytes()
		}
		if !bytes.Equal(render(), render()) {
			t.Fatal("report output is not deterministic")
		}
	})
}

// FuzzBlameFiles: every blame export ReadBlame accepts renders as a tree
// and diffs against itself and against an empty account without
// panicking, and byte-identically on a second render. The seed corpus
// under testdata/fuzz holds a DRAM-less gemver export.
func FuzzBlameFiles(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := dramless.ReadBlame(bytes.NewReader(data))
		if err != nil {
			return
		}
		paths := []string{"a.json", "b.json"}
		render := func() []byte {
			var buf bytes.Buffer
			if err := b.WriteTree(&buf, fmtPS); err != nil {
				t.Fatal(err)
			}
			diffBlameFiles(&buf, paths, b, b, 0)
			diffBlameFiles(&buf, paths, b, &dramless.Blame{}, 3)
			diffBlameFiles(&buf, paths, &dramless.Blame{}, b, 3)
			return buf.Bytes()
		}
		if !bytes.Equal(render(), render()) {
			t.Fatal("blame output is not deterministic")
		}
	})
}
