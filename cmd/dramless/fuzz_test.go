package main

import (
	"bytes"
	"os"
	"testing"

	"dramless"
)

// FuzzReportFiles: every histogram export ReadHistograms accepts renders
// every `dramless report` view - the percentile table, -json, and the
// text and JSON CDF of each instrument - without panicking, and
// byte-identically on a second render. Seeded with the committed
// reference-run export.
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
		render := func() []byte {
			var buf bytes.Buffer
			check := func(err error) {
				if err != nil {
					t.Fatal(err)
				}
			}
			check(report(&buf, "a.json", s, "", false))
			check(report(&buf, "a.json", s, "", true))
			for _, n := range s.Names() {
				check(report(&buf, "a.json", s, n, false))
				check(report(&buf, "a.json", s, n, true))
			}
			return buf.Bytes()
		}
		if !bytes.Equal(render(), render()) {
			t.Fatal("report output is not deterministic")
		}
	})
}

// FuzzBlameFiles: every blame export ReadBlame accepts renders as a tree
// without panicking, and byte-identically on a second render. The seed
// corpus under testdata/fuzz holds a DRAM-less gemver export.
func FuzzBlameFiles(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := dramless.ReadBlame(bytes.NewReader(data))
		if err != nil {
			return
		}
		render := func() []byte {
			var buf bytes.Buffer
			if err := b.WriteTree(&buf, fmtPS); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		if !bytes.Equal(render(), render()) {
			t.Fatal("blame output is not deterministic")
		}
	})
}

// FuzzDiffFiles: every file one of the export readers accepts diffs
// against itself, and against an empty export in both argument orders,
// under the -fail-over gate without an error or a panic, and
// byte-identically on a second render; a self-diff never reports a
// regression. Seeded with the committed reference-run histogram export
// and, under testdata/fuzz, a DRAM-less gemver blame export.
func FuzzDiffFiles(f *testing.F) {
	seed, err := os.ReadFile("../../HIST_baseline.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	empty, err := readExport([]byte("[]"))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ex, err := readExport(data)
		if err != nil {
			return
		}
		paths := [2]string{"a.json", "b.json"}
		render := func() []byte {
			var buf bytes.Buffer
			for _, pair := range [][2]export{{ex, ex}, {ex, empty}, {empty, ex}} {
				mark := buf.Len()
				if _, err := diff(&buf, paths, pair, 3, 0.1); err != nil {
					t.Fatal(err)
				}
				if pair[0] == pair[1] && bytes.Contains(buf.Bytes()[mark:], []byte("REGRESSION")) {
					t.Fatalf("self-diff reports a regression:\n%s", buf.Bytes()[mark:])
				}
			}
			return buf.Bytes()
		}
		if !bytes.Equal(render(), render()) {
			t.Fatal("diff output is not deterministic")
		}
	})
}
