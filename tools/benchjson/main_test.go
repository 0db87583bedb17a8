package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dramless/internal/obs"
)

// writeHist writes a histogram export holding one instrument per name,
// each recording samples scaled by its factor (0 registers the
// instrument without samples), and returns its path.
func writeHist(t *testing.T, name string, scale map[string]int64) string {
	t.Helper()
	var s obs.HistogramSet
	for _, n := range []string{"a.read_ps", "b.write_ps", "c.flush_ps"} {
		k, ok := scale[n]
		if !ok {
			continue
		}
		h := s.Get(n)
		for v := int64(1); k > 0 && v <= 100; v++ {
			h.Record(v * k * 1000)
		}
	}
	path := filepath.Join(t.TempDir(), name)
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

func TestCompareHistograms(t *testing.T) {
	base := writeHist(t, "base.json", map[string]int64{"a.read_ps": 1, "b.write_ps": 2, "c.flush_ps": 3})
	for _, tc := range []struct {
		name   string
		cur    map[string]int64
		pass   bool
		report string
	}{
		{"identical", map[string]int64{"a.read_ps": 1, "b.write_ps": 2, "c.flush_ps": 3}, true, "3 instrument(s) within 10%"},
		{"p99 regression", map[string]int64{"a.read_ps": 1, "b.write_ps": 4, "c.flush_ps": 3}, false, "b.write_ps"},
		{"vanished instrument", map[string]int64{"a.read_ps": 1, "b.write_ps": 2}, false, "c.flush_ps                     missing or empty"},
		{"emptied instrument", map[string]int64{"a.read_ps": 1, "b.write_ps": 2, "c.flush_ps": 0}, false, "c.flush_ps                     missing or empty"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			pass, err := compareHistograms(&out, writeHist(t, "cur.json", tc.cur), base, 0.10)
			if err != nil {
				t.Fatal(err)
			}
			if pass != tc.pass || !strings.Contains(out.String(), tc.report) {
				t.Errorf("pass = %v, want %v; output:\n%s", pass, tc.pass, out.String())
			}
			if !tc.pass && !strings.Contains(out.String(), "REGRESSION") {
				t.Errorf("a failing gate must mark the regression:\n%s", out.String())
			}
		})
	}
}
