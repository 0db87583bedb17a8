package obs

import (
	"bytes"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestReadHistogramsJSONRejectsInconsistent pins the histogram reader's
// validation: each file below parses as JSON but could not come from a
// recording, and each must be an error rather than a report.
func TestReadHistogramsJSONRejectsInconsistent(t *testing.T) {
	for _, tc := range []struct {
		name, json, want string
	}{
		{"negative bucket count",
			`[{"name":"x","count":0,"sum":0,"min":0,"max":0,"buckets":[{"bucket":3,"count":-1}]}]`,
			"negative count"},
		{"count without buckets",
			`[{"name":"x","count":5,"sum":10,"min":1,"max":3}]`,
			"sum to 0, count is 5"},
		{"min below the first non-empty bucket",
			`[{"name":"x","count":2,"sum":10,"min":1,"max":9,"buckets":[{"bucket":5,"count":1},{"bucket":9,"count":1}]}]`,
			"min 1 is not in the first"},
		{"max above the last non-empty bucket",
			`[{"name":"x","count":2,"sum":10,"min":5,"max":20,"buckets":[{"bucket":5,"count":1},{"bucket":9,"count":1}]}]`,
			"max 20 is not in the last"},
		{"min > max",
			`[{"name":"x","count":2,"sum":129,"min":65,"max":64,"buckets":[{"bucket":64,"count":2}]}]`,
			"min 65 exceeds max 64"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadHistogramsJSON(strings.NewReader(tc.json))
			if err == nil {
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestReadBlameJSONRejectsNegative pins that a negative account - time
// no run can spend - is an error.
func TestReadBlameJSONRejectsNegative(t *testing.T) {
	for _, tc := range []struct {
		name, json string
	}{
		{"negative account", `[{"name":"load/host/cpu","ps":5},{"name":"kernel/pe/compute","ps":-1}]`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadBlameJSON(strings.NewReader(tc.json)); err == nil || !strings.Contains(err.Error(), "negative") {
				t.Fatalf("err = %v, want a negative-account error", err)
			}
		})
	}
}

// TestReadHistogramsJSONAcceptsBaseline guards the validation against
// over-rejection: the committed reference-run export must read back.
func TestReadHistogramsJSONAcceptsBaseline(t *testing.T) {
	f, err := os.Open("../../HIST_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := ReadHistogramsJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	checkHistogramInvariants(t, s)
}

// corpusSeed returns the bytes of one committed fuzz corpus entry (a
// "go test fuzz v1" file holding a single []byte value).
func corpusSeed(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
	if !ok || !strings.HasSuffix(lit, ")") {
		t.Fatalf("%s: not a single []byte corpus entry", path)
	}
	data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(data)
}

// TestReadersRejectOtherFamily pins that each reader refuses the other
// family's export by its unknown fields: a blame export is not an empty
// histogram set, and a histogram export is not a set of zero accounts.
// The committed seeds read back under their own family's reader, and
// data after the one export in a file is an error too.
func TestReadersRejectOtherFamily(t *testing.T) {
	hist := corpusSeed(t, "testdata/fuzz/FuzzReadHistogramsJSON/hist-baseline")
	blame := corpusSeed(t, "testdata/fuzz/FuzzReadBlameJSON/blame-dramless-gemver")
	if _, err := ReadHistogramsJSON(bytes.NewReader(hist)); err != nil {
		t.Fatalf("histogram seed: %v", err)
	}
	if _, err := ReadBlameJSON(bytes.NewReader(blame)); err != nil {
		t.Fatalf("blame seed: %v", err)
	}
	if _, err := ReadHistogramsJSON(bytes.NewReader(blame)); err == nil || !strings.Contains(err.Error(), `unknown field "ps"`) {
		t.Errorf("blame export read as histograms: err = %v", err)
	}
	if _, err := ReadBlameJSON(bytes.NewReader(hist)); err == nil || !strings.Contains(err.Error(), `unknown field "count"`) {
		t.Errorf("histogram export read as blame: err = %v", err)
	}
	for _, trailing := range []string{"[] x", `[] [{"name":"y"}]`} {
		if _, err := ReadHistogramsJSON(strings.NewReader(trailing)); err == nil || !strings.Contains(err.Error(), "data after the export") {
			t.Errorf("%q read as histograms: err = %v", trailing, err)
		}
		if _, err := ReadBlameJSON(strings.NewReader(trailing)); err == nil || !strings.Contains(err.Error(), "data after the export") {
			t.Errorf("%q read as blame: err = %v", trailing, err)
		}
	}
}

// checkHistogramInvariants fails t unless every histogram in s is one a
// recording could produce: non-negative bucket counts summing to Count,
// and every percentile between Min and Max.
func checkHistogramInvariants(t *testing.T, s *HistogramSet) {
	t.Helper()
	for _, h := range s.All() {
		var total int64
		h.each(func(_ int, c int64) bool {
			if c < 0 {
				t.Fatalf("%q: negative bucket count %d", h.Name(), c)
			}
			total += c
			return true
		})
		if total != h.Count() {
			t.Fatalf("%q: buckets sum to %d, count %d", h.Name(), total, h.Count())
		}
		if h.Count() == 0 {
			continue
		}
		if h.Min() > h.Max() {
			t.Fatalf("%q: min %d > max %d", h.Name(), h.Min(), h.Max())
		}
		for _, p := range []float64{0, 50, 99, 100} {
			if v := h.Percentile(p); v < h.Min() || v > h.Max() {
				t.Fatalf("%q: p%g = %d outside [%d, %d]", h.Name(), p, v, h.Min(), h.Max())
			}
		}
	}
}

// FuzzReadHistogramsJSON: whatever the reader accepts satisfies the
// recording invariants and re-exports to a fixed point - its export
// reads back and exports byte-identically. The seed corpus under
// testdata/fuzz holds a full reference-run export.
func FuzzReadHistogramsJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadHistogramsJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkHistogramInvariants(t, s)
		var out bytes.Buffer
		if err := s.WriteJSON(&out); err != nil {
			t.Fatal(err)
		}
		back, err := ReadHistogramsJSON(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-export rejected: %v", err)
		}
		var again bytes.Buffer
		if err := back.WriteJSON(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), again.Bytes()) {
			t.Fatal("re-export is not byte-identical")
		}
	})
}

// FuzzReadBlameJSON: whatever the reader accepts has no negative
// account and re-exports to a fixed point. The seed corpus under
// testdata/fuzz holds a DRAM-less blame export.
func FuzzReadBlameJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := ReadBlameJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, e := range b.Entries() {
			if e.PS < 0 {
				t.Fatalf("accepted negative account %q = %d", e.Name, e.PS)
			}
		}
		var out bytes.Buffer
		if err := b.WriteJSON(&out); err != nil {
			t.Fatal(err)
		}
		back, err := ReadBlameJSON(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-export rejected: %v", err)
		}
		var again bytes.Buffer
		if err := back.WriteJSON(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), again.Bytes()) {
			t.Fatal("re-export is not byte-identical")
		}
	})
}
