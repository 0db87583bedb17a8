package experiments

import (
	"bytes"
	"testing"

	"dramless/internal/obs"
	"dramless/internal/runner"
	"dramless/internal/system"
	"dramless/internal/workload"
)

type obsCell struct {
	kind   system.Kind
	kernel string
}

// collectObserved runs every cell on a pool of the given width with a
// fresh per-cell Observer (an Observer is single-run state and must not
// be shared across pooled simulations), then concatenates the per-cell
// histogram JSON and series CSV exports in fixed cell order.
func collectObserved(t *testing.T, workers int, cells []obsCell) (hists, series []byte) {
	t.Helper()
	r := runner.New(workers, func(c obsCell) (*obs.Observer, error) {
		cfg := system.DefaultConfig(c.kind)
		cfg.Scale = 128 << 10
		cfg.SSDCapacity = 64 << 20
		cfg.Obs = obs.New()
		if _, err := system.Run(cfg, workload.MustByName(c.kernel)); err != nil {
			return nil, err
		}
		return cfg.Obs, nil
	})
	keys := make([]obsCell, len(cells))
	copy(keys, cells)
	r.Prefetch(keys...)

	var hb, sb bytes.Buffer
	for _, c := range cells {
		o, err := r.Get(c)
		if err != nil {
			t.Fatalf("%v/%s: %v", c.kind, c.kernel, err)
		}
		if err := o.Histograms().WriteJSON(&hb); err != nil {
			t.Fatal(err)
		}
		if err := o.Series().WriteCSV(&sb); err != nil {
			t.Fatal(err)
		}
	}
	return hb.Bytes(), sb.Bytes()
}

// TestObservedMergeSerialMatchesParallel pins the acceptance property
// for observed fleets: a serial pool and an 8-worker pool over the same
// cells produce byte-identical histogram and series exports, cell by
// cell in fixed cell order. Each simulation is single-goroutine
// deterministic, so worker count must be invisible.
func TestObservedMergeSerialMatchesParallel(t *testing.T) {
	var cells []obsCell
	for _, kind := range system.Kinds() {
		cells = append(cells,
			obsCell{kind: kind, kernel: "gemver"},
			obsCell{kind: kind, kernel: "jaco1d"},
		)
	}

	sh, ss := collectObserved(t, 1, cells)
	ph, ps := collectObserved(t, 8, cells)
	if !bytes.Equal(sh, ph) {
		t.Error("histogram JSON exports are not byte-identical")
	}
	if !bytes.Equal(ss, ps) {
		t.Error("series CSV exports are not byte-identical")
	}
}
