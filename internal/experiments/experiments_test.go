package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"dramless/internal/system"
)

// quickOpts keeps per-test cost low: two contrasting kernels.
func quickOpts() Options {
	return Options{Scale: 96 << 10, Kernels: []string{"gemver", "doitg"}}
}

func TestAllExperimentsGenerate(t *testing.T) {
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tab, err := e.Gen(NewEngine(quickOpts()))
			if err != nil {
				t.Fatal(err)
			}
			if tab.ID != e.ID {
				t.Fatalf("table id %q, want %q", tab.ID, e.ID)
			}
			if len(tab.Rows) == 0 {
				t.Fatal("no rows")
			}
			var sb strings.Builder
			tab.Print(&sb)
			if !strings.Contains(sb.String(), tab.ID) {
				t.Fatal("Print lost the id")
			}
			if sum := tab.Summary(); !strings.HasPrefix(sum, tab.ID+":") {
				t.Fatalf("summary = %q", sum)
			}
		})
	}
}

func TestFig01Shape(t *testing.T) {
	tab, err := NewEngine(quickOpts()).Table("fig01")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		if p := r.Values["norm-perf"]; p <= 0 || p >= 1 {
			t.Errorf("%s: normalized perf %v, want in (0,1) - the real system must lose to ideal", r.Label, p)
		}
		if e := r.Values["norm-energy"]; e <= 1 {
			t.Errorf("%s: normalized energy %v, want > 1", r.Label, e)
		}
	}
}

func TestFig07Shape(t *testing.T) {
	tab, err := NewEngine(quickOpts()).Table("fig07")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		if d := r.Values["degradation"]; d <= 0.3 || d >= 1 {
			t.Errorf("%s: degradation %v, want substantial (firmware is the bottleneck)", r.Label, d)
		}
	}
}

func TestFig12Shape(t *testing.T) {
	tab, err := Fig12(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	h := tab.Rows[0].Values["hidden-frac"]
	if h < 0.30 || h > 0.60 {
		t.Fatalf("hidden fraction %v, want ~40%% per the paper", h)
	}
}

// TestFig13IgnoresPolicyOverride pins that Fig 13 sweeps its four
// policies itself: an Options.Policy override must not replace them,
// which would flatten every column to 1.
func TestFig13IgnoresPolicyOverride(t *testing.T) {
	o := quickOpts()
	plain, err := NewEngine(o).Table("fig13")
	if err != nil {
		t.Fatal(err)
	}
	o.Policy = "palp"
	over, err := NewEngine(o).Table("fig13")
	if err != nil {
		t.Fatal(err)
	}
	pj, err := plain.JSON()
	if err != nil {
		t.Fatal(err)
	}
	oj, err := over.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pj, oj) {
		t.Errorf("Policy override changed fig13:\nplain:\n%s\noverride:\n%s", pj, oj)
	}
	for _, r := range plain.Rows {
		if v := r.Values["Interleaving"]; v <= 1 {
			t.Errorf("%s: Interleaving %v, want > 1 over Bare-metal", r.Label, v)
		}
	}
}

func TestFig15Shape(t *testing.T) {
	tab, err := NewEngine(quickOpts()).Table("fig15")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		dl := r.Values[system.DRAMLess.String()]
		if dl <= 1 {
			t.Errorf("%s: DRAM-less %vx, must beat Hetero on every workload", r.Label, dl)
		}
		if pb := r.Values[system.PageBuffer.String()]; dl <= pb {
			t.Errorf("%s: DRAM-less %v not above PAGE-buffer %v", r.Label, dl, pb)
		}
		if hd := r.Values[system.Heterodirect.String()]; hd <= 1 {
			t.Errorf("%s: Heterodirect %v not above Hetero", r.Label, hd)
		}
		slc := r.Values[system.IntegratedSLC.String()]
		mlc := r.Values[system.IntegratedMLC.String()]
		tlc := r.Values[system.IntegratedTLC.String()]
		if !(slc > mlc && mlc > tlc) {
			t.Errorf("%s: integrated ordering broken: %v %v %v", r.Label, slc, mlc, tlc)
		}
	}
	// PRAM SSD beats flash SSD on the read-intensive kernel, loses on the
	// write-intensive one.
	for _, r := range tab.Rows {
		hp := r.Values[system.HeteroPRAM.String()]
		switch r.Label {
		case "gemver":
			if hp <= 1 {
				t.Errorf("Hetero-PRAM %v on gemver, want > 1", hp)
			}
		case "doitg":
			if hp >= 1 {
				t.Errorf("Hetero-PRAM %v on doitg, want < 1", hp)
			}
		}
	}
}

func TestFig16Shape(t *testing.T) {
	tab, err := NewEngine(quickOpts()).Table("fig16")
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]*Row{}
	for _, r := range tab.Rows {
		byLabel[r.Label] = r
	}
	he := byLabel[system.Hetero.String()]
	if he.Values[system.TimeLoad]+he.Values[system.TimeStore] < 0.5 {
		t.Errorf("Hetero staging share %v, want dominant",
			he.Values[system.TimeLoad]+he.Values[system.TimeStore])
	}
	dl := byLabel[system.DRAMLess.String()]
	if dl.Values[system.TimeLoad]+dl.Values[system.TimeStore] > 0.25 {
		t.Errorf("DRAM-less staging share %v, want small",
			dl.Values[system.TimeLoad]+dl.Values[system.TimeStore])
	}
	if dl.Values[system.TimeCompute] <= he.Values[system.TimeCompute] {
		t.Error("DRAM-less compute share not above Hetero's")
	}
}

func TestFig17Shape(t *testing.T) {
	tab, err := NewEngine(quickOpts()).Table("fig17")
	if err != nil {
		t.Fatal(err)
	}
	var dl, he float64
	for _, r := range tab.Rows {
		switch r.Label {
		case system.DRAMLess.String():
			dl = r.Values["norm-total"]
		case system.Hetero.String():
			he = r.Values["norm-total"]
		}
	}
	if he != 1 {
		t.Fatalf("Hetero normalization broken: %v", he)
	}
	if dl <= 0 || dl >= 0.5 {
		t.Fatalf("DRAM-less normalized energy %v, want well below half (paper: 19%%)", dl)
	}
}

func TestFig18Fig19Shape(t *testing.T) {
	for _, id := range []string{"fig18", "fig19"} {
		tab, err := NewEngine(quickOpts()).Table(id)
		if err != nil {
			t.Fatal(err)
		}
		var dlIPC, bestOther float64
		var dlIdle float64
		for _, r := range tab.Rows {
			if r.Label == system.DRAMLess.String() {
				dlIPC = r.Values["mean-ipc"]
				dlIdle = r.Values["idle-frac"]
				continue
			}
			if v := r.Values["mean-ipc"]; v > bestOther {
				bestOther = v
			}
		}
		if dlIPC <= bestOther {
			t.Errorf("%s: DRAM-less IPC %v not above the best alternative %v", tab.ID, dlIPC, bestOther)
		}
		if dlIdle >= 0.9 {
			t.Errorf("%s: DRAM-less idle fraction %v, want sustained execution", tab.ID, dlIdle)
		}
	}
}

func TestFig20Fig21Shape(t *testing.T) {
	for _, id := range []string{"fig20", "fig21"} {
		tab, err := NewEngine(quickOpts()).Table(id)
		if err != nil {
			t.Fatal(err)
		}
		var dlDone, worstDone float64
		var dlEnergy, norEnergy, norPower float64
		minPower := 1e18
		for _, r := range tab.Rows {
			if r.Values["mean-power-w"] < minPower {
				minPower = r.Values["mean-power-w"]
			}
			switch r.Label {
			case system.DRAMLess.String():
				dlDone = r.Values["completion-us"]
				dlEnergy = r.Values["total-energy-uj"]
			case system.NORIntf.String():
				norEnergy = r.Values["total-energy-uj"]
				norPower = r.Values["mean-power-w"]
			}
			if r.Values["completion-us"] > worstDone {
				worstDone = r.Values["completion-us"]
			}
		}
		if dlDone*1.5 > worstDone {
			t.Errorf("%s: DRAM-less completion %v not clearly ahead of worst %v", tab.ID, dlDone, worstDone)
		}
		// NOR: low power, high energy (the paper's point).
		if norPower > minPower*1.25 {
			t.Errorf("%s: NOR power %v not near the minimum %v", tab.ID, norPower, minPower)
		}
		if norEnergy <= dlEnergy {
			t.Errorf("%s: NOR energy %v not above DRAM-less %v", tab.ID, norEnergy, dlEnergy)
		}
	}
}

// TestUnknownKernelErrorsInOptions pins option validation at the
// exported entry points: an unknown kernel name comes back as an error
// listing the valid names (never a panic), and so do an unknown policy
// name, a negative Parallelism and a positive Lanes.
func TestUnknownKernelErrorsInOptions(t *testing.T) {
	o := quickOpts()
	o.Kernels = []string{"nope"}
	e := NewEngine(o)
	for name, call := range map[string]func() error{
		"Table":        func() error { _, err := e.Table("table3"); return err },
		"Tables":       func() error { _, err := e.Tables(); return err },
		"Arena":        func() error { _, err := e.Arena(nil, nil); return err },
		"fresh engine": func() error { _, err := NewEngine(o).Table("fig15"); return err },
	} {
		err := call()
		if err == nil || !strings.Contains(err.Error(), `"nope"`) || !strings.Contains(err.Error(), "gemver") {
			t.Errorf("%s: err = %v, want an unknown-kernel error listing the valid names", name, err)
		}
	}

	o = quickOpts()
	o.Policy = "round-robin"
	if _, err := NewEngine(o).Table("table3"); err == nil ||
		!strings.Contains(err.Error(), `"round-robin"`) || !strings.Contains(err.Error(), "known:") {
		t.Errorf("Policy round-robin: err = %v, want an unknown-policy error listing the registry", err)
	}

	o = quickOpts()
	o.Parallelism = -3
	if _, err := NewEngine(o).Table("table3"); err == nil || !strings.Contains(err.Error(), "Parallelism") {
		t.Errorf("Parallelism = -3: err = %v, want a rejection", err)
	}
	if _, err := NewEngine(o).Arena(nil, nil); err == nil || !strings.Contains(err.Error(), "Parallelism") {
		t.Errorf("Arena, Parallelism = -3: err = %v, want a rejection", err)
	}

	o = quickOpts()
	o.Lanes = 2
	if _, err := NewEngine(o).Table("table3"); err == nil || !strings.Contains(err.Error(), "Lanes") {
		t.Errorf("Lanes = 2: err = %v, want a rejection", err)
	}
	o.Lanes = -1
	if _, err := NewEngine(o).Table("table3"); err != nil {
		t.Errorf("Lanes = -1: %v", err)
	}
}

func TestTableJSON(t *testing.T) {
	tab, err := Table2(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	doc, err := tab.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		ID      string   `json:"id"`
		Columns []string `json:"columns"`
		Rows    []struct {
			Label  string             `json:"label"`
			Values map[string]float64 `json:"values"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(doc, &parsed); err != nil {
		t.Fatal(err)
	}
	if parsed.ID != "table2" || len(parsed.Rows) == 0 || len(parsed.Columns) == 0 {
		t.Fatalf("parsed = %+v", parsed)
	}
	if parsed.Rows[0].Values["tRCD-ns"] != 80 {
		t.Fatalf("tRCD = %v", parsed.Rows[0].Values["tRCD-ns"])
	}
}

func TestPercentile(t *testing.T) {
	vs := []float64{9, 1, 5, 3, 7}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {1, 9}, {0.5, 5}, {-1, 1}, {2, 9}, {0.2, 1}, {0.21, 3}} {
		if got := percentile(vs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	// Input must not be mutated.
	if vs[0] != 9 || vs[1] != 1 {
		t.Fatal("percentile sorted its input in place")
	}
	if percentile(nil, 0.5) != 0 || mean(nil) != 0 {
		t.Error("empty input must read 0")
	}
	if got := mean(vs); got != 5 {
		t.Errorf("mean = %v, want 5", got)
	}
}
