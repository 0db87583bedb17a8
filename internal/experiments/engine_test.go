package experiments

import (
	"bytes"
	"strings"
	"testing"

	"dramless/internal/system"
	"dramless/internal/workload"
)

// TestParallelByteIdenticalToSerial is the determinism regression test:
// the full experiment set rendered serially and with Parallelism=8 must
// produce byte-identical Table.JSON() documents. Parallelism is across
// simulations only - each simulation stays single-goroutine - so any
// divergence here means shared state leaked between runs.
func TestParallelByteIdenticalToSerial(t *testing.T) {
	serialOpts := quickOpts()
	serialOpts.Parallelism = 1
	serialTabs, err := NewEngine(serialOpts).Tables()
	if err != nil {
		t.Fatal(err)
	}

	parOpts := quickOpts()
	parOpts.Parallelism = 8
	parTabs, err := NewEngine(parOpts).Tables()
	if err != nil {
		t.Fatal(err)
	}

	if len(serialTabs) != len(parTabs) || len(serialTabs) != len(Registry()) {
		t.Fatalf("table counts: serial %d, parallel %d, registry %d",
			len(serialTabs), len(parTabs), len(Registry()))
	}
	for i, st := range serialTabs {
		pt := parTabs[i]
		if st.ID != pt.ID {
			t.Fatalf("table %d: serial id %q, parallel id %q", i, st.ID, pt.ID)
		}
		sj, err := st.JSON()
		if err != nil {
			t.Fatal(err)
		}
		pj, err := pt.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sj, pj) {
			t.Errorf("%s: parallel JSON differs from serial\nserial:\n%s\nparallel:\n%s", st.ID, sj, pj)
		}
	}
}

// TestSharedCacheAcrossExperiments pins the satellite fix: fig15, fig16
// and fig17 walk the same ten-system x kernel matrix, so after fig15 has
// populated the shared cache the other two must not run a single new
// simulation.
func TestSharedCacheAcrossExperiments(t *testing.T) {
	o := quickOpts()
	o.Parallelism = 2
	e := NewEngine(o)
	if _, err := e.Table("fig15"); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if want := int64(len(o.kernels()) * 10); st.Runs != want {
		t.Fatalf("fig15 ran %d simulations, want %d (ten systems x kernels)", st.Runs, want)
	}
	for _, id := range []string{"fig16", "fig17"} {
		if _, err := e.Table(id); err != nil {
			t.Fatal(err)
		}
		if got := e.Stats().Runs; got != st.Runs {
			t.Errorf("%s re-ran simulations: runs %d -> %d", id, st.Runs, got)
		}
	}
	if hits := e.Stats().Hits; hits == 0 {
		t.Error("fig16/fig17 produced no cache hits")
	}
}

// TestFig13FinalSharesFig15Cells pins the default policy's cache
// sharing: the engine keys cells by their raw system.Config, so Fig 13's
// "final" column and Fig 15's DRAM-less column are one cell only while
// the default config spells its policy "final". After fig15, fig13 may
// add only its other three policies' simulations.
func TestFig13FinalSharesFig15Cells(t *testing.T) {
	o := quickOpts()
	e := NewEngine(o)
	if _, err := e.Table("fig15"); err != nil {
		t.Fatal(err)
	}
	before := e.Stats().Runs
	if _, err := e.Table("fig13"); err != nil {
		t.Fatal(err)
	}
	added := e.Stats().Runs - before
	if want := int64(3 * len(o.kernels())); added != want {
		t.Errorf("fig13 after fig15 ran %d new simulations, want %d (3 policies x kernels; final is shared)", added, want)
	}
}

// TestEngineSharedWithFig01 checks cross-family sharing: fig01 needs
// Hetero cells that fig15 already ran, plus only the Ideal ones.
func TestEngineSharedWithFig01(t *testing.T) {
	o := quickOpts()
	e := NewEngine(o)
	if _, err := e.Table("fig15"); err != nil {
		t.Fatal(err)
	}
	before := e.Stats().Runs
	if _, err := e.Table("fig01"); err != nil {
		t.Fatal(err)
	}
	added := e.Stats().Runs - before
	if want := int64(len(o.kernels())); added != want {
		t.Errorf("fig01 after fig15 ran %d new simulations, want %d (Ideal only)", added, want)
	}
}

func TestEngineUnknownExperiment(t *testing.T) {
	e := NewEngine(quickOpts())
	if _, err := e.Table("nope"); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("err = %v, want unknown-experiment error naming the id", err)
	}
	if _, err := e.Tables("fig12", "nope"); err == nil {
		t.Fatal("Tables with an unknown id did not fail")
	}
}

// TestTablesDefaultOrder checks that Tables() with no ids covers the
// registry in paper order.
func TestTablesDefaultOrder(t *testing.T) {
	o := quickOpts()
	o.Parallelism = 4
	tabs, err := NewEngine(o).Tables()
	if err != nil {
		t.Fatal(err)
	}
	reg := Registry()
	if len(tabs) != len(reg) {
		t.Fatalf("got %d tables, want %d", len(tabs), len(reg))
	}
	for i, x := range reg {
		if tabs[i].ID != x.ID {
			t.Errorf("table %d: id %q, want %q", i, tabs[i].ID, x.ID)
		}
	}
}

// TestCountersDeterministicAcrossParallelism pins the observability
// determinism guarantee: every simulation cell's hardware-counter
// registry must be identical whether the engine ran serially or over an
// 8-worker pool. Counter collection walks per-run state in fixed code
// order, so any divergence means instrumentation leaked state between
// concurrently executing simulations.
func TestCountersDeterministicAcrossParallelism(t *testing.T) {
	kinds := system.Fig15Kinds()
	kernels := []workload.Kernel{
		workload.MustByName("gemver"),
		workload.MustByName("doitg"),
	}

	serialOpts := quickOpts()
	serialOpts.Parallelism = 1
	serial := NewEngine(serialOpts)

	parOpts := quickOpts()
	parOpts.Parallelism = 8
	par := NewEngine(parOpts)
	par.prefetch(kinds, kernels) // force concurrent execution

	for _, kind := range kinds {
		for _, k := range kernels {
			sres, err := serial.get(kind, k)
			if err != nil {
				t.Fatal(err)
			}
			pres, err := par.get(kind, k)
			if err != nil {
				t.Fatal(err)
			}
			if sres.Counters.Len() == 0 {
				t.Fatalf("%s/%s: serial run produced no counters", kind, k.Name)
			}
			if !sres.Counters.Equal(&pres.Counters) {
				t.Errorf("%s/%s: counters diverge between serial and parallel engines:\n%s",
					kind, k.Name, sres.Counters.Diff(&pres.Counters))
			}
		}
	}
	if st := par.Stats(); st.Workers != 8 {
		t.Fatalf("parallel engine ran %d workers, want 8", st.Workers)
	}
}
