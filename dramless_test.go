package dramless_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"dramless"
)

func TestNewPRAMRoundTrip(t *testing.T) {
	pram, ready, err := dramless.NewPRAM(dramless.WithCapacityRows(1 << 16))
	if err != nil {
		t.Fatal(err)
	}
	if ready <= 0 {
		t.Fatal("boot took no time")
	}
	payload := []byte("persistent bytes in phase-change memory")
	done, err := pram.Write(ready, 4096, payload)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := pram.Read(pram.Drain(), 4096, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("round trip failed")
	}
	if done <= ready {
		t.Fatal("write completed before it started")
	}
}

func TestPRAMOptions(t *testing.T) {
	pram, _, err := dramless.NewPRAM(
		dramless.WithCapacityRows(1<<16),
		dramless.WithScheduler(dramless.BareMetal),
		dramless.WithoutPhaseSkipping(),
		dramless.WithoutPrefetch(),
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := pram.Config()
	if cfg.Scheduler != dramless.BareMetal || cfg.PhaseSkipping || cfg.Prefetch {
		t.Fatalf("options not applied: %+v", cfg)
	}
}

func TestAcceleratorRunsWorkload(t *testing.T) {
	pram, ready, err := dramless.NewPRAM(dramless.WithCapacityRows(1 << 16))
	if err != nil {
		t.Fatal(err)
	}
	acc, err := dramless.NewAccelerator(pram)
	if err != nil {
		t.Fatal(err)
	}
	w, err := dramless.WorkloadByName("trisolv")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := acc.RunKernel(ready, w, dramless.WorkloadParams{Scale: 64 << 10, Agents: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ExecTime() <= 0 || rep.Instrs == 0 {
		t.Fatal("kernel made no progress")
	}
}

func TestOffloadImageViaPublicAPI(t *testing.T) {
	pram, ready, err := dramless.NewPRAM(dramless.WithCapacityRows(1 << 16))
	if err != nil {
		t.Fatal(err)
	}
	img := &dramless.KernelImage{
		SharedAddr: 0x8000,
		Shared:     bytes.Repeat([]byte{0xCD}, 128),
		Apps: []dramless.KernelApp{
			{BootAddr: 0x10000, Code: bytes.Repeat([]byte{0x42}, 256)},
		},
	}
	parsed, done, err := dramless.OffloadImage(ready, img, 0x1000, pram, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Apps) != 1 || done <= ready {
		t.Fatal("offload incomplete")
	}
	code, _, err := pram.Read(pram.Drain(), 0x10000, 256)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(code, img.Apps[0].Code) {
		t.Fatal("kernel code not loaded at boot address")
	}
}

func TestRunSystemAndWorkloads(t *testing.T) {
	if got := len(dramless.Workloads()); got != 16 {
		t.Fatalf("suite = %d kernels, want 16", got)
	}
	cfg := dramless.NewSystemConfig(dramless.DRAMLess)
	cfg.Scale = 128 << 10
	w, _ := dramless.WorkloadByName("gemver")
	res, err := dramless.RunSystem(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total <= 0 || res.BandwidthMBps() <= 0 || res.Energy.Total() <= 0 {
		t.Fatal("empty system result")
	}
	if len(dramless.Figure15Kinds()) != 10 || len(dramless.SystemKinds()) != 12 {
		t.Fatal("system kind lists wrong")
	}
}

func TestObserverThroughPublicAPI(t *testing.T) {
	o := dramless.NewObserver(dramless.WithTracing())
	cfg := dramless.NewSystemConfig(dramless.DRAMLess, dramless.WithObserver(o))
	cfg.Scale = 128 << 10
	w, _ := dramless.WorkloadByName("gemver")
	res, err := dramless.RunSystem(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Len() == 0 {
		t.Fatal("run produced no counters")
	}
	for _, name := range []string{
		"memctrl.rab_hits", "memctrl.rdb_hits", "memctrl.interleave_overlaps",
		"pram.programs", "accel.psc.boots", "sim.events_dispatched",
	} {
		if res.Counters.Get(name) <= 0 {
			t.Errorf("counter %s = %d, want > 0", name, res.Counters.Get(name))
		}
	}
	// The observer accumulated the run's counters and recorded spans.
	if got, want := o.Counters().Get("accel.psc.boots"), res.Counters.Get("accel.psc.boots"); got != want {
		t.Fatalf("observer counters = %d boots, result has %d", got, want)
	}
	if o.Tracer().Len() == 0 {
		t.Fatal("tracing enabled but no spans recorded")
	}
	var buf bytes.Buffer
	if err := o.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	procs := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "M" && ev["name"] == "process_name" {
			if args, ok := ev["args"].(map[string]any); ok {
				procs[fmt.Sprint(args["name"])] = true
			}
		}
	}
	for _, p := range []string{"accel", "pram.ch0", "pram.ch1", "system"} {
		if !procs[p] {
			t.Errorf("trace missing process %q (have %v)", p, procs)
		}
	}
}

func TestExperimentDispatch(t *testing.T) {
	ids := dramless.ExperimentIDs()
	if len(ids) != 16 {
		t.Fatalf("%d experiments, want 16", len(ids))
	}
	eng := dramless.NewExperimentEngine(dramless.FastExperiments())
	tab, err := eng.Table("table2")
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "table2" || len(tab.Rows) == 0 {
		t.Fatal("table2 empty")
	}
	tabs, err := eng.Tables("table1", "table2")
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 2 || tabs[0].ID != "table1" || tabs[1].ID != "table2" {
		t.Fatalf("Tables returned %d tables out of request order", len(tabs))
	}
	if _, err := eng.Table("nope"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}
