package dramless_test

import (
	"fmt"
	"log"

	"dramless"
)

// Build the hardware-automated PRAM subsystem, write persistent data and
// read it back through the full LPDDR2-NVM protocol.
func ExampleNewPRAM() {
	pram, ready, err := dramless.NewPRAM(dramless.WithCapacityRows(1 << 16))
	if err != nil {
		log.Fatal(err)
	}
	payload := []byte("near-data processing")
	if _, err := pram.Write(ready, 0, payload); err != nil {
		log.Fatal(err)
	}
	got, _, err := pram.Read(pram.Drain(), 0, len(payload))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s\n", got)
	fmt.Printf("capacity %d MiB, scheduler %v\n", pram.Size()>>20, pram.Config().Policy.Name())
	// Output:
	// near-data processing
	// capacity 63 MiB, scheduler final
}

// Execute a Polybench kernel near the data on the 8-PE accelerator.
func ExampleAccelerator_RunKernel() {
	pram, ready, err := dramless.NewPRAM(dramless.WithCapacityRows(1 << 16))
	if err != nil {
		log.Fatal(err)
	}
	acc, err := dramless.NewAccelerator(pram)
	if err != nil {
		log.Fatal(err)
	}
	w, _ := dramless.WorkloadByName("trisolv")
	rep, err := acc.RunKernel(ready, w, dramless.WorkloadParams{Scale: 64 << 10, Agents: 7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d agents retired %d instructions\n", len(rep.Agents), rep.Instrs)
	// Output:
	// 7 agents retired 238324 instructions
}

// Compare the DRAM-less organization against the conventional
// heterogeneous system end to end.
func ExampleRunSystem() {
	w, _ := dramless.WorkloadByName("gemver")
	var bw [2]float64
	for i, kind := range []dramless.SystemKind{dramless.Hetero, dramless.DRAMLess} {
		cfg := dramless.NewSystemConfig(kind)
		cfg.Scale = 128 << 10
		res, err := dramless.RunSystem(cfg, w)
		if err != nil {
			log.Fatal(err)
		}
		bw[i] = res.BandwidthMBps()
	}
	fmt.Printf("DRAM-less beats Hetero: %v\n", bw[1] > bw[0])
	// Output:
	// DRAM-less beats Hetero: true
}

// Regenerate one of the paper's tables. Experiments regenerated through
// the same engine share one simulation cache, so related figures (fig15,
// fig16, fig17 walk the same system x kernel matrix) cost one sweep.
func ExampleNewExperimentEngine() {
	eng := dramless.NewExperimentEngine(dramless.FastExperiments())
	tab, err := eng.Table("table2")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(tab.Title)
	fmt.Printf("tRCD = %v ns\n", tab.Rows[0].Values["tRCD-ns"])
	// Output:
	// characterized PRAM parameters
	// tRCD = 80 ns
}

// Observe a run: attach one Observer to the whole build and read the
// hardware counters the paper's mechanisms produce. With WithTracing the
// observer also records a simulated-time timeline for chrome://tracing
// (Observer.WriteTrace).
func ExampleWithObserver() {
	o := dramless.NewObserver()
	cfg := dramless.NewSystemConfig(dramless.DRAMLess, dramless.WithObserver(o))
	cfg.Scale = 128 << 10
	w, _ := dramless.WorkloadByName("gemver")
	res, err := dramless.RunSystem(cfg, w)
	if err != nil {
		log.Fatal(err)
	}
	c := &res.Counters
	fmt.Printf("row-buffer hits seen: %v\n", c.Get("memctrl.rdb_hits") > 0)
	fmt.Printf("interleave overlaps won: %v\n", c.Get("memctrl.interleave_overlaps") > 0)
	fmt.Printf("PSC reboots: %d\n", c.Get("accel.psc.boots"))
	// Output:
	// row-buffer hits seen: true
	// interleave overlaps won: true
	// PSC reboots: 7
}
