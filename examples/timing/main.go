// Timing: explore the PRAM device protocol at cycle level - three-phase
// addressing, RAB/RDB phase skipping, the overlay-window program flow,
// selective erasing, and the Figure 12 interleaving overlap.
package main

import (
	"bytes"
	"fmt"
	"log"

	"dramless"
	"dramless/internal/lpddr"
	"dramless/internal/pram"
	"dramless/internal/sim"
)

func main() {
	par := lpddr.Default()
	fmt.Println("-- Table II timing (LPDDR2-NVM, 400 MHz) --")
	fmt.Printf("tRP=%v  tRCD=%v  RL=%v  tBURST=%v  -> three-phase row read %v\n",
		par.TRP(), par.TRCD, par.RL(), par.TBurst(), par.RowReadLatency())
	fmt.Printf("program: fresh %v, overwrite %v, selectively erased %v, bulk erase %v\n\n",
		par.ProgramTime(lpddr.CellFresh), par.ProgramTime(lpddr.CellProgrammed),
		par.ProgramTime(lpddr.CellErased), par.CellErase)

	geo := pram.DefaultGeometry()
	geo.RowsPerModule = 1 << 16
	m, err := pram.NewModule(geo, par)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("-- three-phase addressing, command by command --")
	row := uint64(42)
	upper, lower := geo.SplitRow(row)
	t0 := sim.Time(0)
	t1, _ := m.Preactive(t0, 0, upper)
	fmt.Printf("PREACTIVE ba=0 upper=%#x   %v -> %v (tRP)\n", upper, t0, t1)
	t2, _ := m.Activate(t1, 0, lower)
	fmt.Printf("ACTIVATE  ba=0 lower=%#x   %v -> %v (tRCD, partition %d)\n", lower, t1, t2, geo.PartitionOf(row))
	_, t3, _ := m.ReadBurst(t2, 0, 0, 32)
	fmt.Printf("READ      ba=0 col=0       %v -> %v (RL+tDQSCK+tBURST)\n", t2, t3)
	fmt.Printf("cold row read total: %v\n\n", t3-t0)

	fmt.Println("-- phase skipping: the RDB still holds the row --")
	start := t3 + sim.Microsecond
	_, t4, _ := m.ReadBurst(start, 0, 8, 8)
	fmt.Printf("re-read from RDB: %v (%.0f%% of the cold read)\n\n",
		t4-start, 100*float64(t4-start)/float64(t3-t0))

	fmt.Println("-- overlay-window program flow (Section V-B) --")
	data := bytes.Repeat([]byte{0xAA}, 32)
	w0 := t4 + sim.Microsecond
	w1, err := m.ProgramRow(w0, 1, 99, data)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("register burst + program buffer + execute: %v (controller-visible)\n", w1-w0)
	fmt.Printf("array program completes at +%v (posted, partition busy)\n", m.BusyUntil()-w1)
	ready, _ := m.PollStatus(w1, 1, 2*sim.Microsecond, 100)
	fmt.Printf("status register reports ready at %v\n\n", ready)

	fmt.Println("-- selective erasing (Section V-A) --")
	w2 := sim.Max(ready, m.BusyUntil())
	e1, _ := m.ProgramRow(w2, 1, 99, data) // plain overwrite
	plain := m.BusyUntil() - e1
	w3 := m.BusyUntil()
	zero := make([]byte, 32)
	z, _ := m.ProgramRow(w3, 1, 99, zero) // pre-RESET (all-zero program)
	w4 := sim.Max(z, m.BusyUntil())
	e2, _ := m.ProgramRow(w4, 1, 99, data) // SET-only
	erased := m.BusyUntil() - e2
	fmt.Printf("overwrite %v -> pre-erased overwrite %v (%.0f%% reduction)\n\n",
		plain, erased, 100*(1-float64(erased)/float64(plain)))

	fmt.Println("-- Figure 12: multi-resource-aware interleaving --")
	for _, sched := range []dramless.SchedulerPolicy{dramless.BareMetal, dramless.Interleaving} {
		sub, ready, err := dramless.NewPRAM(
			dramless.WithCapacityRows(1<<16),
			dramless.WithPolicy(sched),
			dramless.WithoutPrefetch())
		if err != nil {
			log.Fatal(err)
		}
		// Two 32 B requests on the same chip, different partitions.
		_, done, err := sub.ReadScatter(ready, []uint64{0, 1024}, 32)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s two requests, one chip: %v\n", sched.Name(), done-ready)
	}

	fmt.Println("\n-- LPDDR2-NVM command trace of one write through the controller --")
	sub, ready, err := dramless.NewPRAM(dramless.WithCapacityRows(1 << 16))
	if err != nil {
		log.Fatal(err)
	}
	sub.EnableTrace(true)
	if _, err := sub.Write(ready, 0, bytes.Repeat([]byte{0xEE}, 32)); err != nil {
		log.Fatal(err)
	}
	for i, c := range sub.Trace(0, 0) {
		fmt.Printf("  %2d: %v\n", i, c)
	}
	fmt.Println("  (register-row burst, program-buffer burst, execute burst -")
	fmt.Println("   every step a real three-phase-addressed window access)")
}
