package accel

import (
	"strings"
	"testing"

	"dramless/internal/mem"
	"dramless/internal/memctrl"
	"dramless/internal/pe"
	"dramless/internal/sim"
	"dramless/internal/workload"
)

func fastBackend() mem.Device {
	// Idealized DRAM backend: 100 ns, 25 GB/s.
	return mem.NewFlat("dram", 1<<30, sim.Nanoseconds(100), 25e9)
}

func smallKernelParams() workload.Params {
	return workload.Params{Scale: 256 << 10, Agents: 7}
}

func TestConfigValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
	c := Default()
	c.NumPEs = 1
	if err := c.Validate(); err == nil {
		t.Error("single-PE accelerator accepted")
	}
	c = Default()
	c.NoC.Ports = 3
	if err := c.Validate(); err == nil {
		t.Error("undersized crossbar accepted")
	}
	for _, lanes := range []int{-1, 1, 4} {
		c = Default()
		c.Lanes = lanes
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "lane executors were removed") {
			t.Errorf("Lanes = %d: err = %v, want a removed-executor rejection", lanes, err)
		}
	}
	if _, err := New(Default(), nil); err == nil {
		t.Error("nil backend accepted")
	}
}

func TestRunKernelCompletes(t *testing.T) {
	a := MustNew(Default(), fastBackend())
	rep, err := a.RunKernel(0, workload.MustByName("jaco1d"), smallKernelParams())
	if err != nil {
		t.Fatal(err)
	}
	if rep.ExecTime() <= 0 {
		t.Fatal("zero execution time")
	}
	if len(rep.Agents) != 7 {
		t.Fatalf("agents = %d, want 7", len(rep.Agents))
	}
	if rep.Instrs <= 0 {
		t.Fatal("no instructions retired")
	}
	for i, ag := range rep.Agents {
		if ag.Instructions == 0 {
			t.Fatalf("agent %d retired nothing", i)
		}
		if ag.L1.Hits+ag.L1.Misses == 0 {
			t.Fatalf("agent %d never touched L1", i)
		}
	}
}

func TestAgentsRunConcurrently(t *testing.T) {
	// Doubling the agent count over the same footprint should cut the
	// execution time substantially on a fast backend.
	k := workload.MustByName("gemver")
	run := func(npes int) sim.Duration {
		cfg := Default()
		cfg.NumPEs = npes
		cfg.NoC.Ports = npes + 2
		a := MustNew(cfg, fastBackend())
		rep, err := a.RunKernel(0, k, workload.Params{Scale: 256 << 10, Agents: npes - 1})
		if err != nil {
			t.Fatal(err)
		}
		return rep.ExecTime()
	}
	t2, t8 := run(2), run(8)
	if t8 >= t2 {
		t.Fatalf("8 PEs (%v) not faster than 2 PEs (%v)", t8, t2)
	}
	if float64(t8) > 0.5*float64(t2) {
		t.Fatalf("7 agents only %.2fx faster than 1", float64(t2)/float64(t8))
	}
}

func TestSlowBackendStallsDominant(t *testing.T) {
	slow := mem.NewFlat("slow", 1<<30, sim.Microseconds(50), 50e6)
	a := MustNew(Default(), slow)
	rep, err := a.RunKernel(0, workload.MustByName("jaco1d"), workload.Params{Scale: 64 << 10, Agents: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stall <= rep.Compute {
		t.Fatalf("slow backend: stall %v not above compute %v", rep.Stall, rep.Compute)
	}
	fast := MustNew(Default(), fastBackend())
	rep2, err := fast.RunKernel(0, workload.MustByName("jaco1d"), workload.Params{Scale: 64 << 10, Agents: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.ExecTime() >= rep.ExecTime() {
		t.Fatal("fast backend not faster than slow backend")
	}
}

func TestIPCSampling(t *testing.T) {
	cfg := Default()
	cfg.SampleInterval = 10 * sim.Microsecond
	a := MustNew(cfg, fastBackend())
	rep, err := a.RunKernel(0, workload.MustByName("gemver"), workload.Params{Scale: 128 << 10, Agents: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rep.IPC == nil || rep.IPC.Len() == 0 {
		t.Fatal("no IPC series sampled")
	}
	if got, want := rep.IPC.Total(), float64(rep.Instrs); got < want*0.99 || got > want*1.01 {
		t.Fatalf("IPC series mass %v, want ~%v", got, want)
	}
	if len(rep.Spans) != len(rep.Agents) {
		t.Fatalf("%d span lists for %d agents", len(rep.Spans), len(rep.Agents))
	}
	var active sim.Duration
	rep.EachSpan(func(s pe.Span) { active += s.T1 - s.T0 })
	if active != rep.Compute {
		t.Fatalf("active spans cover %v, agents computed %v", active, rep.Compute)
	}
	if rep.TotalIPC(1e9) <= 0 {
		t.Fatal("zero total IPC")
	}
}

func TestRunOnPRAMSubsystemEndToEnd(t *testing.T) {
	// Full DRAM-less stack: PEs -> L1 -> L2 -> MCU -> FPGA -> PRAM.
	cfg := memctrl.DefaultPolicyConfig(memctrl.Final)
	cfg.Geometry.RowsPerModule = 1 << 16
	sub := memctrl.MustNew(cfg)
	a := MustNew(Default(), sub)
	rep, err := a.RunKernel(0, workload.MustByName("trisolv"), workload.Params{Scale: 64 << 10, Agents: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ExecTime() <= 0 {
		t.Fatal("no progress on PRAM backend")
	}
	if sub.Stats().Reads == 0 {
		t.Fatal("PRAM subsystem never read")
	}
	// Write-back caches must have pushed kernel outputs into PRAM rows.
	if sub.Stats().Writes == 0 {
		t.Fatal("PRAM subsystem never written")
	}
}

func TestReportExecTime(t *testing.T) {
	r := &Report{Start: 100, End: 300}
	if r.ExecTime() != 200 {
		t.Fatal("exec time arithmetic wrong")
	}
}

func TestMCUStreamBufferAggregatesSequentialMisses(t *testing.T) {
	// A slow backend makes per-miss costs visible: with the aggregated
	// 1 KiB fetches, 8 sequential 128 B reads cost roughly one backend
	// access, not eight.
	slow := mem.NewFlat("slow", 1<<20, sim.Microseconds(10), 1e9)
	a := MustNew(Default(), slow)
	m := &mcuPath{a: a, port: 1}

	var now sim.Time
	// Prime the sequential detector with two back-to-back misses.
	_, now, err := mem.Read(m, 0, 0, 128)
	if err != nil {
		t.Fatal(err)
	}
	before := readsOf(slow)
	start := now
	for off := uint64(128); off < 1024; off += 128 {
		_, now, err = mem.Read(m, now, off, 128)
		if err != nil {
			t.Fatal(err)
		}
	}
	backendReads := readsOf(slow) - before
	if backendReads > 2 {
		t.Fatalf("7 sequential line misses issued %d backend reads, want <= 2 (aggregated)", backendReads)
	}
	// Buffer hits are cheap: the whole run of hits must cost far less
	// than one 10 us backend access each.
	if now-start > sim.Microseconds(25) {
		t.Fatalf("aggregated reads took %v", now-start)
	}
}

func TestMCUStreamBufferInvalidatedByWrites(t *testing.T) {
	backing := mem.NewFlat("m", 1<<20, sim.Nanoseconds(100), 1e9)
	a := MustNew(Default(), backing)
	reader := &mcuPath{a: a, port: 1}
	writer := &mcuPath{a: a, port: 2}

	// Fill the stream buffer over [0, 1024).
	if _, _, err := mem.Read(reader, 0, 0, 128); err != nil {
		t.Fatal(err)
	}
	if _, _, err := mem.Read(reader, 0, 128, 128); err != nil {
		t.Fatal(err)
	}
	// Another agent writes inside the buffered block.
	if _, err := writer.Write(0, 256, []byte{0xAB}); err != nil {
		t.Fatal(err)
	}
	got, _, err := mem.Read(reader, sim.Microseconds(1), 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xAB {
		t.Fatal("stream buffer served stale data after a write")
	}
}

func TestMCUStrideDoesNotAggregate(t *testing.T) {
	slow := mem.NewFlat("slow", 1<<20, sim.Microseconds(10), 1e9)
	a := MustNew(Default(), slow)
	m := &mcuPath{a: a, port: 1}
	before := readsOf(slow)
	now := sim.Time(0)
	var err error
	for i := 0; i < 4; i++ {
		_, now, err = mem.Read(m, now, uint64(i)*8192, 128) // strided: never sequential
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := readsOf(slow) - before; got != 4 {
		t.Fatalf("strided misses issued %d backend reads, want 4 (no useless aggregation)", got)
	}
	_, _, _, out := slow.Traffic()
	if out > 4*1024 {
		t.Fatalf("strided misses moved %d backend bytes, want line-sized fetches", out)
	}
}

func readsOf(f *mem.Flat) int64 {
	r, _, _, _ := f.Traffic()
	return r
}
