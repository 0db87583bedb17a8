package pe

import (
	"reflect"
	"testing"

	"dramless/internal/cache"
	"dramless/internal/mem"
	"dramless/internal/sim"
	"dramless/internal/workload"
)

// opsStream replays a fixed op list.
type opsStream struct {
	ops []workload.Op
	i   int
}

func (s *opsStream) Next() (workload.Op, bool) {
	if s.i >= len(s.ops) {
		return workload.Op{}, false
	}
	op := s.ops[s.i]
	s.i++
	return op, true
}

func fastMem() mem.Device {
	return mem.NewFlat("m", 1<<20, sim.Nanoseconds(100), 10e9)
}

// cachedMem is the production shape of a PE's memory: an L1 data cache,
// whose ReadRun/WriteRun give the PE its batched fast path, over a flat
// backing store.
func cachedMem(t *testing.T) mem.Device {
	t.Helper()
	l1, err := cache.New(cache.L1Data(), fastMem())
	if err != nil {
		t.Fatal(err)
	}
	return l1
}

func TestConfigValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
	c := Default()
	c.ClockHz = 0
	if err := c.Validate(); err == nil {
		t.Error("zero clock accepted")
	}
	c = Default()
	c.EffectiveIPC = 100
	if err := c.Validate(); err == nil {
		t.Error("IPC above issue width accepted")
	}
	if _, err := New(0, Default(), nil, &opsStream{}, 0); err == nil {
		t.Error("nil memory accepted")
	}
	if _, err := New(0, Default(), fastMem(), nil, 0); err == nil {
		t.Error("nil stream accepted")
	}
}

func TestComputeTiming(t *testing.T) {
	// 400 instructions at 4 IPC and 1 GHz = 100 cycles = 100 ns.
	p, err := New(0, Default(), fastMem(), &opsStream{ops: []workload.Op{{Compute: 400}}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if got := p.Now(); got != sim.Nanoseconds(100) {
		t.Fatalf("compute time = %v, want 100ns", got)
	}
	if p.Instructions() != 400 {
		t.Fatalf("instrs = %d", p.Instructions())
	}
	if p.StallTime() != 0 {
		t.Fatalf("pure compute recorded stall %v", p.StallTime())
	}
}

func TestMemoryStallAccounting(t *testing.T) {
	stream := &opsStream{ops: []workload.Op{
		{Compute: 40, Addr: 0, Size: 32},
		{Compute: 40, Addr: 4096, Size: 32, Write: true},
	}}
	p, err := New(1, Default(), fastMem(), stream, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	// Each op: 10 ns compute + >= 100 ns memory.
	if p.ComputeTime() != sim.Nanoseconds(20) {
		t.Fatalf("compute = %v, want 20ns", p.ComputeTime())
	}
	if p.StallTime() < sim.Nanoseconds(200) {
		t.Fatalf("stall = %v, want >= 200ns", p.StallTime())
	}
	// 80 compute + 2 load/store instructions.
	if p.Instructions() != 82 {
		t.Fatalf("instrs = %d, want 82", p.Instructions())
	}
}

func TestStartTimeRespected(t *testing.T) {
	p, _ := New(0, Default(), fastMem(), &opsStream{ops: []workload.Op{{Compute: 4}}}, sim.Microseconds(5))
	p.Run()
	if p.Now() <= sim.Microseconds(5) {
		t.Fatal("PE ran before its boot time")
	}
}

func TestIPCSeriesMassMatchesInstructions(t *testing.T) {
	stream := &opsStream{}
	for i := 0; i < 50; i++ {
		stream.ops = append(stream.ops, workload.Op{Compute: 100, Addr: uint64(i * 64), Size: 32})
	}
	p, _ := New(0, Default(), fastMem(), stream, 0)
	p.SampleIPC(sim.Microsecond)
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	var got float64
	for i := 0; i < p.IPCSeries().Len(); i++ {
		got += p.IPCSeries().At(i)
	}
	want := float64(p.Instructions())
	if got < want*0.99 || got > want*1.01 {
		t.Fatalf("series mass %v vs instructions %v", got, want)
	}
}

func TestActiveSpans(t *testing.T) {
	stream := &opsStream{ops: []workload.Op{
		{Compute: 400},
		{Addr: 0, Size: 32},
		{Compute: 40, Addr: 32, Size: 32},
	}}
	p, _ := New(0, Default(), fastMem(), stream, 0)
	p.RecordSpans()
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	spans := p.ActiveSpans()
	if spans.Len() != 2 {
		t.Fatalf("%d active spans, want one per compute op (2)", spans.Len())
	}
	var covered sim.Duration
	for i := 0; i < spans.Len(); i++ {
		s := spans.At(i)
		if s.T1 <= s.T0 || (i > 0 && s.T0 < spans.At(i-1).T1) {
			t.Fatalf("span %d %+v empty or out of order", i, s)
		}
		covered += s.T1 - s.T0
	}
	if covered != p.ComputeTime() {
		t.Fatalf("span coverage %v vs compute time %v", covered, p.ComputeTime())
	}
}

// recordedRun runs ops on one PE over an L1 cache with IPC sampling and
// span recording on, and returns the PE and how many Steps it took.
func recordedRun(t *testing.T, cfg Config, ops []workload.Op) (*PE, int) {
	t.Helper()
	p, err := New(3, cfg, cachedMem(t), &opsStream{ops: ops}, sim.Nanoseconds(7))
	if err != nil {
		t.Fatal(err)
	}
	p.SampleIPC(sim.Nanoseconds(300))
	p.RecordSpans()
	steps := 0
	for {
		ok, err := p.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return p, steps
		}
		steps++
	}
}

// TestFoldedRecordersMatchScalar pins the sampled fold: memory runs
// (recorded through mem.Run.OnOp) and compute-only runs (the closed
// form) must record the same active spans and the bit-identical IPC
// series as op-at-a-time execution, in fewer steps.
func TestFoldedRecordersMatchScalar(t *testing.T) {
	var ops []workload.Op // > spanBlock compute ops, so spans span blocks
	for i := 0; i < 1200; i++ {
		ops = append(ops, workload.Op{Compute: 37, Addr: uint64(i) * 32, Size: 32})
	}
	for i := 0; i < 150; i++ {
		ops = append(ops, workload.Op{Compute: 123})
	}
	for i := 0; i < 100; i++ {
		ops = append(ops, workload.Op{Compute: 5, Addr: 1<<16 + uint64(i)*64, Size: 32, Write: true})
	}
	for i := 0; i < 50; i++ {
		ops = append(ops, workload.Op{Addr: 1<<17 + uint64(i)*32, Size: 32})
	}
	ucfg := Default()
	ucfg.Unbatched = true
	scalar, scalarSteps := recordedRun(t, ucfg, ops)
	folded, foldedSteps := recordedRun(t, Default(), ops)

	if foldedSteps >= scalarSteps {
		t.Errorf("batched run took %d steps, unbatched %d: sampled runs did not fold", foldedSteps, scalarSteps)
	}
	if !reflect.DeepEqual(folded.IPCSeries(), scalar.IPCSeries()) {
		t.Error("IPC series differ between folded and scalar execution")
	}
	fs, ss := folded.ActiveSpans(), scalar.ActiveSpans()
	if fs.Len() != ss.Len() {
		t.Fatalf("%d folded spans != %d scalar spans", fs.Len(), ss.Len())
	}
	for i := 0; i < fs.Len(); i++ {
		if fs.At(i) != ss.At(i) {
			t.Fatalf("span %d: folded %+v != scalar %+v", i, fs.At(i), ss.At(i))
		}
	}
	if folded.Now() != scalar.Now() || folded.Instructions() != scalar.Instructions() {
		t.Errorf("folded run ends at %v with %d instructions, scalar at %v with %d",
			folded.Now(), folded.Instructions(), scalar.Now(), scalar.Instructions())
	}
}

func TestStepAfterDone(t *testing.T) {
	p, _ := New(0, Default(), fastMem(), &opsStream{}, 0)
	ok, err := p.Step()
	if err != nil || ok {
		t.Fatal("empty stream should finish immediately")
	}
	if !p.Done() {
		t.Fatal("not done")
	}
	ok, _ = p.Step()
	if ok {
		t.Fatal("step after done made progress")
	}
}

func TestMemoryErrorPropagates(t *testing.T) {
	small := mem.NewFlat("tiny", 64, sim.Nanoseconds(1), 1e9)
	p, _ := New(3, Default(), small, &opsStream{ops: []workload.Op{{Addr: 1000, Size: 32}}}, 0)
	if err := p.Run(); err == nil {
		t.Fatal("out-of-range access did not error")
	}
}

func TestKernelStreamRunsOnPE(t *testing.T) {
	k := workload.MustByName("trisolv")
	params := workload.Params{Scale: 16 << 10, Agents: 2}
	stream, err := workload.NewStream(k, params, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := New(0, Default(), fastMem(), stream, 0)
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if p.Instructions() == 0 || p.Now() == 0 {
		t.Fatal("kernel stream made no progress")
	}
}

func TestDSPIntrinsicsDoubleComputeRate(t *testing.T) {
	run := func(dsp bool) sim.Time {
		cfg := Default()
		cfg.DSPIntrinsics = dsp
		p, err := New(0, cfg, fastMem(), &opsStream{ops: []workload.Op{{Compute: 4000}}}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Run(); err != nil {
			t.Fatal(err)
		}
		return p.Now()
	}
	with, without := run(true), run(false)
	if without != 2*with {
		t.Fatalf("without intrinsics %v, want 2x the optimized %v", without, with)
	}
}

// Done reports stream exhaustion.
func (p *PE) Done() bool { return p.done }

// Run steps the PE to completion (single-PE convenience; multi-PE runs
// interleave Steps in time order via the accel package).
func (p *PE) Run() error {
	for {
		ok, err := p.Step()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
}
