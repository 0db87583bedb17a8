package lpddr

import (
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"dramless/internal/sim"
)

func TestDefaultParamsMatchTable2(t *testing.T) {
	p := Default()
	if err := p.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	if p.TCK != sim.Nanoseconds(2.5) {
		t.Errorf("tCK = %v, want 2.5ns", p.TCK)
	}
	if p.RLCycles != 6 || p.WLCycles != 3 || p.TRPCycles != 3 {
		t.Errorf("RL/WL/tRP = %d/%d/%d, want 6/3/3", p.RLCycles, p.WLCycles, p.TRPCycles)
	}
	if p.TRCD != sim.Nanoseconds(80) {
		t.Errorf("tRCD = %v, want 80ns", p.TRCD)
	}
	if p.NumRAB != 4 || p.RDBBytes != 32 || p.Partitions != 16 {
		t.Errorf("RAB/RDB/partitions = %d/%d/%d, want 4/32/16", p.NumRAB, p.RDBBytes, p.Partitions)
	}
	if p.Channels != 2 || p.Packages != 16 {
		t.Errorf("channels/packages = %d/%d, want 2/16", p.Channels, p.Packages)
	}
}

func TestDerivedTiming(t *testing.T) {
	p := Default()
	if got := p.TRP(); got != sim.Nanoseconds(7.5) {
		t.Errorf("tRP = %v, want 7.5ns", got)
	}
	if got := p.RL(); got != sim.Nanoseconds(15) {
		t.Errorf("RL = %v, want 15ns", got)
	}
	if got := p.TBurst(); got != sim.Nanoseconds(20) {
		t.Errorf("tBURST = %v, want 20ns (BL16 at 2.5ns DDR)", got)
	}
	if got := p.BurstBytes(); got != 32 {
		t.Errorf("burst bytes = %d, want 32", got)
	}
	if got := p.BurstsPerRow(); got != 1 {
		t.Errorf("bursts per row = %d, want 1", got)
	}
	// The paper reports ~100 ns end-to-end read including three-phase
	// addressing; the derived value must land near that.
	lat := p.RowReadLatency()
	if lat < sim.Nanoseconds(100) || lat > sim.Nanoseconds(150) {
		t.Errorf("row read latency = %v, want ~100-150ns", lat)
	}
}

// TestCellStateIsOneByte pins the footprint of per-word cell state:
// every PRAM row keeps one CellState per word, so widening the type
// multiplies the simulator's resident set (see the pram segment
// footprint test).
func TestCellStateIsOneByte(t *testing.T) {
	if n := unsafe.Sizeof(CellState(0)); n != 1 {
		t.Fatalf("CellState is %d bytes, want 1", n)
	}
}

func TestProgramTimeByCellState(t *testing.T) {
	p := Default()
	fresh := p.ProgramTime(CellFresh)
	over := p.ProgramTime(CellProgrammed)
	erased := p.ProgramTime(CellErased)
	if fresh != sim.Microseconds(10) {
		t.Errorf("fresh program = %v, want 10us", fresh)
	}
	if over != sim.Microseconds(18) {
		t.Errorf("overwrite = %v, want 18us", over)
	}
	// Selective erasing claim: overwrite latency drops by 44% (18us -> 10us).
	reduction := 1 - float64(erased)/float64(over)
	if reduction < 0.40 || reduction > 0.60 {
		t.Errorf("selective-erase reduction = %.0f%%, want 44-55%%", reduction*100)
	}
}

func TestParamsValidateRejectsBadConfigs(t *testing.T) {
	cases := []func(*Params){
		func(p *Params) { p.TCK = 0 },
		func(p *Params) { p.RLCycles = 0 },
		func(p *Params) { p.TRCD = -1 },
		func(p *Params) { p.BurstLen = 5 },
		func(p *Params) { p.NumRAB = 9 },
		func(p *Params) { p.RDBBytes = 0 },
		func(p *Params) { p.Partitions = 0 },
		func(p *Params) { p.Channels = 0 },
		func(p *Params) { p.CellProgram = 0 },
	}
	for i, mutate := range cases {
		p := Default()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestPacketRoundTrip(t *testing.T) {
	cmds := []Command{
		{Op: OpPreactive, BA: 2, Addr: 0x1FFF},
		{Op: OpActivate, BA: 0, Addr: 0x7F},
		{Op: OpRead, BA: 3, Addr: 0},
		{Op: OpWrite, BA: 1, Addr: 0x3FFF},
		{Op: OpMRW, Addr: 0x10},
		{Op: OpNop},
	}
	for _, c := range cmds {
		p, err := Encode(c)
		if err != nil {
			t.Fatalf("encode %v: %v", c, err)
		}
		if uint32(p) >= 1<<20 {
			t.Fatalf("packet for %v exceeds 20 bits: %#x", c, uint32(p))
		}
		got, err := Decode(p)
		if err != nil {
			t.Fatalf("decode %v: %v", c, err)
		}
		if got != c {
			t.Fatalf("round trip %v -> %v", c, got)
		}
	}
}

func TestEncodeRejectsOverflow(t *testing.T) {
	if _, err := Encode(Command{Op: OpRead, BA: 4}); err == nil {
		t.Error("BA overflow accepted")
	}
	if _, err := Encode(Command{Op: OpRead, Addr: 1 << 14}); err == nil {
		t.Error("addr overflow accepted")
	}
	if _, err := Encode(Command{Op: numOps}); err == nil {
		t.Error("bad opcode accepted")
	}
}

func TestDecodeRejectsWidePacket(t *testing.T) {
	if _, err := Decode(Packet(1 << 20)); err == nil {
		t.Error("21-bit packet accepted")
	}
}

// Property: every in-range command round-trips through the 20-bit packet.
func TestPacketRoundTripProperty(t *testing.T) {
	f := func(op uint8, ba uint8, addr uint32) bool {
		c := Command{Op: Op(op % uint8(numOps)), BA: ba % 4, Addr: addr & addrMask}
		p, err := Encode(c)
		if err != nil {
			return false
		}
		got, err := Decode(p)
		return err == nil && got == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTrackerEnforcesThreePhaseOrder(t *testing.T) {
	tr := NewTracker(4)
	// READ before any activation must fail.
	if err := tr.Observe(Command{Op: OpRead, BA: 0}); err == nil {
		t.Fatal("READ without activation accepted")
	}
	// ACTIVATE before PREACTIVE must fail.
	if err := tr.Observe(Command{Op: OpActivate, BA: 1}); err == nil {
		t.Fatal("ACTIVATE without PREACTIVE accepted")
	}
	// Correct sequence passes.
	for _, c := range []Command{
		{Op: OpPreactive, BA: 1, Addr: 0x12},
		{Op: OpActivate, BA: 1, Addr: 0x3},
		{Op: OpRead, BA: 1, Addr: 0},
		{Op: OpRead, BA: 1, Addr: 8}, // phase skipping: reuse activation
	} {
		if err := tr.Observe(c); err != nil {
			t.Fatalf("legal command %v rejected: %v", c, err)
		}
	}
	if !tr.Activated(1) || !tr.Loaded(1) {
		t.Fatal("tracker state not updated")
	}
}

func TestTrackerPreactiveInvalidatesActivation(t *testing.T) {
	tr := NewTracker(2)
	seq := []Command{
		{Op: OpPreactive, BA: 0},
		{Op: OpActivate, BA: 0},
		{Op: OpPreactive, BA: 0}, // new upper row address: old RDB pairing stale
	}
	for _, c := range seq {
		if err := tr.Observe(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Observe(Command{Op: OpRead, BA: 0}); err == nil {
		t.Fatal("READ after re-PREACTIVE accepted without new ACTIVATE")
	}
}

func TestTrackerRejectsOutOfRangeBA(t *testing.T) {
	tr := NewTracker(2)
	err := tr.Observe(Command{Op: OpPreactive, BA: 3})
	if err == nil || !strings.Contains(err.Error(), "BA 3") {
		t.Fatalf("out-of-range BA not rejected: %v", err)
	}
}

func TestTrackerHistoryAndReset(t *testing.T) {
	tr := NewTracker(4)
	tr.KeepHistory(true)
	_ = tr.Observe(Command{Op: OpPreactive, BA: 0})
	_ = tr.Observe(Command{Op: OpActivate, BA: 0})
	if len(tr.History()) != 2 {
		t.Fatalf("history = %d entries, want 2", len(tr.History()))
	}
	tr.Reset()
	if len(tr.History()) != 0 || tr.Loaded(0) || tr.Activated(0) {
		t.Fatal("reset did not clear state")
	}
}

func TestStringFormats(t *testing.T) {
	c := Command{Op: OpPreactive, BA: 2, Addr: 0x55}
	if s := c.String(); !strings.Contains(s, "PREACTIVE") || !strings.Contains(s, "ba=2") {
		t.Errorf("command string = %q", s)
	}
	if s := (Command{Op: OpMRW, Addr: 1}).String(); !strings.Contains(s, "MRW") {
		t.Errorf("MRW string = %q", s)
	}
	if CellErased.String() != "erased" || CellFresh.String() != "fresh" || CellProgrammed.String() != "programmed" {
		t.Error("cell state strings wrong")
	}
}
