package energy

import (
	"math"
	"testing"

	"dramless/internal/sim"
)

func TestDefaultsValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
	p := Default()
	// Order-of-magnitude invariants the experiments rely on.
	if p.FlashProgramPageJ <= p.PRAMProgramJ {
		t.Error("flash page program should cost far more than a PRAM row program")
	}
	if p.HostActiveWatts <= 8*p.PEActiveWatts {
		t.Error("host CPU power should exceed the whole accelerator's core power")
	}
	if p.PRAMOverwriteJ <= p.PRAMProgramJ {
		t.Error("overwrite (RESET+SET) must cost more than a fresh program")
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	p := Default()
	p.PEActiveWatts = 0
	if err := p.Validate(); err == nil {
		t.Error("zero PE power accepted")
	}
	p = Default()
	p.PRAMProgramJ = 0
	if err := p.Validate(); err == nil {
		t.Error("zero program energy accepted")
	}
}

func TestAccountBreakdown(t *testing.T) {
	a := new(Account)
	a.Add(CompPRAM, 2)
	a.Add(CompCore, 3)
	a.Add(CompPRAM, 1)
	if got := a.Breakdown().Get(CompPRAM); got != 3 {
		t.Fatalf("pram = %v", got)
	}
	if a.Total() != 6 {
		t.Fatalf("total = %v", a.Total())
	}
}

// TestBreakdown pins the component totals: repeated charges add up,
// Keys keeps first-charge order, and an absent component reads 0.
func TestBreakdown(t *testing.T) {
	a := new(Account)
	a.Add("compute", 3)
	a.Add("storage", 6)
	a.Add("compute", 1)
	b := a.Breakdown()
	if got := b.Get("compute"); got != 4 {
		t.Fatalf("compute = %v, want 4", got)
	}
	if got := b.Get("absent"); got != 0 {
		t.Fatalf("absent = %v, want 0", got)
	}
	if got := a.Total(); got != 10 {
		t.Fatalf("total = %v, want 10", got)
	}
	keys := b.Keys()
	if len(keys) != 2 || keys[0] != "compute" || keys[1] != "storage" {
		t.Fatalf("keys = %v", keys)
	}
	keys[0] = "mutated"
	if b.Keys()[0] != "compute" {
		t.Fatal("Keys returned the account's own slice")
	}
}

func TestAddPower(t *testing.T) {
	a := new(Account)
	a.AddPower(CompHost, 35, 0, sim.Second)
	if got := a.Total(); math.Abs(got-35) > 1e-9 {
		t.Fatalf("1s at 35W = %v J", got)
	}
	// Zero-length span charges nothing.
	a.AddPower(CompHost, 35, 5, 5)
	if got := a.Total(); math.Abs(got-35) > 1e-9 {
		t.Fatalf("zero span charged energy: %v", got)
	}
}

func TestPowerSeries(t *testing.T) {
	a := new(Account)
	if a.PowerSeries() != nil {
		t.Fatal("series present before enabling")
	}
	a.EnableSeries(sim.Microsecond)
	a.AddPower(CompCore, 2, 0, 2*sim.Microsecond) // 2 W for 2 us
	ps := a.PowerSeries()
	if len(ps) != 2 {
		t.Fatalf("series length = %d", len(ps))
	}
	if math.Abs(ps[0]-2) > 1e-6 || math.Abs(ps[1]-2) > 1e-6 {
		t.Fatalf("power = %v, want [2 2]", ps)
	}
	if a.Err() != nil {
		t.Fatal(a.Err())
	}
}

func TestAddSpanInstantaneous(t *testing.T) {
	a := new(Account)
	a.EnableSeries(sim.Microsecond)
	a.AddSpan(CompPRAM, 5e-9, 3*sim.Microsecond, 3*sim.Microsecond)
	if got := a.Breakdown().Get(CompPRAM); got != 5e-9 {
		t.Fatalf("instantaneous span lost energy: %v", got)
	}
}

// TestSeriesCumulativeAndRate pins the power series as joules per
// window over the window: 2 J in the first 1 us window reads 2 MW, and
// the windows add back up to the joules charged.
func TestSeriesCumulativeAndRate(t *testing.T) {
	a := new(Account)
	a.EnableSeries(sim.Microsecond)
	a.AddSpan(CompCore, 2, 0, 0)
	a.AddSpan(CompCore, 3, sim.Microsecond, sim.Microsecond)
	ps := a.PowerSeries()
	if len(ps) != 2 || math.Abs(ps[0]-2e6) > 1 || math.Abs(ps[1]-3e6) > 1 {
		t.Fatalf("power = %v, want [2e6 3e6]", ps)
	}
	var joules float64
	for _, w := range ps {
		joules += w * sim.Microsecond.Seconds()
	}
	if math.Abs(joules-a.Total()) > 1e-12 {
		t.Fatalf("series holds %v J, account %v J", joules, a.Total())
	}
}
