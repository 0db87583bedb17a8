package memctrl

import (
	"bytes"
	"testing"
	"testing/quick"

	"dramless/internal/sim"
)

func wearSubsystem(t *testing.T, period int) *Subsystem {
	t.Helper()
	cfg := testConfig(Final)
	cfg.Wear = WearConfig{Enabled: true, GapWritePeriod: period, RegionRows: 64}
	sub, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

func TestWearConfigValidate(t *testing.T) {
	if err := DefaultWear().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (WearConfig{Enabled: true, GapWritePeriod: 0, RegionRows: 64}).Validate(); err == nil {
		t.Fatal("zero period accepted")
	}
	if err := (WearConfig{Enabled: true, GapWritePeriod: 10, RegionRows: 1}).Validate(); err == nil {
		t.Fatal("one-row region accepted")
	}
	if err := (WearConfig{}).Validate(); err != nil {
		t.Fatal("disabled config rejected")
	}
}

func TestWearReservesSpareRows(t *testing.T) {
	plain := mustSubsystem(t, Final)
	leveled := wearSubsystem(t, 100)
	regions := plain.Size() / 32 / 64
	if leveled.Size() != plain.Size()-regions*32 {
		t.Fatalf("leveled size %d, want %d (one spare row per 64-row region)",
			leveled.Size(), plain.Size()-regions*32)
	}
}

func TestWearMapUnmapInverse(t *testing.T) {
	// 5 regions of 16 rows + a 7-row identity tail.
	w := &wearState{
		regionRows: 16, regions: 5,
		start:  make([]uint64, 5),
		gap:    []uint64{15, 15, 15, 15, 15},
		writes: make([]int64, 5),
	}
	logicalRows := uint64(5*15 + 7)
	check := func() {
		t.Helper()
		f := func(l uint32) bool {
			logical := uint64(l) % logicalRows
			p := w.mapRow(logical)
			back, ok := w.unmapRow(p)
			return ok && back == logical
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatalf("starts=%v gaps=%v: %v", w.start, w.gap, err)
		}
	}
	check()
	w.gap = []uint64{7, 0, 15, 3, 9}
	w.start = []uint64{3, 14, 0, 7, 1}
	check()
	for r := 0; r < 5; r++ {
		if _, ok := w.unmapRow(uint64(r)*16 + w.gap[r]); ok {
			t.Fatalf("region %d spare row unmapped to a logical row", r)
		}
	}
	// Identity tail round trip.
	if p := w.mapRow(5 * 15); p != 5*16 {
		t.Fatalf("tail mapping = %d, want %d", p, 5*16)
	}
}

func TestWearFunctionalRoundTrip(t *testing.T) {
	// With an aggressive period, the gap crosses live data repeatedly;
	// everything must still read back correctly.
	sub := wearSubsystem(t, 3)
	shadow := make([]byte, 4096)
	now := sim.Time(0)
	f := func(off uint16, fill byte, sz uint8) bool {
		addr := uint64(off) % 3800
		n := int(sz)%200 + 1
		data := bytes.Repeat([]byte{fill}, n)
		done, err := sub.Write(now, addr, data)
		if err != nil {
			return false
		}
		copy(shadow[addr:], data)
		now = sim.Max(done, sub.Drain())
		got, done2, err := sub.Read(now, 0, 3800)
		if err != nil {
			return false
		}
		now = done2
		return bytes.Equal(got[:3800], shadow[:3800])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	if sub.WearStats().GapMoves == 0 {
		t.Fatal("gap never moved despite period 3")
	}
}

func TestWearSpreadsHotRow(t *testing.T) {
	// Hammer one logical row; with leveling the hottest physical row must
	// see far fewer programs than the total.
	const hammers = 600
	run := func(enabled bool) WearStats {
		cfg := testConfig(Final)
		cfg.Wear = WearConfig{Enabled: enabled, GapWritePeriod: 10, RegionRows: 8}
		sub := MustNew(cfg)
		buf := bytes.Repeat([]byte{0xAB}, 32)
		now := sim.Time(0)
		for i := 0; i < hammers; i++ {
			d, err := sub.Write(now, 64, buf)
			if err != nil {
				t.Fatal(err)
			}
			now = sim.Max(d, sub.Drain())
		}
		return sub.WearStats()
	}
	leveled := run(true)
	if !leveled.Enabled {
		t.Fatal("stats say leveling disabled")
	}
	if leveled.GapMoves < hammers/10-2 {
		t.Fatalf("gap moves = %d, want ~%d", leveled.GapMoves, hammers/10)
	}
	// Start-gap bounds per-row wear to roughly period x rows-visited; the
	// hot row's writes must be spread across many physical rows.
	if leveled.MaxWear >= hammers/2 {
		t.Fatalf("max wear %d out of %d writes: leveling ineffective", leveled.MaxWear, hammers)
	}
	// The hot row rotates within its 8-row region: all of it gets used.
	if leveled.Rows < 8 {
		t.Fatalf("only %d physical rows touched, want the whole region", leveled.Rows)
	}
	plain := run(false)
	if plain.Enabled || plain.GapMoves != 0 {
		t.Fatalf("disabled run recorded leveling: %+v", plain)
	}
}

func TestWearLevelingCostsBandwidth(t *testing.T) {
	// Gap moves are real copies: the leveled run must be slower on a
	// write-heavy stream than the plain one, but not wildly (psi=100
	// should cost a few percent).
	stream := func(wear WearConfig) sim.Duration {
		cfg := testConfig(Final)
		cfg.Wear = wear
		sub := MustNew(cfg)
		buf := bytes.Repeat([]byte{1}, 128)
		now := sim.Time(0)
		for i := 0; i < 500; i++ {
			d, err := sub.Write(now, uint64(i%64)*128, buf)
			if err != nil {
				t.Fatal(err)
			}
			now = d
		}
		return sub.Drain()
	}
	plain := stream(WearConfig{})
	leveled := stream(DefaultWear())
	if leveled <= plain {
		t.Fatalf("leveling was free: %v vs %v", leveled, plain)
	}
	if float64(leveled) > 1.5*float64(plain) {
		t.Fatalf("psi=100 leveling cost %.0f%%, want modest",
			(float64(leveled)/float64(plain)-1)*100)
	}
}

func TestWearWithSelectiveErasing(t *testing.T) {
	// Intent ranges are logical; the unmap path must keep selective
	// erasing working under an active leveler.
	sub := wearSubsystem(t, 5)
	buf := bytes.Repeat([]byte{0x77}, 32)
	d, err := sub.Write(0, 96, buf)
	if err != nil {
		t.Fatal(err)
	}
	d = sim.Max(d, sub.Drain())
	d2, err := sub.PreErase(d, 96, 32)
	if err != nil {
		t.Fatal(err)
	}
	start := sim.Max(d2, sub.Drain()) + sim.Milliseconds(1)
	if _, err := sub.Write(start, 96, buf); err != nil {
		t.Fatal(err)
	}
	if sub.Stats().PreErasedRows == 0 {
		t.Fatal("selective erasing inert under wear leveling")
	}
	got, _, err := sub.Read(sub.Drain(), 96, 32)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf) {
		t.Fatal("data corrupted")
	}
}
