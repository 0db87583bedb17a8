package memctrl

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"dramless/internal/pram"
	"dramless/internal/sim"
)

// testConfig returns a small subsystem (64 Ki rows per module) so tests
// stay fast while keeping the full 2x16 topology.
func testConfig(p Policy) Config {
	cfg := DefaultPolicyConfig(p)
	cfg.Geometry.RowsPerModule = 1 << 16
	return cfg
}

func mustSubsystem(t *testing.T, p Policy) *Subsystem {
	t.Helper()
	sub, err := New(testConfig(p))
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

// paperPolicies are the four Figure 13 configurations with their
// display labels.
var paperPolicies = []struct {
	label string
	p     Policy
}{
	{"Bare-metal", BareMetal},
	{"Interleaving", Interleaving},
	{"Selective-erasing", SelectiveErasing},
	{"Final", Final},
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultPolicyConfig(Final).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cfg := DefaultPolicyConfig(Final)
	cfg.ChannelRequestBytes = 100 // not a row multiple
	if err := cfg.Validate(); err == nil {
		t.Error("bad channel request size accepted")
	}
	if _, err := New(DefaultPolicyConfig(nil)); err == nil {
		t.Error("nil policy accepted by New")
	}
}

// TestSchedulerFlags pins the capability vectors of the paper's four
// policies: interleaving and selective erasing, each alone and
// combined, and nothing beyond the paper.
func TestSchedulerFlags(t *testing.T) {
	want := map[Policy]Capabilities{
		BareMetal:        {},
		Interleaving:     {Interleave: true},
		SelectiveErasing: {SelectiveErase: true},
		Final:            {Interleave: true, SelectiveErase: true},
	}
	for _, pp := range paperPolicies {
		if got := pp.p.Capabilities(); got != want[pp.p] {
			t.Errorf("%s: capabilities %+v, want %+v", pp.label, got, want[pp.p])
		}
		byName, err := PolicyByName(pp.label)
		if err != nil || byName != pp.p {
			t.Errorf("PolicyByName(%q) = %v, %v; want %s", pp.label, byName, err, pp.p.Name())
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	sub := mustSubsystem(t, Final)
	payload := make([]byte, 1024) // one full stripe: every module once
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	done, err := sub.Write(0, 4096, payload)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := sub.Read(sub.Drain(), 4096, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("round trip mismatch")
	}
	if done <= 0 {
		t.Fatal("write completed at time zero")
	}
}

func TestUnalignedAccessRoundTrip(t *testing.T) {
	sub := mustSubsystem(t, Final)
	payload := []byte("dramless: near-data processing with new memory!")
	addr := uint64(1000) // crosses row and module boundaries, offset 8 in row
	if _, err := sub.Write(0, addr, payload); err != nil {
		t.Fatal(err)
	}
	got, _, err := sub.Read(sub.Drain(), addr, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("got %q", got)
	}
}

func TestStripingCoversAllModules(t *testing.T) {
	sub := mustSubsystem(t, Final)
	// 1 KiB from address 0 must touch all 32 modules exactly once.
	seen := map[[2]int]int{}
	for off := uint64(0); off < 1024; off += 32 {
		loc := sub.locate(off)
		seen[[2]int{loc.ch, loc.pkg}]++
	}
	if len(seen) != 32 {
		t.Fatalf("stripe touched %d modules, want 32", len(seen))
	}
	for k, v := range seen {
		if v != 1 {
			t.Fatalf("module %v touched %d times", k, v)
		}
	}
	// Consecutive stripes advance the module-local row.
	l0, l1 := sub.locate(0), sub.locate(1024)
	if l0.ch != l1.ch || l0.pkg != l1.pkg || l1.row != l0.row+1 {
		t.Fatalf("stripe advance wrong: %+v -> %+v", l0, l1)
	}
}

func TestOutOfRangeRejected(t *testing.T) {
	sub := mustSubsystem(t, Final)
	if _, _, err := sub.Read(0, sub.Size(), 1); err == nil {
		t.Error("read past end accepted")
	}
	if _, err := sub.Write(0, sub.Size()-1, []byte{1, 2}); err == nil {
		t.Error("write past end accepted")
	}
	if _, _, err := sub.Read(0, 0, 0); err == nil {
		t.Error("zero-size read accepted")
	}
}

func TestPhaseSkippingStats(t *testing.T) {
	sub := mustSubsystem(t, Final)
	// Re-reading the same 32 B row must skip both phases after the first
	// access.
	if _, _, err := sub.Read(0, 0, 32); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sub.Read(sim.Microseconds(1), 0, 32); err != nil {
		t.Fatal(err)
	}
	st := sub.Stats()
	if st.FullAccesses == 0 {
		t.Error("first access not counted as full")
	}
	if st.ActivateSkips == 0 {
		t.Errorf("second access did not skip phases: %+v", st)
	}
}

func TestPhaseSkippingDisabled(t *testing.T) {
	cfg := testConfig(Final)
	cfg.PhaseSkipping = false
	cfg.Prefetch = false
	sub := MustNew(cfg)
	for i := 0; i < 3; i++ {
		if _, _, err := sub.Read(sim.Time(i)*sim.Microsecond, 0, 32); err != nil {
			t.Fatal(err)
		}
	}
	st := sub.Stats()
	if st.ActivateSkips != 0 || st.PreactiveSkips != 0 {
		t.Fatalf("phase skips recorded while disabled: %+v", st)
	}
	if st.FullAccesses != 3 {
		t.Fatalf("full accesses = %d, want 3", st.FullAccesses)
	}
}

func TestRereadLatencyDropsWithPhaseSkipping(t *testing.T) {
	sub := mustSubsystem(t, BareMetal) // no prefetch/interleave noise
	_, d1, err := sub.Read(0, 0, 32)
	if err != nil {
		t.Fatal(err)
	}
	start2 := d1 + sim.Microsecond
	_, d2, err := sub.Read(start2, 0, 32)
	if err != nil {
		t.Fatal(err)
	}
	first, second := d1, d2-start2
	if second >= first {
		t.Fatalf("RDB-hit read (%v) not faster than cold read (%v)", second, first)
	}
	// Skipping both phases removes tRP + tRCD (~87.5 ns of ~126.5 ns).
	if second > first/2 {
		t.Fatalf("RDB-hit read %v, want well under half of %v", second, first)
	}
}

func TestInterleavingBeatsBareMetalOnStreamingReads(t *testing.T) {
	read512 := func(p Policy) sim.Duration {
		cfg := testConfig(p)
		cfg.Prefetch = false
		sub := MustNew(cfg)
		_, done, err := sub.Read(0, 0, 512)
		if err != nil {
			t.Fatal(err)
		}
		return done
	}
	noop := read512(BareMetal)
	inter := read512(Interleaving)
	if inter >= noop {
		t.Fatalf("interleave (%v) not faster than bare-metal (%v)", inter, noop)
	}
	// The paper reports interleaving hides array access behind transfer
	// by ~40%; at the controller microbenchmark level the win on a
	// 16-row streaming read should be at least that.
	if float64(inter) > 0.6*float64(noop) {
		t.Fatalf("interleave %v vs noop %v: less than 40%% hiding", inter, noop)
	}
}

func TestFig12TwoRequestOverlap(t *testing.T) {
	// Figure 12: req-0 and req-1 target different partitions of the same
	// chip. With interleaving, req-1's tRP+tRCD overlaps req-0's data
	// burst, so the pair completes sooner than serial processing.
	elapsed := func(p Policy) sim.Duration {
		cfg := testConfig(p)
		cfg.Prefetch = false
		sub := MustNew(cfg)
		// Module-local rows 0 and 1 are partitions 0 and 1 of (ch0, pkg0):
		// global addresses 0 and 1024.
		_, d0, err := sub.Read(0, 0, 32)
		if err != nil {
			t.Fatal(err)
		}
		_, d1, err := sub.Read(0, 1024, 32)
		if err != nil {
			t.Fatal(err)
		}
		return sim.Max(d0, d1)
	}
	serial := elapsed(BareMetal)
	overlapped := elapsed(Interleaving)
	if overlapped >= serial {
		t.Fatalf("interleaved pair (%v) not faster than serial (%v)", overlapped, serial)
	}
}

func TestSelectiveErasingSpeedsOverwrites(t *testing.T) {
	overwriteTime := func(p Policy) sim.Duration {
		sub := mustSubsystem(t, p)
		buf := bytes.Repeat([]byte{0xA5}, 32)
		// Stale contents, then declare write intent; once the background
		// pass has had time to run, the overwrite is SET-only.
		d, err := sub.Write(0, 64, buf)
		if err != nil {
			t.Fatal(err)
		}
		d = sim.Max(d, sub.Drain())
		d2, err := sub.PreErase(d, 64, 32)
		if err != nil {
			t.Fatal(err)
		}
		start := sim.Max(d2, sub.Drain()) + sim.Milliseconds(1) // idle window for the pre-RESET
		if _, err = sub.Write(start, 64, buf); err != nil {
			t.Fatal(err)
		}
		return sub.Drain() - start
	}
	plain := overwriteTime(Interleaving) // PreErase is a no-op here
	erased := overwriteTime(Final)
	if erased >= plain {
		t.Fatalf("pre-erased overwrite (%v) not faster than plain (%v)", erased, plain)
	}
	red := 1 - float64(erased)/float64(plain)
	if red < 0.30 || red > 0.60 {
		t.Fatalf("selective-erase reduction = %.0f%%, want ~44%%", red*100)
	}
}

func TestPreEraseNoopWithoutSelErase(t *testing.T) {
	sub := mustSubsystem(t, Interleaving)
	done, err := sub.PreErase(5, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if done != 5 {
		t.Fatalf("no-op PreErase returned %v, want the start time", done)
	}
	if st := sub.Stats(); st.PreErasedRows != 0 {
		t.Fatalf("rows pre-erased despite policy: %+v", st)
	}
}

func TestPreEraseSkipsPartialRows(t *testing.T) {
	sub := mustSubsystem(t, Final)
	// Live data around the intent region must survive.
	live := bytes.Repeat([]byte{0x77}, 96)
	if _, err := sub.Write(0, 0, live); err != nil {
		t.Fatal(err)
	}
	d := sub.Drain()
	// Intent [40, 88): only row [64,96) is fully covered... no wait,
	// rows are 32 B: [32,64) is partially covered (40..64), [64,88)
	// partially. Only full rows inside the range may be zeroed; here
	// none are full, so nothing may be erased.
	if _, err := sub.PreErase(d, 40, 48); err != nil {
		t.Fatal(err)
	}
	got, _, err := sub.Read(sub.Drain(), 0, 96)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, live) {
		t.Fatal("PreErase destroyed live data in partial rows")
	}
}

func TestBootInitializesAllModules(t *testing.T) {
	sub := mustSubsystem(t, Final)
	done, err := sub.Boot(0)
	if err != nil {
		t.Fatal(err)
	}
	if done < 150*sim.Microsecond {
		t.Fatalf("boot completed at %v, before auto-init time", done)
	}
	for c := 0; c < 2; c++ {
		for p := 0; p < 16; p++ {
			if !sub.Module(c, p).Ready(done) {
				t.Fatalf("module %d/%d not ready after boot", c, p)
			}
		}
	}
}

func TestPrefetchPopulatesNextRow(t *testing.T) {
	cfg := testConfig(Final)
	sub := MustNew(cfg)
	if _, _, err := sub.Read(0, 0, 32); err != nil { // module (0,0) row 0
		t.Fatal(err)
	}
	st := sub.Stats()
	if st.Prefetches == 0 {
		t.Fatal("no prefetch issued on streaming read")
	}
	// The next stripe's same-module row (global addr 1024) should now be
	// a phase-skip hit.
	if _, ok := sub.Module(0, 0).RDBHit(1); !ok {
		t.Fatal("prefetched row not in an RDB")
	}
}

func TestWritesArePostedBehindProgramBuffer(t *testing.T) {
	sub := mustSubsystem(t, Final)
	buf := bytes.Repeat([]byte{1}, 32)
	done, err := sub.Write(0, 0, buf)
	if err != nil {
		t.Fatal(err)
	}
	// The controller accepts the write long before the ~10 us array
	// program finishes.
	if done >= sim.Microseconds(5) {
		t.Fatalf("write acceptance took %v, want < 5us (posted)", done)
	}
	if drain := sub.Drain(); drain < sim.Microseconds(10) {
		t.Fatalf("array program finished at %v, want >= 10us", drain)
	}
}

func TestModuleStatsAggregate(t *testing.T) {
	sub := mustSubsystem(t, Final)
	if _, err := sub.Write(0, 0, bytes.Repeat([]byte{3}, 64)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sub.Read(sub.Drain(), 0, 64); err != nil {
		t.Fatal(err)
	}
	ms := sub.ModuleStats()
	if ms.Programs != 2 {
		t.Fatalf("programs = %d, want 2 (two rows)", ms.Programs)
	}
	if ms.ReadBursts < 2 {
		t.Fatalf("read bursts = %d, want >= 2 (two rows)", ms.ReadBursts)
	}
	cs := sub.Stats()
	if cs.BytesWritten != 64 || cs.BytesRead != 64 {
		t.Fatalf("controller stats = %+v", cs)
	}
}

// Property: any sequence of writes then reads over a 4 KiB region matches
// a shadow buffer, across all schedulers.
func TestFunctionalEquivalenceProperty(t *testing.T) {
	for _, pp := range paperPolicies {
		pp := pp
		t.Run(pp.label, func(t *testing.T) {
			sub := mustSubsystem(t, pp.p)
			shadow := make([]byte, 4096)
			now := sim.Time(0)
			f := func(off uint16, n uint8, fill byte, write bool) bool {
				addr := uint64(off) % 4000
				size := int(n)%96 + 1
				if addr+uint64(size) > 4096 {
					size = int(4096 - addr)
				}
				if write {
					data := bytes.Repeat([]byte{fill}, size)
					done, err := sub.Write(now, addr, data)
					if err != nil {
						return false
					}
					copy(shadow[addr:], data)
					now = sim.Max(done, sub.Drain())
					return true
				}
				got, done, err := sub.Read(now, addr, size)
				if err != nil {
					return false
				}
				now = done
				return bytes.Equal(got, shadow[addr:addr+uint64(size)])
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSubsystemSizeExcludesOverlayWindow(t *testing.T) {
	sub := mustSubsystem(t, Final)
	g := sub.Config().Geometry
	perModule := g.Size() - pram.WindowSize
	if want := perModule * 32; sub.Size() != want {
		t.Fatalf("size = %d, want %d", sub.Size(), want)
	}
	// The last addressable byte must be usable.
	if _, err := sub.Write(0, sub.Size()-32, bytes.Repeat([]byte{9}, 32)); err != nil {
		t.Fatalf("write at top of space failed: %v", err)
	}
}

func TestCommandTrace(t *testing.T) {
	sub := mustSubsystem(t, Final)
	sub.EnableTrace(true)
	if _, _, err := sub.Read(0, 0, 32); err != nil { // (ch0, pkg0) row 0
		t.Fatal(err)
	}
	trace := sub.Trace(0, 0)
	if len(trace) < 3 {
		t.Fatalf("trace has %d commands, want a full three-phase sequence", len(trace))
	}
	// The cold read must show PREACTIVE -> ACTIVATE -> READ in order.
	var ops []string
	for _, c := range trace {
		ops = append(ops, c.Op.String())
	}
	joined := strings.Join(ops, " ")
	if !strings.Contains(joined, "PREACTIVE") || !strings.Contains(joined, "ACTIVATE") || !strings.Contains(joined, "READ") {
		t.Fatalf("trace %v missing a phase", joined)
	}
	// Untraced module stays empty.
	if got := sub.Trace(1, 3); len(got) != 0 {
		t.Fatalf("idle module has %d commands", len(got))
	}
}

// MustNew is New for known-good configurations.
func MustNew(cfg Config) *Subsystem {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// TestPopulateMatchesRowByRowLoad checks the run-loading Populate
// against loading the same bytes one row at a time, with and without
// wear leveling (whose moved gaps split the runs): the stored bytes
// agree, and so do the cell states, which set the timing and program
// counts of a write sweep over the range afterwards.
func TestPopulateMatchesRowByRowLoad(t *testing.T) {
	const addr, n = 1000, 70001 // unaligned at both ends
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*7 + 1)
	}
	rowByRow := func(s *Subsystem) {
		for off := 0; off < n; {
			loc := s.locate(s.translate(addr + uint64(off)))
			take := min(int(s.rowBytes)-loc.col, n-off)
			m := s.channels[loc.ch].modules[loc.pkg]
			row := m.PeekRow(loc.row)
			if loc.col == 0 {
				row = row[:take]
			}
			copy(row[loc.col:], data[off:off+take])
			if err := m.LoadRow(loc.row, row); err != nil {
				t.Fatal(err)
			}
			off += take
		}
	}
	for _, wear := range []bool{false, true} {
		build := func() *Subsystem {
			cfg := testConfig(Final)
			if wear {
				cfg.Wear = WearConfig{Enabled: true, GapWritePeriod: 1, RegionRows: 64}
			}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Move some gaps away from their starting rows.
			for a := uint64(0); a < 4096; a += 96 {
				if _, err := s.Write(0, a, bytes.Repeat([]byte{0xEE}, 32)); err != nil {
					t.Fatal(err)
				}
			}
			return s
		}
		got, want := build(), build()
		if err := got.Populate(addr, data); err != nil {
			t.Fatal(err)
		}
		rowByRow(want)
		for c := range got.channels {
			for p := range got.channels[c].modules {
				for r := uint64(0); r < 4096; r++ {
					if g, w := got.Module(c, p).PeekRow(r), want.Module(c, p).PeekRow(r); !bytes.Equal(g, w) {
						t.Fatalf("wear %t: module %d/%d row %d holds %x, want %x", wear, c, p, r, g, w)
					}
				}
			}
		}
		at := sim.Max(got.Drain(), want.Drain())
		for a := uint64(addr); a < addr+n; a += 512 {
			row := bytes.Repeat([]byte{byte(a) | 1}, 32)
			dg, err := got.Write(at, a, row)
			if err != nil {
				t.Fatal(err)
			}
			dw, err := want.Write(at, a, row)
			if err != nil {
				t.Fatal(err)
			}
			if dg != dw {
				t.Fatalf("wear %t: write at %#x done %v, want %v", wear, a, dg, dw)
			}
		}
		if g, w := got.ModuleStats(), want.ModuleStats(); g != w {
			t.Fatalf("wear %t: module stats after the sweep %+v, want %+v", wear, g, w)
		}
		if wear && got.WearStats().GapMoves == 0 {
			t.Fatal("no gap moved")
		}
	}
}
