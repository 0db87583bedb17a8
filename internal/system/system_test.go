package system

import (
	"runtime"
	"strings"
	"testing"

	"dramless/internal/energy"
	"dramless/internal/memctrl"
	"dramless/internal/obs"
	"dramless/internal/sim"
	"dramless/internal/workload"
)

// testConfig shrinks the footprint so the full matrix stays fast.
func testConfig(kind Kind) Config {
	cfg := DefaultConfig(kind)
	cfg.Scale = 256 << 10
	cfg.SSDCapacity = 64 << 20
	return cfg
}

func runOne(t *testing.T, kind Kind, kname string) *Result {
	t.Helper()
	res, err := Run(testConfig(kind), workload.MustByName(kname))
	if err != nil {
		t.Fatalf("%v/%s: %v", kind, kname, err)
	}
	return res
}

func TestKindStringsAndCatalog(t *testing.T) {
	if len(Fig15Kinds()) != 10 {
		t.Fatalf("Fig15 has %d kinds, want 10", len(Fig15Kinds()))
	}
	if DRAMLess.String() != "DRAM-less" || Hetero.String() != "Hetero" {
		t.Fatal("kind names wrong")
	}
	cat := Catalog()
	if len(cat) != 10 {
		t.Fatalf("Table I has %d rows, want 10", len(cat))
	}
	for _, row := range cat {
		if row.Heterogeneous != row.Kind.Heterogeneous() {
			t.Errorf("%v: heterogeneous flag mismatch", row.Kind)
		}
		if row.InternalDRAM != row.Kind.HasInternalDRAM() {
			t.Errorf("%v: internal-DRAM flag mismatch", row.Kind)
		}
	}
	if DRAMLess.HasInternalDRAM() {
		t.Error("DRAM-less must not have internal DRAM - it is the point of the paper")
	}
}

func TestEverySystemRuns(t *testing.T) {
	for _, kind := range Kinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			res := runOne(t, kind, "jaco1d")
			if res.Total <= 0 {
				t.Fatal("non-positive total time")
			}
			if res.BandwidthMBps() <= 0 {
				t.Fatal("no bandwidth")
			}
			if res.Energy.Total() <= 0 {
				t.Fatal("no energy accounted")
			}
			if res.Report.Instrs <= 0 {
				t.Fatal("no instructions retired")
			}
			if got := timeOf(res, TimeLoad) + timeOf(res, TimeCompute) + timeOf(res, TimeStall) + timeOf(res, TimeStore); got <= 0 {
				t.Fatal("empty time breakdown")
			}
		})
	}
}

func TestDRAMLessBeatsHetero(t *testing.T) {
	// The headline: DRAM-less substantially outperforms the conventional
	// heterogeneous system (the paper reports +93% on average).
	for _, kname := range []string{"gemver", "jaco1d", "doitg"} {
		dl := runOne(t, DRAMLess, kname)
		he := runOne(t, Hetero, kname)
		if dl.Total >= he.Total {
			t.Errorf("%s: DRAM-less (%v) not faster than Hetero (%v)", kname, dl.Total, he.Total)
		}
	}
}

func TestHeterodirectBeatsHetero(t *testing.T) {
	// P2P DMA removes host copies (paper: +25% on average).
	hd := runOne(t, Heterodirect, "gemver")
	he := runOne(t, Hetero, "gemver")
	if hd.Total >= he.Total {
		t.Errorf("Heterodirect (%v) not faster than Hetero (%v)", hd.Total, he.Total)
	}
}

func TestHeteroPRAMWinsOnReadsLosesOnWrites(t *testing.T) {
	// PRAM SSDs beat flash SSDs for read-intensive workloads and lose
	// ground on write-intensive ones (Section VI-A).
	readGain := float64(runOne(t, Hetero, "gemver").Total) / float64(runOne(t, HeteroPRAM, "gemver").Total)
	writeGain := float64(runOne(t, Hetero, "doitg").Total) / float64(runOne(t, HeteroPRAM, "doitg").Total)
	if readGain <= 1 {
		t.Errorf("Hetero-PRAM read-intensive gain = %.2fx, want > 1", readGain)
	}
	if writeGain >= readGain {
		t.Errorf("write gain %.2fx not below read gain %.2fx", writeGain, readGain)
	}
}

func TestDRAMLessBeatsFirmwareManaged(t *testing.T) {
	// Figure 7 / Section VI: hardware automation beats firmware
	// management of the same PRAM.
	dl := runOne(t, DRAMLess, "gemver")
	fw := runOne(t, DRAMLessFirmware, "gemver")
	if dl.Total >= fw.Total {
		t.Errorf("DRAM-less (%v) not faster than firmware-managed (%v)", dl.Total, fw.Total)
	}
}

func TestIdealFastest(t *testing.T) {
	id := runOne(t, Ideal, "jaco2d")
	for _, kind := range []Kind{Hetero, IntegratedSLC, DRAMLess} {
		res := runOne(t, kind, "jaco2d")
		if id.Total > res.Total {
			t.Errorf("Ideal (%v) slower than %v (%v)", id.Total, kind, res.Total)
		}
	}
}

func TestIntegratedOrderSLCFasterThanTLC(t *testing.T) {
	slc := runOne(t, IntegratedSLC, "jaco1d")
	tlc := runOne(t, IntegratedTLC, "jaco1d")
	if slc.Total >= tlc.Total {
		t.Errorf("Integrated-SLC (%v) not faster than TLC (%v)", slc.Total, tlc.Total)
	}
}

func TestDRAMLessEnergyBelowHetero(t *testing.T) {
	// Figure 17: DRAM-less consumes a small fraction of the advanced
	// systems' energy (paper: 19% of Heterodirect's).
	dl := runOne(t, DRAMLess, "gemver")
	he := runOne(t, Heterodirect, "gemver")
	if dl.Energy.Total() >= he.Energy.Total() {
		t.Errorf("DRAM-less energy (%.3g J) not below Heterodirect (%.3g J)",
			dl.Energy.Total(), he.Energy.Total())
	}
	// Host software must dominate the hetero budget, not the DRAM-less one.
	if he.Energy.Breakdown().Get(energy.CompHost) <= dl.Energy.Breakdown().Get(energy.CompHost) {
		t.Error("host energy of Heterodirect not above DRAM-less")
	}
}

// timeOf returns the named component of res's time decomposition.
func timeOf(res *Result, name string) float64 {
	for _, p := range res.TimeParts() {
		if p.Name == name {
			return p.Seconds
		}
	}
	return 0
}

func TestHeteroTimeDominatedByStaging(t *testing.T) {
	res := runOne(t, Hetero, "gemver")
	staging := timeOf(res, TimeLoad) + timeOf(res, TimeStore)
	if staging <= timeOf(res, TimeCompute) {
		t.Errorf("Hetero staging %.3g not above compute %.3g - Figure 1's motivation is missing",
			staging, timeOf(res, TimeCompute))
	}
	// DRAM-less flips this.
	dl := runOne(t, DRAMLess, "gemver")
	dlStaging := timeOf(dl, TimeLoad) + timeOf(dl, TimeStore)
	if dlStaging >= timeOf(dl, TimeCompute)+timeOf(dl, TimeStall) {
		t.Errorf("DRAM-less staging %.3g not below kernel time", dlStaging)
	}
}

func TestSchedulerAblationOnDRAMLess(t *testing.T) {
	// Figure 13 at system level: Final >= Bare-metal on a
	// write-intensive kernel.
	run := func(policy string) sim.Duration {
		cfg := testConfig(DRAMLess)
		cfg.Policy = policy
		res, err := Run(cfg, workload.MustByName("doitg"))
		if err != nil {
			t.Fatal(err)
		}
		return res.Total
	}
	noop := run("bare-metal")
	final := run("final")
	if final >= noop {
		t.Errorf("Final (%v) not faster than Bare-metal (%v)", final, noop)
	}
}

func TestSampledRunProducesSeries(t *testing.T) {
	cfg := testConfig(DRAMLess)
	cfg.SampleInterval = 20 * sim.Microsecond
	res, err := Run(cfg, workload.MustByName("gemver"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.IPC == nil || res.Report.IPC.Len() == 0 {
		t.Fatal("no IPC series")
	}
	ps := res.Energy.PowerSeries()
	if len(ps) == 0 {
		t.Fatal("no power series")
	}
	var nonzero bool
	for _, v := range ps {
		if v > 0 {
			nonzero = true
			break
		}
	}
	if !nonzero {
		t.Fatal("power series all zero")
	}
}

// TestTinySeriesWindowIsAnError runs a 64 KiB DRAM-less gemver with a
// 1 ps series window, through an Observer and through SampleInterval.
// Every sample then falls past the series window cap: Run and RunForked
// must return an error naming the window, and the failing run may
// allocate at most twice what the same run allocates at the default
// window.
func TestTinySeriesWindowIsAnError(t *testing.T) {
	k := workload.MustByName("gemver")
	base := DefaultConfig(DRAMLess)
	base.Scale = 64 << 10
	run := func(cfg Config) (uint64, error) {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		_, err := Run(cfg, k)
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc, err
	}
	// Each run gets a fresh Observer: an overflow is sticky.
	observed := func(opts ...obs.Option) func() Config {
		return func() Config {
			cfg := base
			cfg.Obs = obs.New(opts...)
			return cfg
		}
	}
	sampled := func(interval sim.Duration) func() Config {
		return func() Config {
			cfg := base
			cfg.SampleInterval = interval
			return cfg
		}
	}
	for _, tc := range []struct {
		name       string
		ref, tiny  func() Config
		wantInErrs []string
	}{
		{"observer", observed(), observed(obs.WithSeriesWindow(1)), []string{"1ps window", obs.SeriesMemBytesRead}},
		{"sample-interval", sampled(obs.DefaultSeriesWindow), sampled(1), []string{"1ps window", obs.SeriesAccelInstrs}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := run(tc.ref()); err != nil { // warm the storage pools
				t.Fatal(err)
			}
			ref, err := run(tc.ref())
			if err != nil {
				t.Fatal(err)
			}
			tiny, err := run(tc.tiny())
			if err == nil {
				t.Fatal("1 ps window: Run returned no error")
			}
			for _, want := range tc.wantInErrs {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not name %s", err, want)
				}
			}
			if tiny > 2*ref {
				t.Errorf("failing run allocated %d B, more than twice the default window's %d B", tiny, ref)
			}
			t.Logf("allocated %d B at 1 ps, %d B at the default window; error: %v", tiny, ref, err)
			cfg := tc.tiny()
			cp, err := CapturePrefix(PrefixOf(cfg, k))
			if err != nil {
				t.Fatal(err)
			}
			defer cp.Release()
			if _, err := RunForked(cfg, k, cp); err == nil {
				t.Error("1 ps window: RunForked returned no error")
			}
		})
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := testConfig(DRAMLess)
	cfg.Scale = 0
	if _, err := Run(cfg, workload.MustByName("lu")); err == nil {
		t.Error("zero scale accepted")
	}
	cfg = testConfig(Kind(99))
	if _, err := Run(cfg, workload.MustByName("lu")); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestDRAMLessWithWearLeveling(t *testing.T) {
	cfg := testConfig(DRAMLess)
	cfg.Wear = memctrl.DefaultWear()
	res, err := Run(cfg, workload.MustByName("doitg"))
	if err != nil {
		t.Fatal(err)
	}
	plain := runOne(t, DRAMLess, "doitg")
	if res.Total <= plain.Total {
		t.Fatalf("leveling was free end to end: %v vs %v", res.Total, plain.Total)
	}
	// psi=100 must stay a modest tax.
	if float64(res.Total) > 1.3*float64(plain.Total) {
		t.Fatalf("leveling cost %.0f%% end to end",
			(float64(res.Total)/float64(plain.Total)-1)*100)
	}
}

func TestIntegratedOutputsPersistToMedia(t *testing.T) {
	// The store phase of integrated systems flushes dirty pages; the
	// flash array must have seen programs beyond the setup phase.
	res := runOne(t, IntegratedSLC, "doitg")
	if res.Store <= 0 {
		t.Fatal("integrated system skipped the persistence flush")
	}
}

func TestNORDrainCoversWrites(t *testing.T) {
	res := runOne(t, NORIntf, "doitg")
	// NOR writes are slow and serialized; the kernel phase dominates and
	// nothing may linger past the reported total.
	if res.Kernel <= res.Load+res.Store {
		t.Fatal("NOR kernel phase not dominant")
	}
}
