package ssd

import (
	"bytes"
	"testing"
	"testing/quick"

	"dramless/internal/flash"
	"dramless/internal/mem"
	"dramless/internal/sim"
)

// tiny returns an SSD small enough to exercise GC: 64 pages logical,
// 4-page blocks, small buffer.
func tiny(t *testing.T, bufPages int) *SSD {
	t.Helper()
	media := flash.SLC()
	media.PageBytes = 512
	media.PagesPerBlock = 4
	media.Dies = 2
	cfg := Config{
		Media:         media,
		CapacityBytes: 64 * 512,
		OverProvision: 0.25,
		BufferBytes:   uint64(bufPages * 512),
		Firmware:      DefaultFirmware(),
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestMediaProfiles(t *testing.T) {
	for _, p := range []flash.Profile{flash.SLC(), flash.MLC(), flash.TLC(), flash.PRAMMedia()} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
	if flash.SLC().PageRead() != sim.Microseconds(25) {
		t.Error("SLC read != 25us")
	}
	if flash.MLC().PageProgram() != sim.Microseconds(800) {
		t.Error("MLC program != 800us")
	}
	if flash.TLC().PageProgram() != sim.Microseconds(1250) {
		t.Error("TLC program != 1250us")
	}
	// PRAM media: page read = 64 x 256 B chunks x 100 ns = 6.4 us, well
	// below any flash page read.
	pm := flash.PRAMMedia()
	if got := pm.PageRead(); got != sim.Microseconds(6.4) {
		t.Errorf("PRAM media page read = %v, want 6.4us", got)
	}
	if pm.PageRead() >= flash.SLC().PageRead() {
		t.Error("PRAM media reads must beat flash")
	}
	// Bulk writes serialize: 64 x 18 us - worse than MLC's 800 us page
	// program, matching the paper's finding that PRAM SSDs lose on bulk
	// writes.
	if got := pm.PageProgram(); got <= flash.MLC().PageProgram() {
		t.Errorf("PRAM media page program = %v, want > MLC %v", got, flash.MLC().PageProgram())
	}
}

func TestSSDRoundTrip(t *testing.T) {
	s := tiny(t, 8)
	payload := bytes.Repeat([]byte{0xAB, 0xCD}, 700) // crosses pages
	if _, err := s.Write(0, 100, payload); err != nil {
		t.Fatal(err)
	}
	got, _, err := mem.Read(s, sim.Microseconds(10), 100, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("round trip mismatch")
	}
}

func TestBufferHitFastMissSlow(t *testing.T) {
	s := tiny(t, 8)
	// Write once (lands in buffer), flush so the medium holds it, then a
	// fresh SSD read misses and pays the page read.
	if _, err := s.Write(0, 0, bytes.Repeat([]byte{1}, 512)); err != nil {
		t.Fatal(err)
	}
	start := sim.Milliseconds(10)
	_, d1, err := mem.Read(s, start, 0, 16) // buffer hit
	if err != nil {
		t.Fatal(err)
	}
	hit := d1 - start
	if hit > sim.Microseconds(5) {
		t.Fatalf("buffer hit took %v, want ~firmware+DRAM", hit)
	}
	if s.Stats().BufferHits == 0 {
		t.Fatal("no buffer hit recorded")
	}
}

func TestReadMissPaysPageRead(t *testing.T) {
	s := tiny(t, 2)
	if _, err := s.Write(0, 0, bytes.Repeat([]byte{7}, 512)); err != nil {
		t.Fatal(err)
	}
	d, err := s.Flush(sim.Milliseconds(1))
	if err != nil {
		t.Fatal(err)
	}
	// Evict page 0 by touching two other pages (buffer holds 2).
	mem.Read(s, d, 512, 16)
	mem.Read(s, d, 1024, 16)
	start := sim.Milliseconds(100)
	got, d2, err := mem.Read(s, start, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 7 {
		t.Fatal("data lost across eviction")
	}
	if lat := d2 - start; lat < sim.Microseconds(25) {
		t.Fatalf("miss latency %v, want >= 25us page read", lat)
	}
}

func TestSubPageWriteCausesRMWFill(t *testing.T) {
	s := tiny(t, 4)
	// Persist a page, evict it, then a 16 B write must fetch the whole
	// page first (read-modify-write) - the paper's page-granularity tax.
	if _, err := s.Write(0, 0, bytes.Repeat([]byte{3}, 512)); err != nil {
		t.Fatal(err)
	}
	d, _ := s.Flush(sim.Milliseconds(1))
	mem.Read(s, d, 512, 1)
	mem.Read(s, d, 1024, 1)
	mem.Read(s, d, 1536, 1)
	mem.Read(s, d, 2048, 1)
	fills := s.Stats().Fills
	if _, err := s.Write(sim.Milliseconds(50), 8, []byte{9, 9}); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Fills != fills+1 {
		t.Fatal("sub-page write did not fill the page")
	}
	got, _, _ := mem.Read(s, sim.Milliseconds(60), 0, 16)
	want := append(bytes.Repeat([]byte{3}, 8), 9, 9, 3, 3, 3, 3, 3, 3)
	if !bytes.Equal(got, want) {
		t.Fatalf("RMW merge wrong: %v", got)
	}
}

func TestGarbageCollectionRelocatesLiveData(t *testing.T) {
	s := tiny(t, 2)
	// Hammer a few logical pages far beyond physical capacity so GC must
	// run, then verify all live data survives.
	live := map[uint64][]byte{}
	now := sim.Time(0)
	for i := 0; i < 300; i++ {
		lpn := uint64(i % 6)
		data := bytes.Repeat([]byte{byte(i)}, 512)
		if _, err := s.Write(now, lpn*512, data); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		d, err := s.Flush(now)
		if err != nil {
			t.Fatalf("flush %d: %v", i, err)
		}
		live[lpn] = data
		now = d
	}
	if s.Stats().GCRuns == 0 {
		t.Fatal("GC never ran despite 50x overwrite pressure")
	}
	for lpn, want := range live {
		got, _, err := mem.Read(s, now, lpn*512, 512)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("lpn %d corrupted after GC", lpn)
		}
	}
}

func TestFirmwareSerializesRequests(t *testing.T) {
	fw, err := NewFirmware(DefaultFirmware())
	if err != nil {
		t.Fatal(err)
	}
	per := DefaultFirmware().PerRequest()
	if per != sim.Microseconds(2) {
		t.Fatalf("firmware per-request = %v, want 2us", per)
	}
	// 4 requests at once on 3 cores: the fourth queues.
	var last sim.Time
	for i := 0; i < 4; i++ {
		last = fw.Process(0)
	}
	if last != 2*per {
		t.Fatalf("fourth request done at %v, want %v", last, 2*per)
	}
}

func TestFirmwareManagedAddsLatency(t *testing.T) {
	inner := mem.NewFlat("pram", 1<<20, sim.Nanoseconds(100), 1.6e9)
	fm, err := NewFirmwareManaged(DefaultFirmware(), inner)
	if err != nil {
		t.Fatal(err)
	}
	_, done, err := mem.Read(fm, 0, 0, 32)
	if err != nil {
		t.Fatal(err)
	}
	// 2 us firmware + ~100 ns device: firmware dominates, which is
	// Figure 7's entire point.
	if done < sim.Microseconds(2) {
		t.Fatalf("firmware-managed read %v, want >= 2us", done)
	}
	fresh := mem.NewFlat("pram2", 1<<20, sim.Nanoseconds(100), 1.6e9)
	_, rawDone, _ := mem.Read(fresh, 0, 0, 32)
	if rawDone >= done {
		t.Fatal("firmware wrapper added no cost")
	}
}

func TestNORInterface(t *testing.T) {
	n := flash.NewNOR(1 << 20)
	payload := []byte("byte addressable but 16-bit serialized")
	if _, err := n.Write(0, 5, payload); err != nil {
		t.Fatal(err)
	}
	got, _, err := mem.Read(n, n.Drain(), 5, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("NOR round trip failed")
	}
	// 32 B read = 16 words x 10 ns = 160 ns serialized (~200 MB/s; the
	// per-access latency sits ~3x above the 3x nm PRAM's bus share).
	start := n.Drain()
	_, d, _ := mem.Read(n, start, 0, 32)
	if got := d - start; got != sim.Nanoseconds(160) {
		t.Fatalf("NOR 32B read = %v, want 160ns", got)
	}
	// 32 B write = 16 words x 120 ns = 1.92 us (~17 MB/s, two orders
	// below flash page bandwidth per Section VI).
	start = n.Drain()
	d, _ = n.Write(start, 0, bytes.Repeat([]byte{1}, 32))
	if got := d - start; got != sim.Nanoseconds(1920) {
		t.Fatalf("NOR 32B write = %v, want 1.92us", got)
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig(flash.SLC(), 1<<30)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg.CapacityBytes = 1000 // not page multiple
	if err := cfg.Validate(); err == nil {
		t.Error("bad capacity accepted")
	}
	cfg = DefaultConfig(flash.SLC(), 1<<30)
	cfg.OverProvision = 0
	if err := cfg.Validate(); err == nil {
		t.Error("zero over-provisioning accepted")
	}
	fw := DefaultFirmware()
	fw.Cores = 0
	if err := fw.Validate(); err == nil {
		t.Error("zero firmware cores accepted")
	}
}

func TestIntegratedModeSkipsFirmwareOnHits(t *testing.T) {
	media := flash.SLC()
	media.PageBytes = 512
	media.PagesPerBlock = 4
	cfg := Config{
		Media: media, CapacityBytes: 64 * 512, OverProvision: 0.25,
		BufferBytes: 8 * 512, Firmware: DefaultFirmware(),
		Integrated: true, DRAMBandwidth: 12.8e9,
	}
	s := MustNew(cfg)
	if _, err := s.Write(0, 0, make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	fwBefore := s.fw.Requests()
	start := sim.Milliseconds(1)
	_, done, err := mem.Read(s, start, 0, 64) // buffer hit: direct DRAM access
	if err != nil {
		t.Fatal(err)
	}
	if s.fw.Requests() != fwBefore {
		t.Fatal("integrated buffer hit invoked firmware")
	}
	if lat := done - start; lat > sim.Microseconds(1) {
		t.Fatalf("integrated hit latency %v, want sub-microsecond DRAM access", lat)
	}
	// A miss must stage through firmware.
	s.Flush(start)
	for i := 1; i <= 8; i++ { // evict page 0
		mem.Read(s, sim.Milliseconds(10), uint64(i*512), 1)
	}
	fwBefore = s.fw.Requests()
	if _, _, err := mem.Read(s, sim.Milliseconds(50), 0, 64); err != nil {
		t.Fatal(err)
	}
	if s.fw.Requests() == fwBefore {
		t.Fatal("integrated page staging skipped firmware")
	}
}

// Property: SSD matches a shadow buffer under random writes, reads and
// flushes, despite buffering, eviction and GC.
func TestSSDFunctionalProperty(t *testing.T) {
	s := tiny(t, 3)
	shadow := make([]byte, 64*512)
	now := sim.Time(0)
	f := func(off uint16, n uint8, fill byte, action uint8) bool {
		addr := uint64(off) % uint64(len(shadow)-300)
		size := int(n)%300 + 1
		switch action % 4 {
		case 0, 1:
			data := bytes.Repeat([]byte{fill}, size)
			done, err := s.Write(now, addr, data)
			if err != nil {
				return false
			}
			copy(shadow[addr:], data)
			now = done
		case 2:
			done, err := s.Flush(now)
			if err != nil {
				return false
			}
			now = done
		default:
			got, done, err := mem.Read(s, now, addr, size)
			if err != nil {
				return false
			}
			now = done
			return bytes.Equal(got, shadow[addr:addr+uint64(size)])
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

// MustNew is New for known-good configurations.
func MustNew(cfg Config) *SSD {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}
