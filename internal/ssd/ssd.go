package ssd

import (
	"fmt"

	"dramless/internal/flash"
	"dramless/internal/mem"
	"dramless/internal/obs"
	"dramless/internal/sim"
)

// Config describes one SSD build.
type Config struct {
	// Media is the storage medium (flash.SLC/MLC/TLC or flash.PRAMMedia).
	Media flash.Profile
	// CapacityBytes is the logical capacity.
	CapacityBytes uint64
	// OverProvision is the extra physical space fraction for the FTL.
	OverProvision float64
	// BufferBytes is the internal DRAM buffer (1 GB in every Table I
	// configuration that has one).
	BufferBytes uint64
	// Firmware is the embedded controller.
	Firmware FirmwareConfig
	// Integrated selects the access model. False (NVMe-attached SSD):
	// every request traverses the firmware. True (the paper's
	// Integrated-SLC/MLC/TLC and PAGE-buffer accelerators): the PEs
	// load/store the internal DRAM buffer directly and firmware is paid
	// only when a page must be staged in or flushed out.
	Integrated bool
	// DRAMBandwidth is the internal buffer's sustained bandwidth
	// (bytes/second) seen by direct accesses in integrated mode.
	DRAMBandwidth float64
	// Obs attaches the observability layer: per-operation latency
	// histograms. Nil disables observation at zero cost.
	Obs *obs.Observer
}

// DefaultConfig returns a Table I SSD: the given media, 1 GB internal
// DRAM, 12.5% over-provisioning, 3x500 MHz firmware.
func DefaultConfig(media flash.Profile, capacity uint64) Config {
	return Config{
		Media:         media,
		CapacityBytes: capacity,
		OverProvision: 0.125,
		BufferBytes:   1 << 30,
		Firmware:      DefaultFirmware(),
		DRAMBandwidth: 12.8e9,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Media.Validate(); err != nil {
		return err
	}
	if err := c.Firmware.Validate(); err != nil {
		return err
	}
	if c.CapacityBytes == 0 || c.CapacityBytes%uint64(c.Media.PageBytes) != 0 {
		return fmt.Errorf("ssd: capacity %d must be a positive page multiple", c.CapacityBytes)
	}
	if c.OverProvision <= 0 {
		return fmt.Errorf("ssd: over-provisioning must be positive")
	}
	if c.BufferBytes < uint64(c.Media.PageBytes) {
		return fmt.Errorf("ssd: buffer smaller than one page")
	}
	return nil
}

// Stats counts SSD-level activity.
type Stats struct {
	Reads        int64
	Writes       int64
	BufferHits   int64
	BufferMisses int64
	Fills        int64 // page fetches into the buffer (read misses + RMW)
	Flushes      int64 // dirty page programs
	GCRuns       int64
	GCMoves      int64

	// Service-time accounts in picoseconds of simulated time,
	// accumulated always-on at the same sites as the latency histograms
	// (blame attribution, DESIGN.md §15): request-level read/write
	// service time and FTL page-program time (evictions and flushes).
	ReadPS    int64
	WritePS   int64
	ProgramPS int64
}

// bufEntry is one cached page.
type bufEntry struct {
	data  []byte
	dirty bool
	tick  int64
}

// SSD is a page-granule storage device: a flash (or PRAM) array behind a
// page-mapped FTL, an internal DRAM buffer and embedded firmware. It
// implements mem.Device; sub-page accesses cost whole-page internal
// operations, which is the behaviour the paper's integrated accelerators
// suffer from ("still need to access the flash in a page granularity").
type SSD struct {
	cfg Config
	arr *flash.Array
	ftl *ftl
	fw  *Firmware

	buf      map[uint64]*bufEntry
	bufCap   int
	tick     int64
	dramPipe *sim.Pipe
	dramBusy sim.Duration // DRAM buffer occupancy (energy accounting)

	// Buffer entries are recycled on eviction, so the buffer churns
	// between the same frames instead of allocating one page per miss.
	freeEnts []*bufEntry

	// Latency instruments, resolved once at construction; nil when
	// observation is off (the nil Histogram no-ops).
	hRead    *obs.Histogram
	hWrite   *obs.Histogram
	hProgram *obs.Histogram

	stats Stats
}

var _ mem.Device = (*SSD)(nil)

// New builds an SSD from cfg.
func New(cfg Config) (*SSD, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	logical := cfg.CapacityBytes / uint64(cfg.Media.PageBytes)
	ppb := uint64(cfg.Media.PagesPerBlock)
	physical := uint64(float64(logical)*(1+cfg.OverProvision)) + 2*ppb
	physical = (physical + ppb - 1) / ppb * ppb // whole blocks
	arr, err := flash.NewArray(cfg.Media, physical)
	if err != nil {
		return nil, err
	}
	f, err := newFTL(arr, logical)
	if err != nil {
		return nil, err
	}
	fw, err := NewFirmware(cfg.Firmware)
	if err != nil {
		return nil, err
	}
	bw := cfg.DRAMBandwidth
	if bw <= 0 {
		bw = 12.8e9
	}
	s := &SSD{
		cfg:      cfg,
		arr:      arr,
		ftl:      f,
		fw:       fw,
		buf:      map[uint64]*bufEntry{},
		bufCap:   int(cfg.BufferBytes / uint64(cfg.Media.PageBytes)),
		dramPipe: sim.NewPipe("ssd.dram", bw, 50*sim.Nanosecond),
	}
	if hs := cfg.Obs.Histograms(); hs != nil {
		s.hRead = hs.Get(obs.HistSSDRead)
		s.hWrite = hs.Get(obs.HistSSDWrite)
		s.hProgram = hs.Get(obs.HistSSDFTLProgram)
	}
	return s, nil
}

// MustNew is New for known-good configurations.
func MustNew(cfg Config) *SSD {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Size implements mem.Device.
func (s *SSD) Size() uint64 { return s.cfg.CapacityBytes }

// Stats returns a snapshot including FTL GC activity.
func (s *SSD) Stats() Stats {
	out := s.stats
	out.GCRuns = s.ftl.gcRuns
	out.GCMoves = s.ftl.gcMoves
	return out
}

// ArrayStats exposes the medium counters for the energy model.
func (s *SSD) ArrayStats() flash.Stats { return s.arr.Stats() }

// CountersInto writes the SSD's activity into the registry under prefix
// (e.g. "ssd.ext."): request and buffer counters plus the FTL's
// firmware-request and garbage-collection work.
func (s *SSD) CountersInto(c *obs.Counters, prefix string) {
	if c == nil {
		return
	}
	st := s.Stats()
	c.Add(prefix+"reads", st.Reads)
	c.Add(prefix+"writes", st.Writes)
	c.Add(prefix+"buffer_hits", st.BufferHits)
	c.Add(prefix+"buffer_misses", st.BufferMisses)
	c.Add(prefix+"fills", st.Fills)
	c.Add(prefix+"flushes", st.Flushes)
	c.Add(prefix+"ftl.gc_runs", st.GCRuns)
	c.Add(prefix+"ftl.gc_moves", st.GCMoves)
	c.Add(prefix+"fw_requests", s.fw.Requests())
	c.Add(prefix+"fw_busy_ps", int64(s.fw.BusyTime()))
	c.Add(prefix+"dram_bytes", s.DRAMBytes())
}

// FirmwareBusy returns cumulative firmware-core time (energy model).
func (s *SSD) FirmwareBusy() sim.Duration { return s.fw.BusyTime() }

// DRAMBusy returns cumulative internal-DRAM occupancy (energy model).
func (s *SSD) DRAMBusy() sim.Duration { return s.dramBusy }

// DRAMBytes returns payload bytes moved through the internal DRAM.
func (s *SSD) DRAMBytes() int64 { return s.dramPipe.BytesMoved() }

// Config returns the build configuration.
func (s *SSD) Config() Config { return s.cfg }

// dramAccess charges one buffer access of n bytes through the internal
// DRAM's bandwidth pipe and returns its completion.
func (s *SSD) dramAccess(at sim.Time, n int) sim.Time {
	s.dramBusy += s.dramPipe.TransferTime(int64(n))
	return s.dramPipe.Transfer(at, int64(n))
}

// enter charges the per-request cost: the firmware path for an
// NVMe-attached device, nothing for an integrated one (PEs reach the
// buffer directly; firmware runs only on page staging).
func (s *SSD) enter(at sim.Time) sim.Time {
	if s.cfg.Integrated {
		return at
	}
	return s.fw.Process(at)
}

// stage charges the firmware cost of a page staging decision in
// integrated mode (already covered by enter() otherwise).
func (s *SSD) stage(at sim.Time) sim.Time {
	if s.cfg.Integrated {
		return s.fw.Process(at)
	}
	return at
}

// newEntry returns a recycled or newly allocated buffer entry. e.data
// holds arbitrary stale bytes: callers either fill the whole page or
// zero it. Entries are allocated one page at a time, not carved from a
// shared slab: a pooled entry would pin its whole slab.
func (s *SSD) newEntry() *bufEntry {
	if n := len(s.freeEnts); n > 0 {
		e := s.freeEnts[n-1]
		s.freeEnts = s.freeEnts[:n-1]
		e.dirty = false
		return e
	}
	pb := s.cfg.Media.PageBytes
	if e, ok := entPool.Get(pb); ok {
		e.dirty = false
		return e
	}
	return &bufEntry{data: make([]byte, pb)}
}

func (s *SSD) recycle(e *bufEntry) { s.freeEnts = append(s.freeEnts, e) }

// evictIfFull makes room in the buffer, programming a dirty victim.
func (s *SSD) evictIfFull(at sim.Time) (sim.Time, error) {
	if len(s.buf) < s.bufCap {
		return at, nil
	}
	var victim uint64
	oldest := int64(1<<62 - 1)
	for lpn, e := range s.buf {
		if e.tick < oldest {
			victim, oldest = lpn, e.tick
		}
	}
	e := s.buf[victim]
	delete(s.buf, victim)
	if e.dirty {
		s.stats.Flushes++
		done, err := s.ftl.write(at, victim, e.data)
		if err == nil {
			s.stats.ProgramPS += int64(done - at)
			s.hProgram.Record(int64(done - at))
		}
		s.recycle(e) // ftl.write copied the page into the array store
		return done, err
	}
	s.recycle(e)
	return at, nil
}

// fetch brings lpn into the buffer (RMW fill on misses) and returns its
// entry plus the time the caller's accessBytes are through the DRAM.
func (s *SSD) fetch(at sim.Time, lpn uint64, accessBytes int) (*bufEntry, sim.Time, error) {
	if e, ok := s.buf[lpn]; ok {
		s.stats.BufferHits++
		s.tick++
		e.tick = s.tick
		return e, s.dramAccess(at, accessBytes), nil
	}
	s.stats.BufferMisses++
	at = s.stage(at)
	at, err := s.evictIfFull(at)
	if err != nil {
		return nil, 0, err
	}
	e := s.newEntry()
	if ppage, ok := s.ftl.read(lpn); ok {
		s.stats.Fills++
		done, err := s.arr.ReadPageInto(at, ppage, e.data)
		if err != nil {
			s.recycle(e)
			return nil, 0, err
		}
		at = done
	} else {
		// Never-written page: reads as zero (the frame may be recycled).
		for i := range e.data {
			e.data[i] = 0
		}
	}
	s.tick++
	e.tick = s.tick
	s.buf[lpn] = e
	return e, s.dramAccess(at, accessBytes), nil
}

// ReadInto implements mem.Device: buffer-resident pages are served
// without allocating.
func (s *SSD) ReadInto(at sim.Time, addr uint64, dst []byte) (sim.Time, error) {
	n := len(dst)
	if err := mem.CheckRange("ssd", s.Size(), addr, n); err != nil {
		return 0, err
	}
	start := s.enter(at)
	done := start
	pb := uint64(s.cfg.Media.PageBytes)
	for off := 0; off < n; {
		a := addr + uint64(off)
		lpn, po := a/pb, int(a%pb)
		take := int(pb) - po
		if take > n-off {
			take = n - off
		}
		e, d, err := s.fetch(start, lpn, take)
		if err != nil {
			return 0, err
		}
		copy(dst[off:], e.data[po:po+take])
		done = sim.Max(done, d)
		off += take
	}
	s.stats.Reads++
	s.stats.ReadPS += int64(done - at)
	s.hRead.Record(int64(done - at))
	return done, nil
}

// Write implements mem.Device: pages are modified in the buffer
// (fetching them first when partially covered) and programmed to the
// medium on eviction or Flush.
func (s *SSD) Write(at sim.Time, addr uint64, data []byte) (sim.Time, error) {
	if err := mem.CheckRange("ssd", s.Size(), addr, len(data)); err != nil {
		return 0, err
	}
	start := s.enter(at)
	done := start
	pb := uint64(s.cfg.Media.PageBytes)
	for off := 0; off < len(data); {
		a := addr + uint64(off)
		lpn, po := a/pb, int(a%pb)
		take := int(pb) - po
		if take > len(data)-off {
			take = len(data) - off
		}
		var e *bufEntry
		var d sim.Time
		var err error
		if po == 0 && take == int(pb) {
			// Full-page overwrite: no fill needed.
			if cur, ok := s.buf[lpn]; ok {
				s.stats.BufferHits++
				e, d = cur, s.dramAccess(start, take)
			} else {
				s.stats.BufferMisses++
				start2, err := s.evictIfFull(s.stage(start))
				if err != nil {
					return 0, err
				}
				s.tick++
				e = s.newEntry() // fully overwritten below (po == 0, take == pb)
				e.tick = s.tick
				s.buf[lpn] = e
				d = s.dramAccess(start2, take)
			}
		} else {
			e, d, err = s.fetch(start, lpn, take)
			if err != nil {
				return 0, err
			}
		}
		s.tick++
		e.tick = s.tick
		copy(e.data[po:], data[off:off+take])
		e.dirty = true
		done = sim.Max(done, d)
		off += take
	}
	s.stats.Writes++
	s.stats.WritePS += int64(done - at)
	s.hWrite.Record(int64(done - at))
	return done, nil
}

// Flush programs every dirty buffered page and returns when the medium
// has them all.
func (s *SSD) Flush(at sim.Time) (sim.Time, error) {
	done := at
	// Deterministic order: iterate lpns ascending.
	lpns := make([]uint64, 0, len(s.buf))
	for lpn, e := range s.buf {
		if e.dirty {
			lpns = append(lpns, lpn)
		}
	}
	// Small slice; insertion sort keeps us dependency-free.
	for i := 1; i < len(lpns); i++ {
		for j := i; j > 0 && lpns[j] < lpns[j-1]; j-- {
			lpns[j], lpns[j-1] = lpns[j-1], lpns[j]
		}
	}
	for _, lpn := range lpns {
		e := s.buf[lpn]
		d, err := s.ftl.write(at, lpn, e.data)
		if err != nil {
			return 0, err
		}
		s.stats.ProgramPS += int64(d - at)
		s.hProgram.Record(int64(d - at))
		e.dirty = false
		s.stats.Flushes++
		done = sim.Max(done, d)
	}
	return sim.Max(done, s.arr.Drain()), nil
}

// Drain implements mem.Drainer (array settle; dirty buffer pages remain
// cached - call Flush for persistence).
func (s *SSD) Drain() sim.Time { return s.arr.Drain() }

// DropCaches evicts every clean page from the internal DRAM buffer, the
// cold-cache state of a freshly powered device. Experiments call it after
// initializing data so measured runs pay real media latency. Dirty pages
// are kept (flush first for a fully cold start); the number of dropped
// pages is returned.
func (s *SSD) DropCaches() int {
	dropped := 0
	for lpn, e := range s.buf {
		if !e.dirty {
			delete(s.buf, lpn)
			s.recycle(e)
			dropped++
		}
	}
	return dropped
}
