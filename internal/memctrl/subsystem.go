package memctrl

import (
	"fmt"

	"dramless/internal/lpddr"
	"dramless/internal/mem"
	"dramless/internal/obs"
	"dramless/internal/pram"
	"dramless/internal/sim"
)

// Subsystem is the complete hardware-automated PRAM subsystem: two
// LPDDR2-NVM channels of sixteen 400 MHz PRAM packages behind the FPGA
// controller. It presents a flat byte-addressable space to the server
// PE's MCU; 32-byte rows stripe across the 16 packages of a channel and
// then across channels, so a 1 KiB request touches every module once
// (the paper's "512 bytes per channel, 32 bytes per bank").
type Subsystem struct {
	cfg Config
	// pol is the scheduling policy flattened at construction; see
	// channel.pol.
	pol      resolved
	channels []*channel

	rowBytes uint64
	pkgs     uint64
	chans    uint64
	size     uint64

	// intents are the declared write-intent address ranges (selective
	// erasing targets): [addr, addr+n), in logical addresses.
	intents []intentRange

	// wear is the optional start-gap leveler (nil when disabled).
	wear *wearState

	// batches is the per-channel rowReq scratch ReadInto and ReadScatter
	// reuse across calls (the subsystem is single-threaded per
	// simulation, like every timed component); wBatches and progs are
	// Write's equivalents; wearRow is the gap-move copy buffer.
	batches  [][]rowReq
	wBatches [][]writeReq
	progs    []programmed
	wearRow  []byte
}

// programmed records one accepted row program pending wear accounting.
type programmed struct {
	at    sim.Time
	paddr uint64
}

var _ mem.Device = (*Subsystem)(nil)

type intentRange struct {
	lo, hi     uint64
	declaredAt sim.Time
}

// intentAt reports whether global address a lies in a declared region and
// when the declaration happened.
func (s *Subsystem) intentAt(a uint64) (sim.Time, bool) {
	for _, r := range s.intents {
		if a >= r.lo && a < r.hi {
			return r.declaredAt, true
		}
	}
	return 0, false
}

// New builds a subsystem from cfg.
func New(cfg Config) (*Subsystem, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pol := resolvePolicy(cfg.Policy)
	if pol.wearIdleMoves && !cfg.Wear.Enabled {
		// A wear-aware policy is self-contained: it brings start-gap
		// leveling along when the config leaves it off.
		cfg.Wear = DefaultWear()
	}
	s := &Subsystem{
		cfg:      cfg,
		pol:      pol,
		rowBytes: uint64(cfg.Geometry.RowBytes),
		pkgs:     uint64(cfg.Params.Packages),
		chans:    uint64(cfg.Params.Channels),
	}
	for c := 0; c < cfg.Params.Channels; c++ {
		ch, err := newChannel(c, cfg)
		if err != nil {
			return nil, err
		}
		cIdx := c
		ch.intent = func(mod int, rowAddr uint64) (sim.Time, bool) {
			// Invert the striping (module-local row -> physical global
			// row), then undo wear-leveling to reach the logical address
			// the intent ranges are declared in.
			chunk := rowAddr*s.pkgs*s.chans + uint64(cIdx)*s.pkgs + uint64(mod)
			if s.wear != nil {
				logical, ok := s.wear.unmapRow(chunk)
				if !ok {
					return 0, false // the spare row is never an intent target
				}
				chunk = logical
			}
			return s.intentAt(chunk * s.rowBytes)
		}
		s.channels = append(s.channels, ch)
	}
	// The top window region of each module is reserved for the overlay
	// window; expose only the array space below it.
	usableRows := cfg.Geometry.RowsPerModule - pram.WindowSize/uint64(cfg.Geometry.RowBytes)
	s.size = usableRows * s.rowBytes * s.pkgs * s.chans
	s.batches = make([][]rowReq, cfg.Params.Channels)
	s.wBatches = make([][]writeReq, cfg.Params.Channels)
	for c := range s.batches {
		rows, _ := scratchPool.rows.Get(struct{}{})
		writes, _ := scratchPool.writes.Get(struct{}{})
		s.batches[c], s.wBatches[c] = rows[:0], writes[:0]
	}
	for _, ch := range s.channels {
		ch.rWaves, _ = scratchPool.rWaves.Get(struct{}{})
		ch.wWaves, _ = scratchPool.wWaves.Get(struct{}{})
	}
	s.wearRow = make([]byte, cfg.Geometry.RowBytes)
	s.initWear()
	return s, nil
}

// Config returns the build configuration.
func (s *Subsystem) Config() Config { return s.cfg }

// Size returns the usable capacity in bytes.
func (s *Subsystem) Size() uint64 { return s.size }

// location maps a global byte address to its channel, package, module row
// and column.
type location struct {
	ch, pkg int
	row     uint64
	col     int
}

func (s *Subsystem) locate(addr uint64) location {
	chunk := addr / s.rowBytes
	return location{
		ch:  int(chunk / s.pkgs % s.chans),
		pkg: int(chunk % s.pkgs),
		row: chunk / (s.pkgs * s.chans),
		col: int(addr % s.rowBytes),
	}
}

// checkRange validates [addr, addr+n). The comparison is against the
// remaining room past addr so addr+n cannot wrap uint64 for addresses
// near the top of the space.
func (s *Subsystem) checkRange(addr uint64, n int) error {
	if n <= 0 {
		return fmt.Errorf("memctrl: non-positive access size %d", n)
	}
	if addr > s.size || uint64(n) > s.size-addr {
		return fmt.Errorf("memctrl: access [%#x,+%#x) outside %#x-byte subsystem", addr, uint64(n), s.size)
	}
	return nil
}

// Boot runs the initializer on every module: auto-initialization, ZQ
// calibration, burst length and overlay window base address. It returns
// when every device reports ready. Boot must complete before traffic.
func (s *Subsystem) Boot(at sim.Time) (done sim.Time, err error) {
	done = at
	winRow := uint32((s.cfg.Geometry.Size() - pram.WindowSize) / s.rowBytes)
	for _, ch := range s.channels {
		for _, m := range ch.modules {
			t, err := m.ModeRegisterWrite(at, pram.MRAutoInit, 1)
			if err != nil {
				return 0, err
			}
			if t, err = m.ModeRegisterWrite(t, pram.MRZQCalibrate, 1); err != nil {
				return 0, err
			}
			if t, err = m.ModeRegisterWrite(t, pram.MRBurstLen, uint8(s.cfg.Params.BurstLen)); err != nil {
				return 0, err
			}
			for i := 0; i < 4; i++ {
				if t, err = m.ModeRegisterWrite(t, uint32(pram.MROWBA0+i), uint8(winRow>>(8*i))); err != nil {
					return 0, err
				}
			}
			// Poll the ready flag once the longest boot step elapses.
			for probe := t; ; probe += 10 * sim.Microsecond {
				st, pt, err := m.ModeRegisterRead(probe, pram.MRStatus)
				if err != nil {
					return 0, err
				}
				if st == pram.StatusReady {
					t = pt
					break
				}
			}
			done = sim.Max(done, t)
		}
	}
	return done, nil
}

// Read fetches n bytes at addr, starting no earlier than at, into a fresh
// buffer and returns it with the completion time of the last burst.
func (s *Subsystem) Read(at sim.Time, addr uint64, n int) (data []byte, done sim.Time, err error) {
	return mem.Read(s, at, addr, n)
}

// ReadInto implements mem.Device. The request is split into row-granule
// operations that the per-channel scheduler processes according to its
// policy. Each one points at its subslice of dst, so the channel bursts
// land in place and the whole call allocates nothing in steady state
// (the per-channel batch scratch is reused across calls).
func (s *Subsystem) ReadInto(at sim.Time, addr uint64, dst []byte) (done sim.Time, err error) {
	n := len(dst)
	if err := s.checkRange(addr, n); err != nil {
		return 0, err
	}
	done = at

	// Build per-channel batches so each channel's scheduler can interleave
	// the row operations of this request.
	batches := s.batches
	for c := range batches {
		batches[c] = batches[c][:0]
	}
	for off := 0; off < n; {
		loc := s.locate(s.translate(addr + uint64(off)))
		take := int(s.rowBytes) - loc.col
		if take > n-off {
			take = n - off
		}
		batches[loc.ch] = append(batches[loc.ch], rowReq{
			mod: loc.pkg, row: loc.row, col: loc.col,
			dst: dst[off : off+take : off+take],
		})
		off += take
	}
	for c, batch := range batches {
		if len(batch) == 0 {
			continue
		}
		if err := s.channels[c].readBatch(at, batch); err != nil {
			return 0, err
		}
		for i := range batch {
			done = sim.Max(done, batch[i].done)
		}
	}
	return done, nil
}

// ReadScatter fetches n bytes at each of several addresses as one
// scheduled batch - the gather shape Figure 12 illustrates: the
// controller sees all requests at once and can interleave their
// addressing phases with each other's data bursts.
func (s *Subsystem) ReadScatter(at sim.Time, addrs []uint64, n int) (data [][]byte, done sim.Time, err error) {
	batches := s.batches
	for c := range batches {
		batches[c] = batches[c][:0]
	}
	data = make([][]byte, len(addrs))
	done = at
	for i, a := range addrs {
		if err := s.checkRange(a, n); err != nil {
			return nil, 0, err
		}
		loc := s.locate(s.translate(a))
		if loc.col+n > int(s.rowBytes) {
			return nil, 0, fmt.Errorf("memctrl: scatter element [%#x,+%d) crosses a row boundary", a, n)
		}
		data[i] = make([]byte, n)
		batches[loc.ch] = append(batches[loc.ch], rowReq{mod: loc.pkg, row: loc.row, col: loc.col, dst: data[i]})
	}
	for c, batch := range batches {
		if len(batch) == 0 {
			continue
		}
		if err := s.channels[c].readBatch(at, batch); err != nil {
			return nil, 0, err
		}
		for i := range batch {
			done = sim.Max(done, batch[i].done)
		}
	}
	return data, done, nil
}

// Write stores data at addr, starting no earlier than at, and returns
// when the controller has accepted every row program (the array programs
// themselves are posted behind the per-module program buffers).
func (s *Subsystem) Write(at sim.Time, addr uint64, data []byte) (done sim.Time, err error) {
	if err := s.checkRange(addr, len(data)); err != nil {
		return 0, err
	}
	done = at
	// Full rows batch per channel so their program flows interleave
	// across modules; partial rows at the edges go through the
	// read-modify-write path individually. Wear accounting is deferred
	// until every chunk has executed: a gap move in the middle would
	// invalidate the translations pending chunks were built with.
	batches := s.wBatches
	for c := range batches {
		batches[c] = batches[c][:0]
	}
	progs := s.progs[:0]
	defer func() { s.progs = progs[:0] }()
	for off := 0; off < len(data); {
		paddr := s.translate(addr + uint64(off))
		loc := s.locate(paddr)
		take := int(s.rowBytes) - loc.col
		if take > len(data)-off {
			take = len(data) - off
		}
		if loc.col == 0 && take == int(s.rowBytes) {
			batches[loc.ch] = append(batches[loc.ch],
				writeReq{mod: loc.pkg, row: loc.row, data: data[off : off+take], paddr: paddr})
		} else {
			d, err := s.channels[loc.ch].writeRow(at, loc.pkg, loc.row, loc.col, data[off:off+take])
			if err != nil {
				return 0, err
			}
			progs = append(progs, programmed{at: d, paddr: paddr})
			done = sim.Max(done, d)
		}
		off += take
	}
	for c, batch := range batches {
		if len(batch) == 0 {
			continue
		}
		if err := s.channels[c].writeBatch(at, batch); err != nil {
			return 0, err
		}
		for _, r := range batch {
			progs = append(progs, programmed{at: r.done, paddr: r.paddr})
			done = sim.Max(done, r.done)
		}
	}
	for _, pr := range progs {
		if _, err := s.noteProgram(pr.at, pr.paddr); err != nil {
			return 0, err
		}
	}
	return done, nil
}

// PreErase declares [addr, addr+n) as write-intent: its current contents
// are dead and will be overwritten by the running kernel (Section V-A).
// The declaration itself is a register write (cheap); the selective-
// erasing schedulers then zero-program each declared row in background
// idle time before its overwrite arrives, so those programs need only
// SET pulses. A no-op unless the scheduler enables selective erasing,
// letting callers declare intent unconditionally.
func (s *Subsystem) PreErase(at sim.Time, addr uint64, n int) (done sim.Time, err error) {
	if !s.pol.selErase {
		return at, nil
	}
	if err := s.checkRange(addr, n); err != nil {
		return 0, err
	}
	s.intents = append(s.intents, intentRange{lo: addr, hi: addr + uint64(n), declaredAt: at})
	return at + sim.Microsecond, nil // one control-register update
}

// Populate stores data at addr with no protocol or timing cost, marking
// the touched words programmed. It is the offline-initialization path
// experiments use to place inputs in persistent storage before the
// measured run; it must never appear on a measured path.
func (s *Subsystem) Populate(addr uint64, data []byte) error {
	if err := s.checkRange(addr, len(data)); err != nil {
		return err
	}
	for off := 0; off < len(data); {
		loc := s.locate(s.translate(addr + uint64(off)))
		take := int(s.rowBytes) - loc.col
		if take > len(data)-off {
			take = len(data) - off
		}
		m := s.channels[loc.ch].modules[loc.pkg]
		if loc.col == 0 {
			if err := m.LoadRow(loc.row, data[off:off+take]); err != nil {
				return err
			}
		} else {
			row := m.PeekRow(loc.row)
			copy(row[loc.col:], data[off:off+take])
			if err := m.LoadRow(loc.row, row); err != nil {
				return err
			}
		}
		off += take
	}
	return nil
}

// Drain returns when every channel and module has finished all posted
// work; experiment harnesses use it as the end-of-run barrier.
func (s *Subsystem) Drain() sim.Time {
	var t sim.Time
	for _, ch := range s.channels {
		t = sim.Max(t, ch.drain())
	}
	return t
}

// Stats sums controller-level counters over the channels.
func (s *Subsystem) Stats() Stats {
	var out Stats
	for _, ch := range s.channels {
		out.Add(ch.stats, 1)
	}
	return out
}

// ChannelStats returns each channel's controller-level activity in
// channel order (the blame layer attributes service time per channel).
func (s *Subsystem) ChannelStats() []Stats {
	out := make([]Stats, len(s.channels))
	for i, ch := range s.channels {
		out[i] = ch.stats
	}
	return out
}

// Policy returns the name of the scheduling policy the subsystem was
// built with.
func (s *Subsystem) Policy() string { return s.pol.name }

// ModuleStats sums device-level counters over all modules.
func (s *Subsystem) ModuleStats() pram.Stats {
	var out pram.Stats
	for _, ch := range s.channels {
		for _, m := range ch.modules {
			out.Add(m.Stats(), 1)
		}
	}
	return out
}

// CountersInto snapshots the subsystem's activity into the registry:
// per-channel scheduler counters, aggregate RAB/RDB hit-rate gauges,
// device-level totals and the wear leveler's gap moves. Collection is
// end-of-run only, so instrumented hot paths pay nothing for it.
func (s *Subsystem) CountersInto(c *obs.Counters) {
	if c == nil {
		return
	}
	for i, ch := range s.channels {
		p := fmt.Sprintf("memctrl.ch%d.", i)
		st := ch.stats
		c.Add(p+"reads", st.Reads)
		c.Add(p+"writes", st.Writes)
		c.Add(p+"rab_hits", st.PreactiveSkips)
		c.Add(p+"rdb_hits", st.ActivateSkips)
		c.Add(p+"full_accesses", st.FullAccesses)
		c.Add(p+"prefetches", st.Prefetches)
		c.Add(p+"interleave_overlaps", st.InterleaveOverlaps)
		c.Add(p+"pre_erased_rows", st.PreErasedRows)
		c.Add(p+"partition_overlap_won", st.PartitionOverlapWins)
		c.Add(p+"pause_preempted_reads", st.PausePreemptedReads)
		c.Add(p+"bytes_read", st.BytesRead)
		c.Add(p+"bytes_written", st.BytesWritten)
	}
	st := s.Stats()
	c.Add("memctrl.reads", st.Reads)
	c.Add("memctrl.writes", st.Writes)
	c.Add("memctrl.rab_hits", st.PreactiveSkips)
	c.Add("memctrl.rdb_hits", st.ActivateSkips)
	c.Add("memctrl.full_accesses", st.FullAccesses)
	c.Add("memctrl.prefetches", st.Prefetches)
	c.Add("memctrl.interleave_overlaps", st.InterleaveOverlaps)
	c.Add("memctrl.pre_erased_rows", st.PreErasedRows)
	c.Add("memctrl.partition_overlap_won", st.PartitionOverlapWins)
	c.Add("memctrl.pause_preempted_reads", st.PausePreemptedReads)
	c.Add("memctrl.bytes_read", st.BytesRead)
	c.Add("memctrl.bytes_written", st.BytesWritten)
	if binds := st.PreactiveSkips + st.ActivateSkips + st.FullAccesses; binds > 0 {
		// RDB hit = both phases skipped; RAB hit = at least the
		// pre-active skipped (an RDB hit implies a loaded RAB).
		c.SetGauge("memctrl.rdb_hit_rate", float64(st.ActivateSkips)/float64(binds))
		c.SetGauge("memctrl.rab_hit_rate", float64(st.PreactiveSkips+st.ActivateSkips)/float64(binds))
	}
	ms := s.ModuleStats()
	c.Add("pram.preactives", ms.Preactives)
	c.Add("pram.activates", ms.Activates)
	c.Add("pram.window_activates", ms.WindowAct)
	c.Add("pram.read_bursts", ms.ReadBursts)
	c.Add("pram.write_bursts", ms.WriteBursts)
	c.Add("pram.programs", ms.Programs)
	c.Add("pram.erases", ms.Erases)
	c.Add("pram.program_time_ps", int64(ms.ProgramTime))
	c.Add("pram.write_pauses", ms.Pauses)
	ws := s.WearStats()
	if ws.Enabled {
		c.Add("memctrl.wear.gap_moves", ws.GapMoves)
		c.Add("memctrl.wear.max_wear", ws.MaxWear)
	}
	c.Add("memctrl.bus_busy_ps", int64(s.BusBusyTime()))
}

// BusBusyTime sums DQ-bus occupancy over channels, for utilization
// reporting and the Figure 12 overlap measurement.
func (s *Subsystem) BusBusyTime() sim.Duration {
	var t sim.Duration
	for _, ch := range s.channels {
		t += ch.dataBus.BusyTime()
	}
	return t
}

// Module returns the device at (channel, pkg) for white-box tests.
func (s *Subsystem) Module(ch, pkg int) *pram.Module { return s.channels[ch].modules[pkg] }

// EnableTrace records the LPDDR2-NVM command stream of every module for
// protocol inspection (see Trace).
func (s *Subsystem) EnableTrace(on bool) {
	for _, ch := range s.channels {
		for _, m := range ch.modules {
			m.EnableTrace(on)
		}
	}
}

// Trace returns the recorded command stream of the module at (channel,
// pkg); empty unless EnableTrace preceded the traffic.
func (s *Subsystem) Trace(ch, pkg int) []lpddr.Command {
	return s.channels[ch].modules[pkg].TraceHistory()
}
