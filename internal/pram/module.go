package pram

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"dramless/internal/lpddr"
	"dramless/internal/sim"
)

// Stats counts device-level activity for the energy model and the
// experiment reports.
type Stats struct {
	Preactives  int64
	Activates   int64 // array row activations (window accesses excluded)
	WindowAct   int64 // activations routed to the overlay window
	ReadBursts  int64
	WriteBursts int64
	Programs    int64
	ProgramsBy  [3]int64 // indexed by lpddr.CellState of the slowest word
	Erases      int64
	ProgramTime sim.Duration // cumulative array program time
	Pauses      int64        // programs preempted by reads (write pausing)
}

// Add adds sign times o to s field by field: sign 1 sums two snapshots,
// -1 takes the delta between them.
func (s *Stats) Add(o Stats, sign int64) {
	s.Preactives += sign * o.Preactives
	s.Activates += sign * o.Activates
	s.WindowAct += sign * o.WindowAct
	s.ReadBursts += sign * o.ReadBursts
	s.WriteBursts += sign * o.WriteBursts
	s.Programs += sign * o.Programs
	for i := range s.ProgramsBy {
		s.ProgramsBy[i] += sign * o.ProgramsBy[i]
	}
	s.Erases += sign * o.Erases
	s.ProgramTime += sim.Duration(sign) * o.ProgramTime
	s.Pauses += sign * o.Pauses
}

// Module is one multi-partition PRAM package on an LPDDR2-NVM channel.
//
// The model is functional and timed at once: every method takes the
// simulated time the command reaches the device and returns when its
// effect completes, reserving the array partition and the 16-bit DQ bus
// for the spans they would be occupied on real hardware. The module
// checks three-phase addressing against its own buffer-pair state: a BA
// outside its pairs, an address wider than its field, an ACTIVATE whose
// RAB was never loaded and a data phase on a pair holding no sensed row
// are errors, so controller bugs fail loudly.
type Module struct {
	geo Geometry
	par lpddr.Params

	// trace logs every command while tracing is on (EnableTrace).
	tracing bool
	trace   []lpddr.Command

	rabValid [4]bool
	rabUpper [4]uint32

	// An RDB holds no copy of its row: a valid array RDB refers to row
	// rdbRow of the array, and every content mutator (program, erase,
	// PreEraseBackground, LoadRow/LoadRows) drops the pairs holding a row it
	// changes, so the array bytes a burst reads are the sensed bytes.
	rdbValid  [4]bool
	rdbRow    [4]uint64
	rdbWindow [4]bool

	ow *overlay
	// hdr is the register-row image StageProgram bursts, reused so a
	// program flow allocates nothing.
	hdr [progHeaderLen]byte

	// Fixed per module by its geometry and timing: program units per
	// row, and a word's program time indexed by its cell state before
	// the write.
	wordsPerRow int
	wordShift   uint // log2 WordBytes, a power of two as a divisor of RowBytes
	progTime    [3]sim.Duration

	// Array content, segmented: segs maps a segment number to its entry
	// in ents (see rowSeg). memoSeg short-circuits the map for the
	// segment the last access touched: the datapath's row streams are
	// sequential, so nearly every lookup repeats the segment. It points
	// into ents, so it is reset whenever ents may move; memoID is noSeg
	// while it is unset.
	segs    map[uint64]int32
	ents    []rowSeg
	memoSeg *rowSeg
	memoID  uint64

	partitions []sim.Resource // one per array partition, held inline
	bus        *sim.Resource  // 16-bit DQ bus shared by all bursts

	busyUntil sim.Time // in-flight program/erase completion (RegStatus)
	bufFreeAt sim.Time // program buffer availability: the write drivers
	// latch staged data quickly, so programs to different partitions
	// overlap even though each occupies its array partition fully
	boot initState

	// Write pausing (Qureshi et al., HPCA'10 - the Related Work
	// alternative the paper argues against): when enabled, a read whose
	// partition is mid-program pauses the program, senses the row, and
	// the program resumes with a penalty. Reads stop queueing behind
	// 10-18 us programs at the cost of stretched writes.
	pausing     bool
	progEndPart []sim.Time // per-partition in-flight program end
	onPause     func(at sim.Time, stretch sim.Duration)

	stats Stats
}

// Pause/resume costs of an interrupted program: the write circuitry
// drains its current pulse before the sense, and the resumed program
// repeats the interrupted iteration.
const (
	pauseOverhead  = 300 * sim.Nanosecond
	resumeOverhead = 1 * sim.Microsecond
)

// progBufHold is how long the program buffer stays occupied after an
// execute: the time to latch the staged bytes into the write drivers.
const progBufHold = 200 * sim.Nanosecond

// NewModule returns an initialized module. The overlay window is mapped
// to the top WindowSize bytes of the module address space; remap it with
// SetOWBA (the initializer does this during boot).
func NewModule(geo Geometry, par lpddr.Params) (*Module, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	if err := par.Validate(); err != nil {
		return nil, err
	}
	m := &Module{
		geo:    geo,
		par:    par,
		segs:   make(map[uint64]int32),
		memoID: noSeg,
		bus:    sim.NewResource("pram.dq"),
	}
	m.partitions = make([]sim.Resource, geo.Partitions)
	for i := range m.partitions {
		m.partitions[i] = *sim.NewResource(fmt.Sprintf("pram.part%d", i))
	}
	m.progEndPart = make([]sim.Time, geo.Partitions)
	m.ow = newOverlay(geo.Size() - WindowSize)
	m.wordsPerRow = geo.WordsPerRow()
	m.wordShift = uint(bits.TrailingZeros(uint(geo.WordBytes)))
	for st := range m.progTime {
		m.progTime[st] = par.ProgramTime(lpddr.CellState(st))
	}
	return m, nil
}

// seg returns the entry of the segment holding rowAddr plus the row's
// index within it, adding an empty entry on first touch. The entry is
// valid until the next seg call.
func (m *Module) seg(rowAddr uint64) (*rowSeg, int) {
	id := rowAddr >> segBits
	if m.memoID != id {
		m.lookup(id)
	}
	return m.memoSeg, int(rowAddr & segMask)
}

// lookup points the memo at segment id's entry, adding an empty one on
// first touch.
func (m *Module) lookup(id uint64) {
	i, ok := m.segs[id]
	if !ok {
		if m.ents == nil {
			m.ents, _ = entPool.Get(struct{}{})
		}
		i = int32(len(m.ents))
		m.ents = append(m.ents, rowSeg{})
		m.segs[id] = i
	}
	m.memoID, m.memoSeg = id, &m.ents[i]
}

// peek is seg without adding an entry: it returns nil when no access has
// touched rowAddr's segment yet.
func (m *Module) peek(rowAddr uint64) (*rowSeg, int) {
	id := rowAddr >> segBits
	if m.memoID == id {
		return m.memoSeg, int(rowAddr & segMask)
	}
	i, ok := m.segs[id]
	if !ok {
		return nil, int(rowAddr & segMask)
	}
	m.memoID, m.memoSeg = id, &m.ents[i]
	return m.memoSeg, int(rowAddr & segMask)
}

// EnableWritePausing turns on the write-pause/resume behaviour (the
// Related Work alternative to multi-resource-aware interleaving): reads
// preempt in-flight programs at the cost of stretching them. Off by
// default, matching the paper's device.
func (m *Module) EnableWritePausing(on bool) { m.pausing = on }

// Pauses returns how many programs were interrupted by reads.
func (m *Module) Pauses() int64 { return m.stats.Pauses }

// SetPauseHook registers fn to observe every write-pause event: at is
// the pausing read's arrival, stretch the extra time the interrupted
// program pays (pause + sense + resume). The memory controller wires it
// to the observability layer's stall series; nil disables it.
func (m *Module) SetPauseHook(fn func(at sim.Time, stretch sim.Duration)) { m.onPause = fn }

// EnableTrace records every LPDDR2-NVM command the module receives, for
// protocol inspection and debugging. Retrieve with TraceHistory.
func (m *Module) EnableTrace(on bool) { m.tracing = on }

// TraceHistory returns the recorded command stream (empty unless
// EnableTrace was set before the traffic).
func (m *Module) TraceHistory() []lpddr.Command { return m.trace }

// ShareBus wires the module's DQ pins to a shared channel bus: all PRAM
// packages on one LPDDR2-NVM channel drive the same dq[15:0] lines
// (Figure 14), so their bursts serialize on it. Call before any traffic.
func (m *Module) ShareBus(bus *sim.Resource) { m.bus = bus }

// Stats returns a snapshot of the activity counters.
func (m *Module) Stats() Stats { return m.stats }

// SetOWBA remaps the overlay window. The base must be row-aligned and the
// window must fit in the module.
func (m *Module) SetOWBA(base uint64) error {
	if base%uint64(m.geo.RowBytes) != 0 {
		return fmt.Errorf("pram: OWBA %#x not row-aligned", base)
	}
	if base+WindowSize > m.geo.Size() {
		return fmt.Errorf("pram: overlay window at %#x exceeds module size %#x", base, m.geo.Size())
	}
	m.ow.base = base
	// Remapping invalidates any RDB bound to the old window region.
	for i := range m.rdbValid {
		if m.rdbWindow[i] {
			m.rdbValid[i] = false
			m.rdbWindow[i] = false
		}
	}
	return nil
}

// RABHit returns the buffer pair whose RAB already holds upper, if any.
// The controller uses this to skip the pre-active phase.
func (m *Module) RABHit(upper uint32) (ba uint8, ok bool) {
	for i := 0; i < m.par.NumRAB; i++ {
		if m.rabValid[i] && m.rabUpper[i] == upper {
			return uint8(i), true
		}
	}
	return 0, false
}

// RDBHit returns the buffer pair whose RDB holds row, if any. The
// controller uses this to skip both addressing phases.
func (m *Module) RDBHit(rowAddr uint64) (ba uint8, ok bool) {
	for i := 0; i < m.par.NumRAB; i++ {
		if m.rdbValid[i] && m.rdbRow[i] == rowAddr {
			return uint8(i), true
		}
	}
	return 0, false
}

// receive logs a command when tracing and rejects a BA outside the
// module's buffer pairs.
func (m *Module) receive(op lpddr.Op, ba uint8, addr uint32) error {
	if m.tracing {
		m.trace = append(m.trace, lpddr.Command{Op: op, BA: ba, Addr: addr})
	}
	if int(ba) >= m.par.NumRAB {
		return fmt.Errorf("pram: %v targets BA %d but the module has %d RAB pairs", op, ba, m.par.NumRAB)
	}
	return nil
}

// Preactive latches the upper row address into RAB ba (first addressing
// phase). It returns when the RAB update completes (tRP).
func (m *Module) Preactive(at sim.Time, ba uint8, upper uint32) (done sim.Time, err error) {
	if err := m.receive(lpddr.OpPreactive, ba, upper); err != nil {
		return 0, err
	}
	if upper >= 1<<lpddr.AddrBits {
		return 0, fmt.Errorf("pram: upper row address %#x exceeds the %d-bit RAB field", upper, lpddr.AddrBits)
	}
	m.rabValid[ba] = true
	m.rabUpper[ba] = upper
	// A new upper row address unbinds the stale RDB pairing.
	m.rdbValid[ba] = false
	m.rdbWindow[ba] = false
	m.stats.Preactives++
	return at + m.par.TRP(), nil
}

// Activate composes the full row address from RAB ba plus lower, decodes
// it, and senses the row into the paired RDB (second addressing phase).
// Array rows occupy their partition for tRCD; rows falling inside the
// overlay window are served by the register sets and do not touch the
// array. It returns when the RDB holds the row.
func (m *Module) Activate(at sim.Time, ba uint8, lower uint32) (done sim.Time, err error) {
	if err := m.receive(lpddr.OpActivate, ba, lower); err != nil {
		return 0, err
	}
	if !m.rabValid[ba] {
		return 0, fmt.Errorf("pram: ACTIVATE on BA %d without a prior PREACTIVE", ba)
	}
	if lower >= 1<<m.geo.LowerBits {
		return 0, fmt.Errorf("pram: lower row address %#x exceeds %d bits", lower, m.geo.LowerBits)
	}
	rowAddr := m.geo.JoinRow(m.rabUpper[ba], lower)
	if err := m.geo.CheckRow(rowAddr); err != nil {
		return 0, err
	}
	rowBase := rowAddr * uint64(m.geo.RowBytes)
	if m.ow.containsRow(rowBase, m.geo.RowBytes) {
		// Overlay window access: register sets respond within tRCD with
		// no partition involvement.
		m.rdbValid[ba] = true
		m.rdbWindow[ba] = true
		m.rdbRow[ba] = rowAddr
		m.stats.WindowAct++
		return at + m.par.TRCD, nil
	}
	partIdx := m.geo.PartitionOf(rowAddr)
	part := &m.partitions[partIdx]
	var done2 sim.Time
	if m.pausing && at < m.progEndPart[partIdx] {
		// Pause the in-flight program: the sense proceeds after the
		// pause overhead, and the program's completion stretches by the
		// interruption plus the resume penalty.
		done2 = at + pauseOverhead + m.par.TRCD
		stretch := pauseOverhead + m.par.TRCD + resumeOverhead
		m.progEndPart[partIdx] += stretch
		if m.progEndPart[partIdx] > m.busyUntil {
			m.busyUntil = m.progEndPart[partIdx]
		}
		m.stats.ProgramTime += stretch // the interrupted program re-pays this
		m.stats.Pauses++
		if m.onPause != nil {
			m.onPause(at, stretch)
		}
	} else {
		start := part.Acquire(at, m.par.TRCD)
		done2 = start + m.par.TRCD
	}
	done = done2
	m.rdbValid[ba] = true
	m.rdbWindow[ba] = false
	m.rdbRow[ba] = rowAddr
	seg, idx := m.seg(rowAddr)
	m.stats.Activates++
	seg.writableStamps().lastRead[idx] = done
	return done, nil
}

// ReadBurstInto pulls len(dst) bytes starting at column col out of RDB
// ba into dst (third addressing phase, read flavour). The DQ bus is
// occupied for the burst after the read preamble (RL + tDQSCK). It
// returns the time the last byte is on the bus. An array RDB's bytes
// are its row's array bytes (see Module.rdbRow); a row whose segment
// holds no content reads as zeros.
func (m *Module) ReadBurstInto(at sim.Time, ba uint8, col int, dst []byte) (done sim.Time, err error) {
	n := len(dst)
	data := dst
	if err := m.receive(lpddr.OpRead, ba, uint32(col)); err != nil {
		return 0, err
	}
	if !m.rdbValid[ba] {
		return 0, fmt.Errorf("pram: READ on BA %d, whose RDB holds no sensed row", ba)
	}
	if col < 0 || n <= 0 || col+n > m.geo.RowBytes {
		return 0, fmt.Errorf("pram: read burst [%d,%d) outside %d-byte row", col, col+n, m.geo.RowBytes)
	}
	if m.rdbWindow[ba] {
		base := m.rdbRow[ba]*uint64(m.geo.RowBytes) - m.ow.base
		for i := 0; i < n; i++ {
			off := base + uint64(col+i)
			if off == RegStatus {
				data[i] = m.statusAt(at)
				continue
			}
			b, err := m.ow.read(off)
			if err != nil {
				return 0, err
			}
			data[i] = b
		}
	} else if seg, idx := m.peek(m.rdbRow[ba]); seg != nil && seg.content.data != nil {
		copy(data, seg.content.rowData(idx, m.geo.RowBytes)[col:])
	} else {
		clear(data)
	}
	busStart := m.bus.Acquire(at+m.par.ReadPreamble(), m.par.TBurst())
	m.stats.ReadBursts++
	return busStart + m.par.TBurst(), nil
}

// WriteBurst pushes data toward the overlay window at column col of the
// row bound to buffer pair ba (third addressing phase, write flavour).
// LPDDR2-NVM forbids writing raw array rows, so the bound row must fall
// inside the overlay window; writes covering RegExec start the queued
// program or erase operation. It returns when write recovery completes.
func (m *Module) WriteBurst(at sim.Time, ba uint8, col int, data []byte) (done sim.Time, err error) {
	if err := m.receive(lpddr.OpWrite, ba, uint32(col)); err != nil {
		return 0, err
	}
	if !m.rdbValid[ba] {
		return 0, fmt.Errorf("pram: WRITE on BA %d, whose RDB holds no sensed row", ba)
	}
	if !m.rdbWindow[ba] {
		return 0, fmt.Errorf("pram: write-phase to array row %#x (only overlay window rows are writable)", m.rdbRow[ba])
	}
	if col < 0 || len(data) == 0 || col+len(data) > m.geo.RowBytes {
		return 0, fmt.Errorf("pram: write burst [%d,%d) outside %d-byte row", col, col+len(data), m.geo.RowBytes)
	}
	busStart := m.bus.Acquire(at+m.par.WritePreamble(), m.par.TBurst())
	done = busStart + m.par.TBurst() + m.par.TWRA

	off := m.rdbRow[ba]*uint64(m.geo.RowBytes) - m.ow.base + uint64(col)
	execTriggered, err := m.ow.write(off, data)
	if err != nil {
		return 0, err
	}
	m.stats.WriteBursts++
	if execTriggered {
		if err := m.execute(done); err != nil {
			return 0, err
		}
	}
	return done, nil
}

// statusAt synthesizes the status register for a read at time at.
func (m *Module) statusAt(at sim.Time) byte {
	if at >= m.busyUntil {
		return StatusReady
	}
	return StatusBusy
}

// BusyUntil returns when the in-flight program or erase completes (zero
// when idle). Controllers poll RegStatus on hardware; the simulation can
// ask directly.
func (m *Module) BusyUntil() sim.Time { return m.busyUntil }

// ProgBufFreeAt returns when the program buffer can accept the next
// staged program. Programs to different partitions overlap: only the
// buffer-latch window and the target partition serialize.
func (m *Module) ProgBufFreeAt() sim.Time { return m.bufFreeAt }

// LastProgramEnd returns when the most recent program of rowAddr
// completed (0 if never programmed on a timed path).
func (m *Module) LastProgramEnd(rowAddr uint64) sim.Time {
	if seg, idx := m.peek(rowAddr); seg != nil {
		return seg.lastProg(idx)
	}
	return 0
}

// PreEraseBackground models the on-line selective-erasing pass: the
// subsystem zero-programs (pure RESET) a dead row during an idle window
// before its next overwrite, off the requester's critical path. The
// partition time is charged from `from` (the previous program's
// completion, or the write-intent declaration for contract-dead rows);
// the row's words become pristine so the next program needs only SET
// pulses. When contractDead is true the caller vouches the old contents
// were declared dead (a write-intent region), so intervening reads - the
// write-allocate fills of a cache - saw garbage either way and do not
// block the erase; otherwise any read since the last program aborts it.
func (m *Module) PreEraseBackground(from sim.Time, rowAddr uint64, contractDead bool) error {
	if err := m.geo.CheckRow(rowAddr); err != nil {
		return err
	}
	seg, idx := m.peek(rowAddr)
	if seg == nil || !seg.written(idx) {
		return nil // never written: already pristine
	}
	needs := false
	for _, st := range seg.content.rowState(idx, m.wordsPerRow) {
		if st == lpddr.CellProgrammed {
			needs = true
			break
		}
	}
	if !needs {
		return nil
	}
	// Safety: the background erase retroactively occupies an idle window
	// in the past. Unless the contents were contract-dead, a read since
	// the last program means the erase would have corrupted that read.
	if !contractDead && seg.lastRead(idx) > seg.lastProg(idx) {
		return nil
	}
	part := &m.partitions[m.geo.PartitionOf(rowAddr)]
	start := part.Acquire(sim.Max(from, seg.lastProg(idx)), m.par.CellOverwriteExtra)
	end := start + m.par.CellOverwriteExtra
	if end > m.busyUntil {
		m.busyUntil = end
	}
	c := seg.writableContent(m.geo)
	clear(c.rowData(idx, m.geo.RowBytes))
	fillState(c.rowState(idx, m.wordsPerRow), lpddr.CellErased)
	seg.writableStamps().lastProg[idx] = end
	m.dropRow(rowAddr)
	return nil
}

// execute runs the operation staged in the overlay window registers,
// starting when the execute-register write completes.
func (m *Module) execute(at sim.Time) error {
	switch m.ow.code {
	case CmdProgram:
		return m.program(at)
	case CmdErase:
		return m.erase(at)
	default:
		return fmt.Errorf("pram: execute with unknown command code %#x", m.ow.code)
	}
}

// program commits ow.multi bytes of the program buffer to the row in
// ow.addr. All write drivers of the 256-bit bank fire in parallel, so the
// array is busy for the slowest word's program time: SET-only for
// selectively-erased words, RESET+SET for overwrites.
func (m *Module) program(at sim.Time) error {
	rowAddr := uint64(m.ow.addr)
	if err := m.geo.CheckRow(rowAddr); err != nil {
		return err
	}
	n := int(m.ow.multi)
	if n <= 0 || n > m.geo.RowBytes || n > ProgBufSize {
		return fmt.Errorf("pram: program size %d outside 1..%d", n, m.geo.RowBytes)
	}
	if n&(m.geo.WordBytes-1) != 0 {
		return fmt.Errorf("pram: program size %d not word-aligned (%d-byte words)", n, m.geo.WordBytes)
	}
	rowBase := rowAddr * uint64(m.geo.RowBytes)
	if m.ow.containsRow(rowBase, m.geo.RowBytes) {
		return fmt.Errorf("pram: program targets the overlay window row %#x", rowAddr)
	}

	seg, idx := m.seg(rowAddr)
	c := seg.writableContent(m.geo)
	c.written[idx] = true
	state := c.rowState(idx, m.wordsPerRow)
	src := m.ow.progBuf[:n]

	// Determine the op time from the slowest word and set the new cell
	// states, then commit the data.
	var opTime sim.Duration
	slowest := lpddr.CellErased
	wb := m.geo.WordBytes
	for w := range n >> m.wordShift {
		st := state[w]
		if zeroWord(src[w*wb : (w+1)*wb]) {
			// Programming all-zero data is a pure RESET of the word: the
			// selective-erasing primitive. Cost: the RESET sequence, none
			// when the word is already pristine (its drivers idle).
			if st == lpddr.CellProgrammed && m.par.CellOverwriteExtra > opTime {
				opTime = m.par.CellOverwriteExtra
			}
			state[w] = lpddr.CellErased
			continue
		}
		if wt := m.progTime[st]; wt > opTime {
			opTime, slowest = wt, st
		}
		state[w] = lpddr.CellProgrammed
	}
	copy(c.rowData(idx, m.geo.RowBytes), src)
	if opTime == 0 {
		// Writing zeros over pristine cells still costs one driver pulse.
		opTime = m.par.TCK
	}

	partIdx := m.geo.PartitionOf(rowAddr)
	part := &m.partitions[partIdx]
	// A new program also waits for the (possibly pause-stretched) program
	// already on this partition.
	start := part.Acquire(sim.Max(at, m.progEndPart[partIdx]), opTime)
	end := start + opTime
	m.progEndPart[partIdx] = end
	if end > m.busyUntil {
		m.busyUntil = end
	}
	if bf := at + progBufHold; bf > m.bufFreeAt {
		m.bufFreeAt = bf
	}
	seg.writableStamps().lastProg[idx] = end
	m.stats.Programs++
	m.stats.ProgramsBy[slowest]++
	m.stats.ProgramTime += opTime
	m.dropRow(rowAddr)
	return nil
}

// zeroWord reports whether a program unit holds only zero bytes.
func zeroWord(w []byte) bool {
	switch len(w) {
	case 4:
		return binary.LittleEndian.Uint32(w) == 0
	case 8:
		return binary.LittleEndian.Uint64(w) == 0
	}
	for _, b := range w {
		if b != 0 {
			return false
		}
	}
	return true
}

// fillState sets every word state of a row to st.
func fillState(state []lpddr.CellState, st lpddr.CellState) {
	for i := range state {
		state[i] = st
	}
}

// dropRow invalidates any RDB still holding array row rowAddr. Every
// content mutator calls it: an RDB refers to its row's array bytes, so
// after a program, erase, pre-erase or load the pair holds no sensed row.
func (m *Module) dropRow(rowAddr uint64) { m.dropRows(rowAddr, rowAddr+1) }

// dropRows is dropRow for every array row in [lo, hi).
func (m *Module) dropRows(lo, hi uint64) {
	for i := range m.rdbValid {
		if m.rdbValid[i] && !m.rdbWindow[i] && m.rdbRow[i] >= lo && m.rdbRow[i] < hi {
			m.rdbValid[i] = false
		}
	}
}

// erase clears the erase segment containing the row in ow.addr, leaving
// every word pristine (CellErased). The partition is blocked for the full
// CellErase latency, which is why the data path never issues one.
func (m *Module) erase(at sim.Time) error {
	rowAddr := uint64(m.ow.addr)
	if err := m.geo.CheckRow(rowAddr); err != nil {
		return err
	}
	base := m.geo.EraseBase(rowAddr)
	part := &m.partitions[m.geo.PartitionOf(rowAddr)]
	start := part.Acquire(at, m.par.CellErase)
	end := start + m.par.CellErase
	if end > m.busyUntil {
		m.busyUntil = end
	}
	last := min(base+uint64(m.geo.EraseRows), m.geo.RowsPerModule)
	for rowA := base; rowA < last; rowA++ {
		if seg, idx := m.peek(rowA); seg != nil && seg.written(idx) {
			c := seg.writableContent(m.geo)
			clear(c.rowData(idx, m.geo.RowBytes))
			fillState(c.rowState(idx, m.wordsPerRow), lpddr.CellErased)
		}
	}
	m.dropRows(base, last)
	m.stats.Erases++
	return nil
}

// LoadRow stores data into a row bypassing protocol and timing, marking
// the words it covers programmed. It models factory/offline
// initialization ("we initialize the data and place it in the persistent
// storages" before measurement) and must not be used on a measured path.
func (m *Module) LoadRow(rowAddr uint64, data []byte) error {
	if err := m.geo.CheckRow(rowAddr); err != nil {
		return err
	}
	if len(data) > m.geo.RowBytes {
		return fmt.Errorf("pram: %d bytes exceed the row", len(data))
	}
	m.load(rowAddr, 1, data, len(data), 0)
	return nil
}

// LoadRows is LoadRow over count consecutive full rows from rowAddr on:
// row rowAddr+i takes the RowBytes bytes at data[i*stride:]. The
// bookkeeping runs once per segment, not once per row, which makes it
// the bulk initialization path.
func (m *Module) LoadRows(rowAddr uint64, count int, data []byte, stride int) error {
	if count <= 0 {
		return nil
	}
	if err := m.geo.CheckRow(rowAddr); err != nil {
		return err
	}
	if err := m.geo.CheckRow(rowAddr + uint64(count-1)); err != nil {
		return err
	}
	if stride < m.geo.RowBytes || len(data) < (count-1)*stride+m.geo.RowBytes {
		return fmt.Errorf("pram: %d rows at a %d-byte stride need more than the %d bytes given", count, stride, len(data))
	}
	m.load(rowAddr, count, data, m.geo.RowBytes, stride)
	return nil
}

// load stores the first n bytes at data[i*stride:] into row rowAddr+i for
// count in-range rows, marks the words they cover programmed and drops
// any RDB holding one of the rows.
func (m *Module) load(rowAddr uint64, count int, data []byte, n, stride int) {
	rb, wpr := m.geo.RowBytes, m.wordsPerRow
	words := (n + m.geo.WordBytes - 1) >> m.wordShift
	m.dropRows(rowAddr, rowAddr+uint64(count))
	off := 0
	for count > 0 {
		seg, idx := m.seg(rowAddr)
		k := min(count, segRows-idx)
		c := seg.writableContent(m.geo)
		for r := idx; r < idx+k; r++ {
			c.written[r] = true
			copy(c.data[r*rb:r*rb+n], data[off:])
			fillState(c.state[r*wpr:r*wpr+words], lpddr.CellProgrammed)
			off += stride
		}
		rowAddr += uint64(k)
		count -= k
	}
}

// PeekRow returns a copy of the stored row (zeroes when never written),
// bypassing timing; for tests and debugging only.
func (m *Module) PeekRow(rowAddr uint64) []byte {
	out := make([]byte, m.geo.RowBytes)
	if seg, idx := m.peek(rowAddr); seg != nil && seg.content.data != nil {
		copy(out, seg.content.rowData(idx, m.geo.RowBytes))
	}
	return out
}

// PartitionFreeAt returns when partition p finishes its queued array work.
func (m *Module) PartitionFreeAt(p int) sim.Time { return m.partitions[p].FreeAt() }
