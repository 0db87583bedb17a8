package memctrl

import (
	"fmt"

	"dramless/internal/obs"
	"dramless/internal/pram"
	"dramless/internal/sim"
)

// channel is one LPDDR2-NVM channel: a command/address bus and a 16-bit
// data bus shared by all packages on the channel (Figure 14), plus the
// per-module controller state of the command generator.
type channel struct {
	cfg Config
	// pol is the configured scheduling policy flattened to booleans at
	// construction (resolvePolicy): the hot path never calls through
	// the Policy interface.
	pol     resolved
	cmdBus  *sim.Resource // CA bus: one command packet per tCK
	dataBus *sim.Resource // shared dq[15:0]: one 32 B burst per tBURST
	modules []*pram.Module

	// modLastDone serializes operations per chip for the BareMetal
	// policy: a chip's next operation may not begin before its
	// previous one fully completed (Figure 12's non-interleaved case).
	// Different chips still proceed in parallel - that is the device's
	// bank-level parallelism, not a scheduler optimization.
	modLastDone []sim.Time
	lastDone    sim.Time // channel-wide completion frontier (drain)

	// nextBA is the round-robin RAB/RDB victim pointer per module.
	nextBA []uint8

	// intent reports whether a module-local row is inside a declared
	// write-intent region and when the declaration was made (set by the
	// subsystem for selective erasing).
	intent func(mod int, rowAddr uint64) (declaredAt sim.Time, ok bool)

	// rmwRow is the scratch row the read-modify-write path merges into.
	// It is safe to reuse: ProgramRow copies bytes into the overlay
	// window store and never retains its argument.
	rmwRow  []byte
	execBuf [1]byte // the 1-byte RegExec touch, hoisted off writeWave

	// Batch scratch, reused across calls (the channel is single-threaded
	// per simulation): per-module wave counters, the wave tables of the
	// read and write batch paths, and readWave's per-module buffer-pair
	// claim masks. Reuse keeps the kernel phase's per-request cost free
	// of map and slice churn.
	seenScratch []int
	rWaves      [][]*rowReq
	wWaves      [][]*writeReq
	claimed     []uint8

	// tr records per-channel timeline spans when tracing is on; proc is
	// the channel's trace process name and tracks the per-package thread
	// names, precomputed so recording a span allocates nothing. tr is nil
	// when observation is off (the nil Tracer no-ops).
	tr     *obs.Tracer
	proc   string
	tracks []string

	// Latency/series instruments, resolved once at construction and
	// shared across channels (one distribution per instrument name).
	// hRead is indexed by read outcome; all nil when observation is off,
	// checked once per access.
	hRead         [4]*obs.Histogram
	hWriteFull    *obs.Histogram
	hWriteRMW     *obs.Histogram
	sBytesRead    *obs.Series
	sBytesWritten *obs.Series
	sReads        *obs.Series
	sRDBHits      *obs.Series
	sRABHits      *obs.Series

	stats Stats
}

// Read outcomes (hRead indices): full three-phase access, both phases
// skipped (RDB hit), pre-active skipped (RAB hit), and reads that
// paused an in-flight program (write pausing; overrides the others).
const (
	outFull = iota
	outRDB
	outRAB
	outPaused
)

// Exported aliases of the read outcomes, the indices of Stats.ReadPS.
const (
	ReadOutFull   = outFull
	ReadOutRDB    = outRDB
	ReadOutRAB    = outRAB
	ReadOutPaused = outPaused
)

func newChannel(idx int, cfg Config) (*channel, error) {
	ch := &channel{
		cfg:         cfg,
		pol:         resolvePolicy(cfg.Policy),
		cmdBus:      sim.NewResource(fmt.Sprintf("ch%d.ca", idx)),
		dataBus:     sim.NewResource(fmt.Sprintf("ch%d.dq", idx)),
		nextBA:      make([]uint8, cfg.Params.Packages),
		modLastDone: make([]sim.Time, cfg.Params.Packages),
		rmwRow:      make([]byte, cfg.Geometry.RowBytes),
		seenScratch: make([]int, cfg.Params.Packages),
		claimed:     make([]uint8, cfg.Params.Packages),
	}
	ch.execBuf[0] = 1
	ch.tr = cfg.Obs.Tracer()
	ch.proc = fmt.Sprintf("pram.ch%d", idx)
	ch.tracks = make([]string, cfg.Params.Packages)
	for p := range ch.tracks {
		ch.tracks[p] = fmt.Sprintf("pkg%d", p)
	}
	for p := 0; p < cfg.Params.Packages; p++ {
		m, err := pram.NewModule(cfg.Geometry, cfg.Params)
		if err != nil {
			return nil, err
		}
		m.ShareBus(ch.dataBus)
		m.EnableWritePausing(cfg.WritePausing || ch.pol.pauseReads)
		ch.modules = append(ch.modules, m)
	}
	if hs := cfg.Obs.Histograms(); hs != nil {
		ch.hRead[outFull] = hs.Get(obs.HistMemReadFull)
		ch.hRead[outRDB] = hs.Get(obs.HistMemReadRDBHit)
		ch.hRead[outRAB] = hs.Get(obs.HistMemReadRABHit)
		ch.hRead[outPaused] = hs.Get(obs.HistMemReadPaused)
		ch.hWriteFull = hs.Get(obs.HistMemWriteFull)
		ch.hWriteRMW = hs.Get(obs.HistMemWriteRMW)
	}
	if ss := cfg.Obs.Series(); ss != nil {
		ch.sBytesRead = ss.Get(obs.SeriesMemBytesRead)
		ch.sBytesWritten = ss.Get(obs.SeriesMemBytesWritten)
		ch.sReads = ss.Get(obs.SeriesMemReads)
		ch.sRDBHits = ss.Get(obs.SeriesMemRDBHits)
		ch.sRABHits = ss.Get(obs.SeriesMemRABHits)
		pauseS := ss.Get(obs.SeriesMemWritePause)
		for _, m := range ch.modules {
			m.SetPauseHook(func(at sim.Time, stretch sim.Duration) {
				pauseS.Add(at, int64(stretch))
			})
		}
	}
	return ch, nil
}

// recordRead feeds one completed demand read into the latency and
// series instruments. Call sites guard on ch.hRead[outFull] != nil:
// the method is beyond the inlining budget, so the guard keeps the
// observation-off hot path free of the call.
func (ch *channel) recordRead(out uint8, at, done sim.Time, n int) {
	ch.hRead[out].Record(int64(done - at))
	ch.sReads.Add(at, 1)
	switch out {
	case outRDB:
		ch.sRDBHits.Add(at, 1)
	case outRAB:
		ch.sRABHits.Add(at, 1)
	}
	ch.sBytesRead.Add(done, int64(n))
}

// recordWrite feeds one accepted write into the instruments. Call
// sites guard on ch.hWriteFull != nil (see recordRead).
func (ch *channel) recordWrite(fullRow bool, at, done sim.Time, n int) {
	if fullRow {
		ch.hWriteFull.Record(int64(done - at))
	} else {
		ch.hWriteRMW.Record(int64(done - at))
	}
	ch.sBytesWritten.Add(done, int64(n))
}

// issue charges one command packet on the CA bus and returns when the
// device sees it.
func (ch *channel) issue(at sim.Time) sim.Time {
	start := ch.cmdBus.Acquire(at, ch.cfg.Params.TCK)
	return start + ch.cfg.Params.TCK
}

// gate applies the scheduling policy's ordering constraint to an
// operation on module mod that wants to start at `at`.
func (ch *channel) gate(at sim.Time, mod int) sim.Time {
	if !ch.pol.interleave {
		return sim.Max(at, ch.modLastDone[mod])
	}
	return at
}

// complete records an operation completion for the bare-metal ordering.
func (ch *channel) complete(done sim.Time, mod int) {
	if done > ch.modLastDone[mod] {
		ch.modLastDone[mod] = done
	}
	if done > ch.lastDone {
		ch.lastDone = done
	}
}

// windowBA returns the RAB/RDB pair reserved for overlay-window flows, so
// write flows keep their window row bound and phase-skip every step.
func (ch *channel) windowBA() uint8 { return uint8(ch.cfg.Params.NumRAB - 1) }

// victimBA picks the next RAB/RDB pair for array reads, rotating over the
// pairs not reserved for the overlay window.
func (ch *channel) victimBA(mod int) uint8 {
	n := uint8(ch.cfg.Params.NumRAB - 1)
	if n == 0 {
		return 0
	}
	ba := ch.nextBA[mod] % n
	ch.nextBA[mod] = (ba + 1) % n
	return ba
}

// rowReq is one row-granule read within a batch. dst is the
// caller-provided destination the burst lands in (usually a subslice of
// the subsystem-level output buffer), so a batch completes with the
// bytes already in place and no copy-back stage.
type rowReq struct {
	mod  int
	row  uint64
	col  int
	dst  []byte
	done sim.Time

	ba       uint8
	out      uint8    // read outcome for the latency instruments
	preDone  sim.Time // pre-active complete (phase 1)
	rowReady sim.Time // activate complete (phase 2)
	needAct  bool
}

// readRowInto reads len(dst) bytes at column col of module-local row
// rowAddr on module mod into dst, starting no earlier than at.
func (ch *channel) readRowInto(at sim.Time, mod int, rowAddr uint64, col int, dst []byte) (done sim.Time, err error) {
	reqs := [1]rowReq{{mod: mod, row: rowAddr, col: col, dst: dst}}
	if err := ch.readBatch(at, reqs[:]); err != nil {
		return 0, err
	}
	return reqs[0].done, nil
}

// readBatch processes a set of row reads. With an interleaving scheduler
// the batch is issued phase by phase in waves of at most one row per
// module, so one partition's tRP+tRCD overlaps another row's data burst
// exactly as in Figure 12. Without interleaving each request is a wave
// of its own that runs to completion before the next starts (bare-metal
// ordering).
func (ch *channel) readBatch(at sim.Time, reqs []rowReq) error {
	if !ch.pol.interleave {
		for i := range reqs {
			wave := [1]*rowReq{&reqs[i]}
			if err := ch.readWave(ch.gate(at, reqs[i].mod), wave[:]); err != nil {
				return err
			}
			ch.complete(reqs[i].done, reqs[i].mod)
		}
		return nil
	}
	// Split into waves: at most NumRAB-1 outstanding rows per module per
	// wave (one pair stays reserved for the overlay window), so a wave
	// can bind each of its rows to a distinct RDB. Requests land in
	// waves round-robin per module; waves pipeline through the
	// partition/bus timelines, so later sensing overlaps earlier bursts
	// both across modules and across this module's own buffer pairs
	// (Figure 12).
	//
	// Partition overlap (PALP): a read whose target partition still has
	// in-flight array work (typically a posted program, 10-18us) cannot
	// sense until the partition frees, and issuing it early pushes the
	// shared command/DQ bus frontier past that wait for every later
	// wave. With the PartitionOverlap capability the batch is assigned
	// in two passes - conflict-free reads first, busy-partition reads
	// appended to the tail waves - so the free partitions' senses and
	// bursts overlap the busy partitions' writes instead of queuing
	// behind them.
	perMod := ch.cfg.Params.NumRAB - 1
	if perMod < 1 {
		perMod = 1
	}
	seen := ch.resetSeen()
	waves, used := ch.rWaves, 0
	deferring := ch.pol.partitionOverlap
	for pass := 0; pass < 2; pass++ {
		for i := range reqs {
			if deferring {
				busy := ch.partitionBusy(at, reqs[i].mod, reqs[i].row)
				if busy != (pass == 1) {
					continue
				}
				if busy {
					ch.stats.PartitionOverlapWins++
				}
			}
			w := seen[reqs[i].mod] / perMod
			seen[reqs[i].mod]++
			for used <= w {
				if used == len(waves) {
					waves = append(waves, nil)
				}
				waves[used] = waves[used][:0]
				used++
			}
			waves[w] = append(waves[w], &reqs[i])
		}
		if !deferring {
			break
		}
	}
	ch.rWaves = waves
	for _, wave := range waves[:used] {
		if err := ch.readWave(at, wave); err != nil {
			return err
		}
	}
	return nil
}

// partitionBusy reports whether the partition holding module-local row
// rowAddr on module mod still has in-flight array work at `at` (an
// outstanding program, or a sense that has not settled). It reads the
// device's partition frontier, so the answer is exact for the
// simulated device state at assignment time.
func (ch *channel) partitionBusy(at sim.Time, mod int, rowAddr uint64) bool {
	return ch.modules[mod].PartitionFreeAt(ch.cfg.Geometry.PartitionOf(rowAddr)) > at
}

// resetSeen returns the per-module wave counter scratch, zeroed.
func (ch *channel) resetSeen() []int {
	for i := range ch.seenScratch {
		ch.seenScratch[i] = 0
	}
	return ch.seenScratch
}

// readWave issues one wave phase by phase. A wave may carry several rows
// of one module (bound to distinct buffer pairs); the claimed mask keeps
// one request's activation from rebinding a pair another request in the
// wave is still going to burst from.
func (ch *channel) readWave(at sim.Time, wave []*rowReq) error {
	if len(wave) > 1 {
		// Every row past the first overlaps its array access with
		// another row's activity in this wave (Figure 12).
		ch.stats.InterleaveOverlaps += int64(len(wave) - 1)
	}
	claimed := ch.claimed
	for _, r := range wave {
		claimed[r.mod] = 0
	}
	// Phase 1: pre-active (or skip via RAB/RDB state).
	for _, r := range wave {
		m := ch.modules[r.mod]
		upper, _ := ch.cfg.Geometry.SplitRow(r.row)
		if ch.cfg.PhaseSkipping {
			if ba, ok := m.RDBHit(r.row); ok && claimed[r.mod]&(1<<ba) == 0 {
				ch.stats.ActivateSkips++
				r.ba, r.rowReady, r.needAct = ba, at, false
				r.out = outRDB
				claimed[r.mod] |= 1 << ba
				continue
			}
			if ba, ok := m.RABHit(upper); ok && claimed[r.mod]&(1<<ba) == 0 {
				ch.stats.PreactiveSkips++
				r.ba, r.preDone, r.needAct = ba, at, true
				r.out = outRAB
				claimed[r.mod] |= 1 << ba
				continue
			}
		}
		ch.stats.FullAccesses++
		r.out = outFull
		r.ba = ch.victimBA(r.mod)
		for i := 0; claimed[r.mod]&(1<<r.ba) != 0 && i < ch.cfg.Params.NumRAB; i++ {
			r.ba = ch.victimBA(r.mod)
		}
		claimed[r.mod] |= 1 << r.ba
		r.needAct = true
		devAt := ch.issue(at)
		done, err := m.Preactive(devAt, r.ba, upper)
		if err != nil {
			return err
		}
		r.preDone = done
	}
	// Phase 2: activate (array sensing, parallel across partitions).
	for _, r := range wave {
		if !r.needAct {
			continue
		}
		_, lower := ch.cfg.Geometry.SplitRow(r.row)
		devAt := ch.issue(r.preDone)
		m := ch.modules[r.mod]
		p0 := m.Pauses()
		done, err := m.Activate(devAt, r.ba, lower)
		if err != nil {
			return err
		}
		if m.Pauses() != p0 {
			r.out = outPaused
			ch.stats.PausePreemptedReads++
		}
		r.rowReady = done
	}
	// Phase 3: read bursts, serialized on the shared DQ bus while later
	// waves' sensing proceeds underneath.
	for _, r := range wave {
		devAt := ch.issue(r.rowReady)
		done, err := ch.modules[r.mod].ReadBurstInto(devAt, r.ba, r.col, r.dst)
		if err != nil {
			return err
		}
		r.done = done
		ch.stats.Reads++
		ch.stats.BytesRead += int64(len(r.dst))
		ch.stats.ReadPS[r.out] += int64(r.done - at)
		if ch.hRead[outFull] != nil {
			ch.recordRead(r.out, at, r.done, len(r.dst))
		}
		if ch.tr != nil {
			if r.needAct {
				ch.tr.Span(ch.proc, ch.tracks[r.mod], "sense", at, r.rowReady)
			}
			ch.tr.Span(ch.proc, ch.tracks[r.mod], "burst", r.rowReady, r.done)
		}
	}
	// Background: sequential next-row prefetch into spare RDBs, only
	// where requests overlap (bare-metal issues nothing speculative).
	if ch.cfg.Prefetch && ch.pol.interleave {
		for _, r := range wave {
			ch.prefetch(r.rowReady, r.mod, r.row+1)
		}
	}
	return nil
}

// prefetch speculatively senses the next sequential module-local row into
// a spare RDB while the current burst occupies the bus. It always uses a
// fresh victim pair (reusing a RAB-hit pair would evict the row a demand
// read just bound). It is fire and forget: failures (e.g. end of module)
// are ignored and nothing blocks on its completion.
func (ch *channel) prefetch(at sim.Time, mod int, rowAddr uint64) {
	m := ch.modules[mod]
	if ch.cfg.Geometry.CheckRow(rowAddr) != nil {
		return
	}
	if _, ok := m.RDBHit(rowAddr); ok {
		return
	}
	// Partition-aware policies never prefetch into a busy partition: a
	// speculative sense behind an in-flight program would extend the
	// partition frontier (PALP) or pause a real program for data nobody
	// asked for (pause-aware).
	if ch.pol.avoidBusyPrefetch && ch.partitionBusy(at, mod, rowAddr) {
		if ch.pol.partitionOverlap {
			ch.stats.PartitionOverlapWins++
		}
		return
	}
	upper, lower := ch.cfg.Geometry.SplitRow(rowAddr)
	ba := ch.victimBA(mod)
	devAt := ch.issue(at)
	done, err := m.Preactive(devAt, ba, upper)
	if err != nil {
		return
	}
	devAt = ch.issue(done)
	if _, err = m.Activate(devAt, ba, lower); err != nil {
		return
	}
	ch.stats.Prefetches++
}

// writeRow programs data (a full row or a row prefix ending the request)
// to module-local row rowAddr. Writes narrower than the row trigger a
// charged read-modify-write, since the program unit granularity is the
// word but the program buffer commits from the row start. The returned
// time is when the controller accepts the write (the execute burst
// completes); the array program itself is posted and tracked by the
// module's program-buffer availability.
func (ch *channel) writeRow(at sim.Time, mod int, rowAddr uint64, col int, data []byte) (done sim.Time, err error) {
	at = ch.gate(at, mod)
	entry := at
	m := ch.modules[mod]
	rb := ch.cfg.Geometry.RowBytes

	full := data
	fullRow := col == 0 && len(data) == rb
	if !fullRow {
		// Read-modify-write: fetch the row through the regular protocol
		// into the channel's scratch row, merge, program whole.
		readDone, err := ch.readRowInto(at, mod, rowAddr, 0, ch.rmwRow)
		if err != nil {
			return 0, err
		}
		copy(ch.rmwRow[col:], data)
		full = ch.rmwRow
		at = readDone
	}

	// On-line selective erasing (Section V-A): a full-row overwrite of a
	// declared write-intent row whose previous program left a long-enough
	// idle gap was pre-RESET in the background, so this program is
	// SET-only. Partial rows are excluded (their RMW read needs the old
	// data).
	if fullRow {
		ch.maybePreErase(at, mod, rowAddr)
	}

	// The program buffer must be free; array programs themselves overlap
	// across partitions.
	at = sim.Max(at, m.ProgBufFreeAt())
	done, err = m.ProgramRow(at, ch.windowBA(), rowAddr, full)
	if err != nil {
		return 0, err
	}
	ch.stats.Writes++
	ch.stats.BytesWritten += int64(len(data))
	if fullRow {
		ch.stats.WriteFullPS += int64(done - entry)
	} else {
		ch.stats.WriteRMWPS += int64(done - entry)
	}
	if ch.hWriteFull != nil {
		ch.recordWrite(fullRow, entry, done, len(data))
	}
	if ch.tr != nil {
		ch.tr.Span(ch.proc, ch.tracks[mod], "program", at, done)
	}

	if !ch.pol.interleave {
		// Bare-metal and selective-erasing do not overlap the chip's next
		// operation with this program flow's bus activity, but the array
		// program itself is posted on every policy (the program buffer
		// decouples it).
		ch.complete(done, mod)
	}
	return done, nil
}

// writeReq is one full-row program within a batch.
type writeReq struct {
	mod   int
	row   uint64
	data  []byte
	paddr uint64 // physical byte address (wear accounting)
	done  sim.Time
	t     sim.Time // per-request flow progress
}

// writeBatch programs a set of full rows. With an interleaving scheduler
// the three flow steps (register-row burst, program-buffer burst,
// execute) issue wave by wave across modules, so flows to different
// packages pipeline on the shared channel buses; without interleaving
// each flow runs to completion before the next starts.
func (ch *channel) writeBatch(at sim.Time, reqs []writeReq) error {
	if !ch.pol.interleave {
		for i := range reqs {
			d, err := ch.writeRow(at, reqs[i].mod, reqs[i].row, 0, reqs[i].data)
			if err != nil {
				return err
			}
			reqs[i].done = d
		}
		return nil
	}
	// Waves: at most one row per module per wave.
	seen := ch.resetSeen()
	waves, used := ch.wWaves, 0
	for i := range reqs {
		w := seen[reqs[i].mod]
		seen[reqs[i].mod] = w + 1
		for used <= w {
			if used == len(waves) {
				waves = append(waves, nil)
			}
			waves[used] = waves[used][:0]
			used++
		}
		waves[w] = append(waves[w], &reqs[i])
	}
	ch.wWaves = waves
	for _, wave := range waves[:used] {
		if err := ch.writeWave(at, wave); err != nil {
			return err
		}
	}
	return nil
}

// writeWave issues one wave's program flows step by step.
func (ch *channel) writeWave(at sim.Time, wave []*writeReq) error {
	if len(wave) > 1 {
		ch.stats.InterleaveOverlaps += int64(len(wave) - 1)
	}
	ba := ch.windowBA()
	// Selective erasing decisions first (no bus activity).
	for _, r := range wave {
		ch.maybePreErase(at, r.mod, r.row)
	}
	// Step 1: register-row burst per module (cmd + data bus interleave).
	for _, r := range wave {
		m := ch.modules[r.mod]
		start := sim.Max(at, m.ProgBufFreeAt())
		d, err := m.WindowWrite(ch.issue(start), ba, pram.RegCode, pram.ProgramHeader(r.row, len(r.data)))
		if err != nil {
			return err
		}
		r.t = d
	}
	// Step 2: program-buffer burst per module.
	for _, r := range wave {
		d, err := ch.modules[r.mod].WindowWrite(ch.issue(r.t), ba, pram.ProgBufOffset, r.data)
		if err != nil {
			return err
		}
		r.t = d
	}
	// Step 3: execute per module; the array program is posted.
	for _, r := range wave {
		d, err := ch.modules[r.mod].WindowWrite(ch.issue(r.t), ba, pram.RegExec, ch.execBuf[:])
		if err != nil {
			return err
		}
		r.done = d
		ch.stats.Writes++
		ch.stats.BytesWritten += int64(len(r.data))
		ch.stats.WriteFullPS += int64(r.done - at)
		if ch.hWriteFull != nil {
			ch.recordWrite(true, at, r.done, len(r.data))
		}
		if ch.tr != nil {
			ch.tr.Span(ch.proc, ch.tracks[r.mod], "program", at, r.done)
		}
	}
	return nil
}

// maybePreErase applies the selective-erasing decision for a full-row
// overwrite of a declared write-intent row (Section V-A). Two cases:
//
//   - contract-dead: the row was last programmed before the intent was
//     declared (stale data from an earlier job), so the subsystem
//     zero-programmed it in the background any time after the kernel
//     load - the first overwrite of every output row is SET-only;
//   - repeat overwrite within the run: only erased when the idle gap
//     since the previous program sufficed and nothing sensed the row in
//     between.
func (ch *channel) maybePreErase(at sim.Time, mod int, rowAddr uint64) {
	if !ch.pol.selErase || ch.intent == nil {
		return
	}
	declared, ok := ch.intent(mod, rowAddr)
	if !ok {
		return
	}
	m := ch.modules[mod]
	gap := ch.cfg.Params.CellOverwriteExtra
	last := m.LastProgramEnd(rowAddr)
	var err error
	switch {
	case last <= declared && at-declared >= gap:
		err = m.PreEraseBackground(declared, rowAddr, true)
	case last > declared && at-last >= gap:
		err = m.PreEraseBackground(last, rowAddr, false)
	default:
		return
	}
	if err == nil {
		ch.stats.PreErasedRows++
	}
}

// drain returns when every module on the channel has finished its posted
// array work.
func (ch *channel) drain() sim.Time {
	var t sim.Time
	for _, m := range ch.modules {
		t = sim.Max(t, m.BusyUntil())
	}
	t = sim.Max(t, ch.cmdBus.FreeAt())
	t = sim.Max(t, ch.dataBus.FreeAt())
	return sim.Max(t, ch.lastDone)
}
