package pram

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"dramless/internal/lpddr"
	"dramless/internal/sim"
)

func testModule(t *testing.T) *Module {
	t.Helper()
	geo := DefaultGeometry()
	geo.RowsPerModule = 1 << 16 // small module keeps tests fast
	m, err := NewModule(geo, lpddr.Default())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// readRow performs a full three-phase row read at time at.
func readRow(t *testing.T, m *Module, at sim.Time, rowAddr uint64) ([]byte, sim.Time) {
	t.Helper()
	upper, lower := m.Geometry().SplitRow(rowAddr)
	done, err := m.Preactive(at, 0, upper)
	if err != nil {
		t.Fatal(err)
	}
	done, err = m.Activate(done, 0, lower)
	if err != nil {
		t.Fatal(err)
	}
	data, done, err := m.ReadBurst(done, 0, 0, m.Geometry().RowBytes)
	if err != nil {
		t.Fatal(err)
	}
	return data, done
}

// programRow drives the full overlay-window write flow the FPGA
// translator performs: stage registers, fill the program buffer, execute.
func programRow(t *testing.T, m *Module, at sim.Time, rowAddr uint64, data []byte) sim.Time {
	t.Helper()
	done, err := m.ProgramRow(at, 1, rowAddr, data)
	if err != nil {
		t.Fatal(err)
	}
	return done
}

func TestGeometryValidate(t *testing.T) {
	if err := DefaultGeometry().Validate(); err != nil {
		t.Fatalf("default geometry invalid: %v", err)
	}
	bad := []func(*Geometry){
		func(g *Geometry) { g.RowBytes = 33 },
		func(g *Geometry) { g.RowsPerModule = 3 },
		func(g *Geometry) { g.Partitions = 0 },
		func(g *Geometry) { g.LowerBits = 15 },
		func(g *Geometry) { g.WordBytes = 5 },
		func(g *Geometry) { g.EraseRows = 0 },
		func(g *Geometry) { g.RowsPerModule = 1 << 40 }, // upper bits overflow RAB field
	}
	for i, mutate := range bad {
		g := DefaultGeometry()
		mutate(&g)
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: bad geometry accepted", i)
		}
	}
}

func TestGeometrySplitJoinRow(t *testing.T) {
	g := DefaultGeometry()
	f := func(r uint32) bool {
		rowAddr := uint64(r) % g.RowsPerModule
		up, lo := g.SplitRow(rowAddr)
		return g.JoinRow(up, lo) == rowAddr && lo < 1<<g.LowerBits
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGeometryPartitionStriping(t *testing.T) {
	g := DefaultGeometry()
	// Consecutive rows must land on different partitions so the
	// interleaving scheduler has parallelism to exploit.
	seen := map[int]bool{}
	for rowAddr := uint64(0); rowAddr < uint64(g.Partitions); rowAddr++ {
		seen[g.PartitionOf(rowAddr)] = true
	}
	if len(seen) != g.Partitions {
		t.Fatalf("first %d rows cover %d partitions, want all", g.Partitions, len(seen))
	}
}

func TestWriteThenReadBack(t *testing.T) {
	m := testModule(t)
	want := make([]byte, 32)
	for i := range want {
		want[i] = byte(i*7 + 1)
	}
	done := programRow(t, m, 0, 42, want)
	got, _ := readRow(t, m, done, 42)
	if !bytes.Equal(got, want) {
		t.Fatalf("read back %x, want %x", got, want)
	}
}

func TestUnwrittenRowsReadZero(t *testing.T) {
	m := testModule(t)
	got, _ := readRow(t, m, 0, 100)
	for _, b := range got {
		if b != 0 {
			t.Fatalf("unwritten row returned %x", got)
		}
	}
}

func TestReadLatencyMatchesPaper(t *testing.T) {
	m := testModule(t)
	_, done := readRow(t, m, 0, 7)
	// Three-phase read: tRP + tRCD + RL + tDQSCK + tBURST ~ 126.5 ns with
	// Table II values; the paper rounds this to "around 100 ns".
	if done < sim.Nanoseconds(100) || done > sim.Nanoseconds(150) {
		t.Fatalf("three-phase read latency = %v, want ~100-150ns", done)
	}
	if par := m.Params(); done != par.RowReadLatency() {
		t.Fatalf("latency %v != derived RowReadLatency %v", done, par.RowReadLatency())
	}
}

func TestFreshWriteLatency(t *testing.T) {
	m := testModule(t)
	data := bytes.Repeat([]byte{0xAB}, 32)
	start := sim.Time(0)
	programRow(t, m, start, 5, data)
	busy := m.BusyUntil()
	// Array program dominates: ~10 us for fresh cells.
	if busy < sim.Microseconds(9) || busy > sim.Microseconds(12) {
		t.Fatalf("fresh program completes at %v, want ~10us", busy)
	}
}

func TestOverwriteCostsResetPlusSet(t *testing.T) {
	m := testModule(t)
	data := bytes.Repeat([]byte{0x11}, 32)
	d1 := programRow(t, m, 0, 9, data)
	firstBusy := m.BusyUntil()
	data2 := bytes.Repeat([]byte{0x22}, 32)
	programRow(t, m, sim.Max(d1, firstBusy), 9, data2)
	overwriteTime := m.BusyUntil() - firstBusy
	// Overwrite = RESET + SET ~ 18 us (plus protocol time).
	if overwriteTime < sim.Microseconds(17) || overwriteTime > sim.Microseconds(20) {
		t.Fatalf("overwrite took %v, want ~18us", overwriteTime)
	}
	got, _ := readRow(t, m, m.BusyUntil(), 9)
	if !bytes.Equal(got, data2) {
		t.Fatalf("overwrite data mismatch: %x", got)
	}
}

func TestSelectiveErasingMakesOverwriteSetOnly(t *testing.T) {
	m := testModule(t)
	// Program real data, then selectively erase (program zeros), then
	// overwrite. The final write must cost the SET-only latency.
	d := programRow(t, m, 0, 3, bytes.Repeat([]byte{0xFF}, 32))
	d = sim.Max(d, m.BusyUntil())
	d = programRow(t, m, d, 3, make([]byte, 32)) // selective erase: all-zero word program
	d = sim.Max(d, m.BusyUntil())
	if st := m.WordState(3 * 32); st != lpddr.CellErased {
		t.Fatalf("after zero-program word state = %v, want erased", st)
	}
	// The array program starts when the execute burst completes (the
	// ProgramRow return time), so opTime = BusyUntil - that.
	execDone := programRow(t, m, d, 3, bytes.Repeat([]byte{0x5A}, 32))
	setOnly := m.BusyUntil() - execDone
	p := m.Params()
	if setOnly != p.CellSetOnly {
		t.Fatalf("erased overwrite took %v, want SET-only %v", setOnly, p.CellSetOnly)
	}
	// 18us -> 10us is the paper's 44% overwrite reduction.
	full := p.CellProgram + p.CellOverwriteExtra
	red := 1 - float64(setOnly)/float64(full)
	if red < 0.40 || red > 0.60 {
		t.Fatalf("selective-erase reduction = %.0f%%, want ~44-55%%", red*100)
	}
}

func TestZeroProgramOnProgrammedCostsResetOnly(t *testing.T) {
	m := testModule(t)
	d := programRow(t, m, 0, 4, bytes.Repeat([]byte{0x77}, 32))
	d = sim.Max(d, m.BusyUntil())
	execDone := programRow(t, m, d, 4, make([]byte, 32))
	resetTime := m.BusyUntil() - execDone
	if want := m.Params().CellOverwriteExtra; resetTime != want {
		t.Fatalf("selective erase of programmed word took %v, want RESET-only %v", resetTime, want)
	}
}

func TestEraseResetsSegmentAndBlocksPartition(t *testing.T) {
	m := testModule(t)
	g := m.Geometry()
	// Rows 16 and 16+EraseRows*Partitions... pick two rows in the same
	// partition, one inside the erased segment and one outside.
	inRow := uint64(16)
	d := programRow(t, m, 0, inRow, bytes.Repeat([]byte{0xEE}, 32))
	d = sim.Max(d, m.BusyUntil())

	done, err := m.EraseSegment(d, 2, inRow)
	if err != nil {
		t.Fatal(err)
	}
	if dur := m.BusyUntil() - d; dur < m.Params().CellErase {
		t.Fatalf("erase blocked partition for %v, want >= %v", dur, m.Params().CellErase)
	}
	got, _ := readRow(t, m, sim.Max(done, m.BusyUntil()), inRow)
	for _, b := range got {
		if b != 0 {
			t.Fatalf("erased row still holds %x", got)
		}
	}
	if st := m.WordState(inRow * uint64(g.RowBytes)); st != lpddr.CellErased {
		t.Fatalf("word state after erase = %v", st)
	}
}

func TestRABAndRDBHitTracking(t *testing.T) {
	m := testModule(t)
	g := m.Geometry()
	rowAddr := uint64(321)
	upper, lower := g.SplitRow(rowAddr)
	if _, ok := m.RABHit(upper); ok {
		t.Fatal("RAB hit before any preactive")
	}
	d, err := m.Preactive(0, 2, upper)
	if err != nil {
		t.Fatal(err)
	}
	if ba, ok := m.RABHit(upper); !ok || ba != 2 {
		t.Fatalf("RAB hit = %d,%v, want 2,true", ba, ok)
	}
	if _, ok := m.RDBHit(rowAddr); ok {
		t.Fatal("RDB hit before activate")
	}
	if _, err = m.Activate(d, 2, lower); err != nil {
		t.Fatal(err)
	}
	if ba, ok := m.RDBHit(rowAddr); !ok || ba != 2 {
		t.Fatalf("RDB hit = %d,%v, want 2,true", ba, ok)
	}
	// A new preactive on the same BA invalidates the pairing.
	if _, err = m.Preactive(d, 2, upper+1); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.RDBHit(rowAddr); ok {
		t.Fatal("RDB hit survived re-preactive")
	}
}

func TestProgramInvalidatesStaleRDB(t *testing.T) {
	m := testModule(t)
	rowAddr := uint64(11)
	d := programRow(t, m, 0, rowAddr, bytes.Repeat([]byte{0x01}, 32))
	d = sim.Max(d, m.BusyUntil())
	_, d2 := readRow(t, m, d, rowAddr) // RDB 0 now holds the row
	if _, ok := m.RDBHit(rowAddr); !ok {
		t.Fatal("row not in RDB after read")
	}
	programRow(t, m, sim.Max(d2, m.BusyUntil()), rowAddr, bytes.Repeat([]byte{0x02}, 32))
	if _, ok := m.RDBHit(rowAddr); ok {
		t.Fatal("stale RDB still hits after the row was reprogrammed")
	}
}

func TestDirectArrayWriteRejected(t *testing.T) {
	m := testModule(t)
	g := m.Geometry()
	upper, lower := g.SplitRow(77)
	d, _ := m.Preactive(0, 0, upper)
	d, err := m.Activate(d, 0, lower)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.WriteBurst(d, 0, 0, []byte{1, 2, 3, 4}); err == nil {
		t.Fatal("write-phase to a raw array row was accepted")
	}
}

func TestProtocolViolationsRejected(t *testing.T) {
	m := testModule(t)
	if _, err := m.Activate(0, 0, 1); err == nil {
		t.Fatal("activate without preactive accepted")
	}
	if _, _, err := m.ReadBurst(0, 1, 0, 8); err == nil {
		t.Fatal("read without activation accepted")
	}
	d, _ := m.Preactive(0, 0, 0)
	if _, err := m.Activate(d, 0, 1<<14); err == nil {
		t.Fatal("activate with 15-bit lower address accepted")
	}
}

func TestActivateOutOfRangeRowRejected(t *testing.T) {
	m := testModule(t)
	g := m.Geometry()
	upper, lower := g.SplitRow(g.RowsPerModule) // one past the end
	d, _ := m.Preactive(0, 0, upper)
	if _, err := m.Activate(d, 0, lower); err == nil {
		t.Fatal("activate outside module accepted")
	}
}

func TestReadBurstBoundsChecked(t *testing.T) {
	m := testModule(t)
	g := m.Geometry()
	upper, lower := g.SplitRow(1)
	d, _ := m.Preactive(0, 0, upper)
	d, _ = m.Activate(d, 0, lower)
	if _, _, err := m.ReadBurst(d, 0, 30, 8); err == nil {
		t.Fatal("read past row end accepted")
	}
	if _, _, err := m.ReadBurst(d, 0, -1, 4); err == nil {
		t.Fatal("negative column accepted")
	}
}

func TestOverlayWindowMetaReadable(t *testing.T) {
	m := testModule(t)
	g := m.Geometry()
	winRow := m.OWBA() / uint64(g.RowBytes)
	upper, lower := g.SplitRow(winRow)
	d, _ := m.Preactive(0, 3, upper)
	d, err := m.Activate(d, 3, lower)
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := m.ReadBurst(d, 3, 0, 12)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(data[RegWindowSize:]); got != WindowSize {
		t.Fatalf("window size meta = %#x, want %#x", got, WindowSize)
	}
	if got := binary.LittleEndian.Uint32(data[RegBufferOffset:]); got != ProgBufOffset {
		t.Fatalf("buffer offset meta = %#x, want %#x", got, ProgBufOffset)
	}
	if got := binary.LittleEndian.Uint32(data[RegBufferSize:]); got != ProgBufSize {
		t.Fatalf("buffer size meta = %#x, want %#x", got, ProgBufSize)
	}
}

func TestOverlayMetaIsReadOnly(t *testing.T) {
	m := testModule(t)
	g := m.Geometry()
	winRow := m.OWBA() / uint64(g.RowBytes)
	upper, lower := g.SplitRow(winRow)
	d, _ := m.Preactive(0, 0, upper)
	d, _ = m.Activate(d, 0, lower)
	if _, err := m.WriteBurst(d, 0, 0, []byte{9}); err == nil {
		t.Fatal("write to read-only meta-information accepted")
	}
}

func TestStatusRegisterReflectsProgramProgress(t *testing.T) {
	m := testModule(t)
	d := programRow(t, m, 0, 8, bytes.Repeat([]byte{0xCC}, 32))
	// Immediately after the execute the device must report busy.
	if st := m.statusAt(d); st != StatusBusy {
		t.Fatalf("status right after execute = %#x, want busy", st)
	}
	if st := m.statusAt(m.BusyUntil()); st != StatusReady {
		t.Fatalf("status at completion = %#x, want ready", st)
	}
}

func TestSetOWBARemapsWindow(t *testing.T) {
	m := testModule(t)
	g := m.Geometry()
	if err := m.SetOWBA(uint64(g.RowBytes)); err != nil { // row 1
		t.Fatal(err)
	}
	if m.OWBA() != uint64(g.RowBytes) {
		t.Fatalf("OWBA = %#x", m.OWBA())
	}
	if err := m.SetOWBA(3); err == nil {
		t.Fatal("unaligned OWBA accepted")
	}
	if err := m.SetOWBA(g.Size()); err == nil {
		t.Fatal("out-of-range OWBA accepted")
	}
}

func TestPartitionParallelism(t *testing.T) {
	m := testModule(t)
	g := m.Geometry()
	// Two activates to different partitions at the same time must not
	// serialize; to the same partition they must.
	upper0, lower0 := g.SplitRow(0) // partition 0
	upper1, lower1 := g.SplitRow(1) // partition 1
	d0, _ := m.Preactive(0, 0, upper0)
	d1, _ := m.Preactive(0, 1, upper1)
	a0, err := m.Activate(d0, 0, lower0)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := m.Activate(d1, 1, lower1)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a0 {
		t.Fatalf("parallel activates to different partitions: %v vs %v", a0, a1)
	}
	// Same partition: row Partitions (= partition 0 again).
	upper2, lower2 := g.SplitRow(uint64(g.Partitions))
	d2, _ := m.Preactive(0, 2, upper2)
	a2, err := m.Activate(d2, 2, lower2)
	if err != nil {
		t.Fatal(err)
	}
	if a2 <= a0 {
		t.Fatalf("same-partition activate did not queue: %v vs %v", a2, a0)
	}
}

func TestBootSequence(t *testing.T) {
	m := testModule(t)
	if m.Ready(0) {
		t.Fatal("module ready before boot")
	}
	d, err := m.ModeRegisterWrite(0, MRAutoInit, 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err = m.ModeRegisterWrite(d, MRZQCalibrate, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ModeRegisterWrite(d, MRBurstLen, 8); err != nil {
		t.Fatal(err)
	}
	if m.Params().BurstLen != 8 {
		t.Fatalf("burst length not applied: %d", m.Params().BurstLen)
	}
	// Program the OWBA to row 2 via the four byte registers.
	for i, b := range []uint8{2, 0, 0, 0} {
		if _, err := m.ModeRegisterWrite(d, uint32(MROWBA0+i), b); err != nil {
			t.Fatal(err)
		}
	}
	if m.OWBA() != 2*uint64(m.Geometry().RowBytes) {
		t.Fatalf("OWBA = %#x, want row 2", m.OWBA())
	}
	st, _, err := m.ModeRegisterRead(0, MRStatus)
	if err != nil {
		t.Fatal(err)
	}
	if st != StatusBusy {
		t.Fatal("status ready during auto-init window")
	}
	st, _, _ = m.ModeRegisterRead(sim.Milliseconds(1), MRStatus)
	if st != StatusReady {
		t.Fatal("status busy after auto-init window")
	}
	if _, err := m.ModeRegisterWrite(0, MRBurstLen, 5); err == nil {
		t.Fatal("bad burst length accepted")
	}
	if _, err := m.ModeRegisterWrite(0, 0x99, 0); err == nil {
		t.Fatal("unknown mode register accepted")
	}
}

func TestStatsAccounting(t *testing.T) {
	m := testModule(t)
	d := programRow(t, m, 0, 1, bytes.Repeat([]byte{1}, 32))
	readRow(t, m, sim.Max(d, m.BusyUntil()), 1)
	s := m.Stats()
	if s.Programs != 1 {
		t.Fatalf("programs = %d, want 1", s.Programs)
	}
	if s.ProgramsBy[lpddr.CellFresh] != 1 {
		t.Fatalf("fresh programs = %d, want 1", s.ProgramsBy[lpddr.CellFresh])
	}
	if s.Activates < 1 || s.ReadBursts < 1 || s.WriteBursts < 1 {
		t.Fatalf("activity counters = %+v", s)
	}
	if s.BytesRead != 32 {
		t.Fatalf("bytes read = %d, want 32", s.BytesRead)
	}
	if s.ProgramTime != m.Params().CellProgram {
		t.Fatalf("program time = %v, want %v", s.ProgramTime, m.Params().CellProgram)
	}
}

// Property: arbitrary program/read sequences always read back the last
// write, regardless of cell-state history.
func TestReadAfterWriteProperty(t *testing.T) {
	m := testModule(t)
	g := m.Geometry()
	now := sim.Time(0)
	shadow := map[uint64][]byte{}
	f := func(rowSel uint16, fill byte, zero bool) bool {
		rowAddr := uint64(rowSel) % (g.RowsPerModule / 2) // keep clear of the window
		data := bytes.Repeat([]byte{fill}, g.RowBytes)
		if zero {
			data = make([]byte, g.RowBytes)
		}
		done, err := m.ProgramRow(now, 0, rowAddr, data)
		if err != nil {
			return false
		}
		now = sim.Max(done, m.BusyUntil())
		shadow[rowAddr] = data
		got, done2 := readRowQuiet(m, now, rowAddr)
		now = done2
		return got != nil && bytes.Equal(got, shadow[rowAddr])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func readRowQuiet(m *Module, at sim.Time, rowAddr uint64) ([]byte, sim.Time) {
	upper, lower := m.Geometry().SplitRow(rowAddr)
	d, err := m.Preactive(at, 0, upper)
	if err != nil {
		return nil, at
	}
	d, err = m.Activate(d, 0, lower)
	if err != nil {
		return nil, at
	}
	data, d, err := m.ReadBurst(d, 0, 0, m.Geometry().RowBytes)
	if err != nil {
		return nil, at
	}
	return data, d
}

func TestTileDecomposition(t *testing.T) {
	g := DefaultGeometry()
	// Row 0: partition 0, half 0, tile 0, wordline 0.
	ta, err := g.Decompose(0)
	if err != nil {
		t.Fatal(err)
	}
	if ta != (TileAddress{}) {
		t.Fatalf("row 0 decomposes to %+v", ta)
	}
	// The next row in partition 0 (row 16) advances the wordline.
	ta, _ = g.Decompose(16)
	if ta.Wordline != 1 || ta.Partition != 0 || ta.Tile != 0 {
		t.Fatalf("row 16 decomposes to %+v", ta)
	}
	// Past a full tile of wordlines the next tile begins.
	rowAddr := uint64(g.TileWLs * g.Partitions)
	ta, _ = g.Decompose(rowAddr)
	if ta.Tile != 1 || ta.Block != 0 || ta.Wordline != 0 {
		t.Fatalf("row %d decomposes to %+v, want tile 1 block 0", rowAddr, ta)
	}
	// Tiles 2,3 form block 1 (the dual-WL scheme).
	ta, _ = g.Decompose(uint64(2 * g.TileWLs * g.Partitions))
	if ta.Block != 1 {
		t.Fatalf("tile 2 in block %d, want 1", ta.Block)
	}
	if _, err := g.Decompose(g.RowsPerModule); err == nil {
		t.Fatal("out-of-range row decomposed")
	}
	// 64 tiles x 2048 BLs x 4096 WLs cells per partition.
	if got := g.CellsPerPartition(); got != 64*2048*4096 {
		t.Fatalf("cells per partition = %d", got)
	}
}

func TestTileDecompositionCoversHalves(t *testing.T) {
	g := DefaultGeometry()
	g.RowsPerModule = 1 << 22
	seen := map[int]bool{}
	// Walk partition 0's rows at tile stride; both halves must appear.
	stride := uint64(g.TileWLs * g.Partitions)
	for rowAddr := uint64(0); rowAddr < g.RowsPerModule; rowAddr += stride {
		ta, err := g.Decompose(rowAddr)
		if err != nil {
			t.Fatal(err)
		}
		if ta.Partition != 0 {
			t.Fatalf("stride left partition 0: %+v", ta)
		}
		seen[ta.HalfPartition] = true
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("halves covered: %v", seen)
	}
}

func TestGeometryValidateTileFields(t *testing.T) {
	g := DefaultGeometry()
	g.TilesPerPartition = 63 // odd: no half partitions
	if err := g.Validate(); err == nil {
		t.Fatal("odd tile count accepted")
	}
	g = DefaultGeometry()
	g.TileBLs = 0
	if err := g.Validate(); err == nil {
		t.Fatal("zero bitlines accepted")
	}
}

func TestWritePausingServesReadsDuringPrograms(t *testing.T) {
	m := testModule(t)
	m.EnableWritePausing(true)
	// Start a 10 us program on partition 0 (row 0), then read another row
	// of the same partition (row 16) mid-program.
	d := programRow(t, m, 0, 0, bytes.Repeat([]byte{0x42}, 32))
	progEnd := m.BusyUntil()
	readAt := d + sim.Microseconds(2) // well inside the program
	upper, lower := m.Geometry().SplitRow(16)
	d2, err := m.Preactive(readAt, 0, upper)
	if err != nil {
		t.Fatal(err)
	}
	d3, err := m.Activate(d2, 0, lower)
	if err != nil {
		t.Fatal(err)
	}
	// The read must complete far before the original program end...
	if d3 >= progEnd {
		t.Fatalf("paused read done at %v, not before program end %v", d3, progEnd)
	}
	// ...and the program must have stretched past it.
	if m.BusyUntil() <= progEnd {
		t.Fatalf("program did not stretch: %v vs %v", m.BusyUntil(), progEnd)
	}
	if m.Pauses() != 1 {
		t.Fatalf("pauses = %d, want 1", m.Pauses())
	}
}

func TestWritePausingOffQueuesReads(t *testing.T) {
	m := testModule(t)
	d := programRow(t, m, 0, 0, bytes.Repeat([]byte{0x42}, 32))
	progEnd := m.BusyUntil()
	upper, lower := m.Geometry().SplitRow(16)
	d2, _ := m.Preactive(d+sim.Microseconds(2), 0, upper)
	d3, err := m.Activate(d2, 0, lower)
	if err != nil {
		t.Fatal(err)
	}
	if d3 < progEnd {
		t.Fatalf("read at %v overtook the program ending %v without pausing", d3, progEnd)
	}
	if m.Pauses() != 0 {
		t.Fatal("pauses counted while disabled")
	}
}

func TestWritePausingPreservesData(t *testing.T) {
	m := testModule(t)
	m.EnableWritePausing(true)
	want := bytes.Repeat([]byte{0x99}, 32)
	d := programRow(t, m, 0, 0, want)
	// Interrupt with a read of the same partition.
	upper, lower := m.Geometry().SplitRow(16)
	d2, _ := m.Preactive(d+sim.Microseconds(1), 1, upper)
	if _, err := m.Activate(d2, 1, lower); err != nil {
		t.Fatal(err)
	}
	got, _ := readRow(t, m, m.BusyUntil(), 0)
	if !bytes.Equal(got, want) {
		t.Fatal("paused program lost its data")
	}
}
