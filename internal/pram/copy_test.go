package pram

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"unsafe"

	"dramless/internal/lpddr"
	"dramless/internal/sim"
)

// TestCopyFromReusesSegments pins the checkpoint-fork allocation
// contract: once the segment pool is warm, cloning a module's array
// contents draws every row segment from the pool instead of allocating.
// The experiment engine forks hundreds of cells per suite run; a
// regression here silently turns every fork back into a full slab
// re-allocation.
func TestCopyFromReusesSegments(t *testing.T) {
	src := testModule(t)
	row := make([]byte, src.geo.RowBytes)
	for i := range row {
		row[i] = byte(i*7 + 1)
	}
	// Materialize several segments' worth of rows in the source.
	for r := uint64(0); r < 4; r++ {
		if err := src.LoadRow(r*segRows, row); err != nil {
			t.Fatal(err)
		}
	}

	dst := testModule(t)
	dst.CopyFrom(src) // warm-up: may allocate segments into the pool cycle

	allocs := testing.AllocsPerRun(20, func() {
		// Each cycle releases dst's segments to the pool and immediately
		// draws them back; steady state must not touch the heap.
		dst.CopyFrom(src)
	})
	if allocs > 0 {
		t.Fatalf("CopyFrom allocated %.1f objects/run with a warm segment pool; want 0", allocs)
	}

	got, _ := readRow(t, dst, 0, 3*segRows)
	if !bytes.Equal(got, row) {
		t.Fatal("CopyFrom did not preserve row contents")
	}
}

// The fork-sharing fixture: a template with loaded, programmed and
// activated rows, and the rows every fork's traffic touches. progRow
// sits in a loaded but never stamped segment, eraseRow is a row the
// template programmed (so its stamps come from the template), actRow an
// activated row of the same segment. keptRow, also programmed by the
// template, is one no fork touches: its stamp must survive the fork's
// first stamp in that segment. The third segment, holding borrowRow, no
// fork writes at all: forks only ever borrow its slabs.
const (
	progRow   = segRows + 44
	eraseRow  = 5
	actRow    = 10
	keptRow   = 7
	borrowRow = 2*segRows + 3
)

var watchedRows = []uint64{progRow, eraseRow, actRow, keptRow, borrowRow, 0, segRows}

func forkTemplate(t *testing.T) *Module {
	t.Helper()
	m := testModule(t)
	row := make([]byte, m.geo.RowBytes)
	for r := uint64(0); r < 3*segRows; r++ {
		for i := range row {
			row[i] = byte(r) ^ byte(i*3+1)
		}
		if err := m.LoadRow(r, row); err != nil {
			t.Fatal(err)
		}
	}
	done := programRow(t, m, 0, eraseRow, bytes.Repeat([]byte{0x5a}, len(row)))
	programRow(t, m, done, keptRow, bytes.Repeat([]byte{0x3c}, len(row)))
	programRow(t, m, done, borrowRow, bytes.Repeat([]byte{0x66}, len(row)))
	readRow(t, m, m.BusyUntil(), actRow)
	return m
}

// forkTraffic programs progRow with data, pre-erases eraseRow and
// activates actRow, returning the first error.
func forkTraffic(m *Module, data []byte) error {
	at := m.BusyUntil() + sim.Microsecond
	if _, err := m.ProgramRow(at, 1, progRow, data); err != nil {
		return err
	}
	if err := m.PreEraseBackground(at, eraseRow, false); err != nil {
		return err
	}
	upper, lower := m.geo.SplitRow(actRow)
	done, err := m.Preactive(m.BusyUntil(), 0, upper)
	if err != nil {
		return err
	}
	_, err = m.Activate(done, 0, lower)
	return err
}

// checkFork reports how m's view of the watched rows departs from
// forkTraffic(m, data) applied on top of the template view tmpl.
func checkFork(m *Module, tmpl moduleView, data []byte) error {
	got := viewOf(m)
	for i, r := range watchedRows {
		want := tmpl.rows[i]
		switch r {
		case progRow:
			want.data, want.state = data, lpddr.CellProgrammed
		case eraseRow:
			want.data, want.state = make([]byte, len(data)), lpddr.CellErased
		}
		g := got.rows[i]
		if !bytes.Equal(g.data, want.data) || g.state != want.state {
			return fmt.Errorf("row %d reads %x (%v), want %x (%v)", r, g.data, g.state, want.data, want.state)
		}
		changed := r == progRow || r == eraseRow
		if (g.progEnd != want.progEnd) != changed || (changed && g.progEnd <= want.progEnd) {
			return fmt.Errorf("row %d last program end %v, template's %v", r, g.progEnd, want.progEnd)
		}
	}
	if s, idx := m.peek(actRow); s.lastRead(idx) <= tmpl.actRead {
		return fmt.Errorf("activation of row %d left last read at %v", actRow, s.lastRead(idx))
	}
	return nil
}

type rowView struct {
	data    []byte
	state   lpddr.CellState
	progEnd sim.Time
}

type moduleView struct {
	rows    []rowView
	actRead sim.Time
}

// viewOf reads the watched rows through the public accessors, plus the
// activated row's last read.
func viewOf(m *Module) moduleView {
	var v moduleView
	for _, r := range watchedRows {
		addr := r * uint64(m.geo.RowBytes)
		v.rows = append(v.rows, rowView{m.PeekRow(r), wordState(m, addr), m.LastProgramEnd(r)})
	}
	s, idx := m.peek(actRow)
	v.actRead = s.lastRead(idx)
	return v
}

func sameView(a, b moduleView) bool {
	for i := range a.rows {
		if !bytes.Equal(a.rows[i].data, b.rows[i].data) || a.rows[i].state != b.rows[i].state ||
			a.rows[i].progEnd != b.rows[i].progEnd {
			return false
		}
	}
	return a.actRead == b.actRead
}

// scribble makes m take a slab of each kind for every segment it can
// address - more than the pools hold - and overwrite every byte, so a
// slab released while some other module still reads it shows up as
// corrupted contents there.
func scribble(m *Module) {
	for r := uint64(0); r < m.geo.RowsPerModule; r += segRows {
		s, _ := m.seg(r)
		c := s.writableContent(m.geo)
		for i := range c.data {
			c.data[i] = 0xee
		}
		for i := range c.state {
			c.state[i] = lpddr.CellProgrammed
		}
		for i := range c.written {
			c.written[i] = true
		}
		ts := s.writableStamps()
		for i := range ts.lastProg {
			ts.lastProg[i], ts.lastRead[i] = sim.Time(1)<<60, sim.Time(1)<<60
		}
	}
}

// TestForksShareTemplateContent pins the copy-on-write contract of
// CopyFrom: forks borrow the template's slabs, yet writes in one fork
// reach neither the template nor a sibling fork, and releasing a fork
// pools only the slabs it owns.
func TestForksShareTemplateContent(t *testing.T) {
	tmpl := forkTemplate(t)
	before := viewOf(tmpl)
	forks := [2]*Module{testModule(t), testModule(t)}
	data := [2][]byte{bytes.Repeat([]byte{0xa1}, 32), bytes.Repeat([]byte{0xb2}, 32)}
	for i, f := range forks {
		f.CopyFrom(tmpl)
		if !sameView(viewOf(f), before) {
			t.Fatalf("fork %d does not read the template's rows", i)
		}
	}
	for i, f := range forks {
		if err := forkTraffic(f, data[i]); err != nil {
			t.Fatalf("fork %d: %v", i, err)
		}
	}
	check := func(when string, live ...int) {
		t.Helper()
		if !sameView(viewOf(tmpl), before) {
			t.Fatalf("%s: the template's rows changed", when)
		}
		for _, i := range live {
			if err := checkFork(forks[i], before, data[i]); err != nil {
				t.Fatalf("%s: fork %d: %v", when, i, err)
			}
		}
	}
	check("after both forks' traffic", 0, 1)

	forks[1].Release()
	scribble(testModule(t))
	check("after releasing fork 1 and reusing its slabs", 0)
}

// TestForksShareTemplateContentConcurrently runs the same traffic in 8
// forks of one template at once, as the experiment engine's workers do;
// under the race detector this pins that forks never write a slab they
// share.
func TestForksShareTemplateContentConcurrently(t *testing.T) {
	tmpl := forkTemplate(t)
	before := viewOf(tmpl)
	const forks = 8
	var wg sync.WaitGroup
	errs := make([]error, forks)
	for i := 0; i < forks; i++ {
		f := testModule(t)
		wg.Add(1)
		go func(i int, f *Module) {
			defer wg.Done()
			data := bytes.Repeat([]byte{byte(i + 1)}, 32)
			f.CopyFrom(tmpl)
			if errs[i] = forkTraffic(f, data); errs[i] == nil {
				errs[i] = checkFork(f, before, data)
			}
			f.Release()
			scribble(f)
			f.Release()
		}(i, f)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("fork %d: %v", i, err)
		}
	}
	if !sameView(viewOf(tmpl), before) {
		t.Fatal("the template's rows changed")
	}
}

// BenchmarkModuleFork forks a module populated like one arena-1m
// checkpoint template module - 10 loaded segments, 2 of them stamped -
// and programs 16 rows in each of 3 (30%) of those segments, the
// copy-on-write path of a forked cell. copied-B/op is the size of the
// slabs the fork had to take privately.
func BenchmarkModuleFork(b *testing.B) {
	geo := DefaultGeometry()
	tmpl := MustNewModule(geo, lpddr.Default())
	row := bytes.Repeat([]byte{0x77}, geo.RowBytes)
	for r := uint64(0); r < 10*segRows; r++ {
		if err := tmpl.LoadRow(r, row); err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range []uint64{0, 5 * segRows} {
		if _, err := tmpl.ProgramRow(tmpl.BusyUntil(), 1, r, row); err != nil {
			b.Fatal(err)
		}
	}
	fork := MustNewModule(geo, lpddr.Default())
	var copied int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fork.CopyFrom(tmpl)
		for seg := uint64(0); seg < 3; seg++ {
			for r := uint64(0); r < 16; r++ {
				if _, err := fork.ProgramRow(fork.ProgBufFreeAt(), 1, seg*segRows+r*7, row); err != nil {
					b.Fatal(err)
				}
			}
		}
		copied += ownedBytes(fork)
	}
	b.ReportMetric(float64(copied)/float64(b.N), "copied-B/op")
}

// ownedBytes is the size of the slabs m owns rather than borrows.
func ownedBytes(m *Module) int {
	n := 0
	for _, s := range m.ents {
		if s.ownsCont {
			n += len(s.content.data) + len(s.content.state) + len(s.content.written)
		}
		if s.ownsStamp {
			n += int(unsafe.Sizeof(*s.stamps))
		}
	}
	return n
}
