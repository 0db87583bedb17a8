package pram

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"dramless/internal/lpddr"
	"dramless/internal/sim"
)

// poolTraffic runs a fixed mix on m - a load, fresh and overwriting
// programs, a background pre-erase, and reads of rows that share a
// segment with written ones but were never written themselves - and
// returns a transcript of every completion time, every watched row's
// data, cell state and last program end, and the activity counters.
// Each segment touched here takes its slabs on first write, so a pooled
// slab that kept its last user's bytes, states or stamps shows up in
// the transcript.
func poolTraffic(m *Module, fill byte) ([]string, error) {
	var log []string
	note := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
	row := bytes.Repeat([]byte{fill}, m.geo.RowBytes)
	watched := []uint64{0, 1, 2, 3, 4, segRows + 5, segRows + 6, 3*segRows + 9}

	if err := m.LoadRow(1, row); err != nil {
		return nil, err
	}
	done, err := m.ProgramRow(0, 1, 3, row) // fresh cells beside a loaded row
	if err != nil {
		return nil, err
	}
	note("program fresh row 3: %v", done)
	if done, err = m.ProgramRow(done, 1, 1, row); err != nil { // overwrite
		return nil, err
	}
	note("program loaded row 1: %v", done)
	// A pre-erase waits for the row's last program: it reads the stamps.
	if err := m.PreEraseBackground(done, 3, true); err != nil {
		return nil, err
	}
	note("pre-erase row 3: busy until %v", m.BusyUntil())
	if done, err = m.ProgramRow(m.BusyUntil(), 1, segRows+5, row); err != nil {
		return nil, err
	}
	note("program row %d: %v", segRows+5, done)
	for _, r := range []uint64{2, 4, segRows + 6} {
		data, d := readRowQuiet(m, done, r)
		note("read row %d: %x at %v", r, data, d)
		done = d
	}
	for _, r := range watched {
		note("row %d: %x state %v last program %v", r, m.PeekRow(r), wordState(m, r*uint64(m.geo.RowBytes)), m.LastProgramEnd(r))
	}
	note("stats %+v", m.Stats())
	return log, nil
}

// usePools runs heavier traffic on a module of its own - every row of
// ten segments loaded, programmed and activated - then releases it, so
// the pools hold more slabs and a longer entry table than poolTraffic
// takes.
func usePools(t *testing.T) {
	t.Helper()
	m := testModule(t)
	row := bytes.Repeat([]byte{0xc3}, m.geo.RowBytes)
	for r := uint64(0); r < 10*segRows; r += 7 {
		if err := m.LoadRow(r, row); err != nil {
			t.Fatal(err)
		}
		if _, err := m.ProgramRow(m.ProgBufFreeAt(), 1, r+1, row); err != nil {
			t.Fatal(err)
		}
		readRowQuiet(m, m.BusyUntil(), r+2)
	}
	m.Release()
}

// drain empties a list, returning what it held.
func drain[K comparable, V any](k K, get func(K) (V, bool)) []V {
	var out []V
	for {
		v, ok := get(k)
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

// drainPools empties every slab pool of the package.
func drainPools(geo Geometry) {
	drain(geo, contentPool.Get)
	drain(struct{}{}, stampPool.Get)
	drain(struct{}{}, entPool.Get)
}

// scribblePools overwrites every pooled content slab, stamps slab and
// entry table with garbage: programmed cells reading 0xee, written rows,
// stamps far in the future, and entry tables full of entries pointing at
// those slabs. It returns how many slabs of each kind and entry tables it
// scribbled.
func scribblePools(geo Geometry) (nConts, nStamps, nEnts int) {
	conts := drain(geo, contentPool.Get)
	for _, c := range conts {
		for i := range c.data {
			c.data[i] = 0xee
		}
		for i := range c.state {
			c.state[i] = lpddr.CellProgrammed
		}
		for i := range c.written {
			c.written[i] = true
		}
	}
	stamps := drain(struct{}{}, stampPool.Get)
	for _, ts := range stamps {
		for i := range ts.lastProg {
			ts.lastProg[i], ts.lastRead[i] = sim.Time(1)<<60, sim.Time(1)<<60
		}
	}
	ents := drain(struct{}{}, entPool.Get)
	for _, e := range ents {
		e = e[:cap(e)]
		for i := range e {
			e[i] = rowSeg{}
			if len(conts) > 0 {
				e[i].content = conts[i%len(conts)]
			}
			if len(stamps) > 0 {
				e[i].stamps = stamps[i%len(stamps)]
			}
		}
	}
	contentPool.Put(geo, conts...)
	stampPool.Put(struct{}{}, stamps...)
	entPool.Put(struct{}{}, ents...)
	return len(conts), len(stamps), len(ents)
}

// referenceTraffic is poolTraffic's transcript on a module built on
// empty pools.
func referenceTraffic(t *testing.T, fill byte) []string {
	t.Helper()
	m := testModule(t)
	drainPools(m.geo)
	want, err := poolTraffic(m, fill)
	if err != nil {
		t.Fatal(err)
	}
	drainPools(m.geo)
	return want
}

func diffTranscripts(got, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("transcript has %d lines, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("line %d:\n  got  %s\n  want %s", i, got[i], want[i])
		}
	}
	return nil
}

// TestPooledSlabsStartClean pins the pools' hygiene contract: a module
// built after another was released, on pools whose every slab and entry
// table holds garbage, reads, times and counts exactly like a module
// built on empty pools.
func TestPooledSlabsStartClean(t *testing.T) {
	want := referenceTraffic(t, 0x5a)
	usePools(t)
	m := testModule(t)
	if c, s, e := scribblePools(m.geo); c < 3 || s < 3 || e < 1 {
		t.Fatalf("released module left %d content slabs, %d stamps slabs and %d entry tables pooled; want at least 3, 3 and 1", c, s, e)
	}
	got, err := poolTraffic(m, 0x5a)
	if err != nil {
		t.Fatal(err)
	}
	if err := diffTranscripts(got, want); err != nil {
		t.Fatalf("module on reused pools: %v", err)
	}
	m.Release()
}

// TestPoolsConcurrentUse runs the traffic in 8 modules at once, as
// concurrent experiment workers do, each releasing its module and
// scribbling the pools before the next round; under the race detector
// this pins that the pools never hand one slab to two live modules.
func TestPoolsConcurrentUse(t *testing.T) {
	geo := testModule(t).geo
	want := [2][]string{referenceTraffic(t, 0x11), referenceTraffic(t, 0x22)}
	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				m := MustNewModule(geo, lpddr.Default())
				got, err := poolTraffic(m, byte(0x11*(1+i%2)))
				if err == nil {
					err = diffTranscripts(got, want[i%2])
				}
				if err != nil {
					errs[i] = fmt.Errorf("round %d: %w", round, err)
					return
				}
				m.Release()
				scribblePools(geo)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
}

// TestWarmPoolsReuseSegments pins what the pools are for: once they are
// warm, a module that loads rows into several segments and is released
// again takes every content slab and its entry table from the pools
// instead of allocating. A regression here silently turns every run's
// populate back into a full slab re-allocation.
func TestWarmPoolsReuseSegments(t *testing.T) {
	m := testModule(t)
	row := bytes.Repeat([]byte{0x42}, m.geo.RowBytes)
	cycle := func() {
		for r := uint64(0); r < 4; r++ {
			if err := m.LoadRow(r*segRows+r, row); err != nil {
				t.Fatal(err)
			}
		}
		m.Release()
	}
	cycle() // warm-up: the first cycle fills the pools
	if allocs := testing.AllocsPerRun(20, cycle); allocs > 0 {
		t.Fatalf("a load/release cycle allocated %.1f objects with warm pools; want 0", allocs)
	}
	if got := m.PeekRow(3*segRows + 3); !bytes.Equal(got, make([]byte, len(row))) {
		t.Fatalf("released module still reads row %d as %x", 3*segRows+3, got)
	}
}
