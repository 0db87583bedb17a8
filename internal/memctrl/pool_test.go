package memctrl

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"dramless/internal/sim"
)

// poolConfig is a wear-aware subsystem whose leveler moves the gap every
// 4 programs in a 64-row region, so a few writes reach a gap move.
func poolConfig(t *testing.T) Config {
	t.Helper()
	p, err := PolicyByName("wear-aware")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(p)
	cfg.Wear = WearConfig{Enabled: true, GapWritePeriod: 4, RegionRows: 64}
	return cfg
}

// poolTraffic boots s, writes rows (some repeatedly, so the leveler
// moves gaps), then reads them back through multi-row and scattered
// reads that batch across channels and modules. It returns a transcript
// of every completion time and read byte, the controller counters and
// the wear statistics, so stale batch or wave scratch, or a wear slab
// that kept its last user's counts, shows up in it.
func poolTraffic(s *Subsystem, fill byte) ([]string, error) {
	var log []string
	note := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
	now, err := s.Boot(0)
	if err != nil {
		return nil, err
	}
	buf := bytes.Repeat([]byte{fill}, int(s.rowBytes))
	for i, r := range []uint64{3, 3, 3, 3, 5, 7, 9, 600, 601, 2000} {
		buf[0] = byte(i)
		done, err := s.Write(now, r*s.rowBytes, buf)
		if err != nil {
			return nil, err
		}
		now = sim.Max(done, s.Drain())
		note("write row %d: %v", r, now)
	}
	dst := make([]byte, 16*s.rowBytes)
	done, err := s.ReadInto(now, 0, dst)
	if err != nil {
		return nil, err
	}
	note("read rows 0-15: %x at %v", dst, done)
	data, done, err := s.ReadScatter(done, []uint64{600 * s.rowBytes, 9 * s.rowBytes, 2000 * s.rowBytes}, int(s.rowBytes))
	if err != nil {
		return nil, err
	}
	note("scatter read: %x at %v", data, done)
	note("drained at %v", s.Drain())
	note("stats %+v", s.Stats())
	note("wear %+v", s.WearStats())
	return log, nil
}

// drainList empties a list, returning what it held.
func drainList[V any](get func(struct{}) (V, bool)) []V {
	var out []V
	for {
		v, ok := get(struct{}{})
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

// drainPools empties the package's wear-slab and scratch pools. The
// PRAM row-store pools belong to package pram, whose own test pins them.
func drainPools() {
	drainList(wearSlabPool.Get)
	drainList(scratchPool.rows.Get)
	drainList(scratchPool.writes.Get)
	drainList(scratchPool.rWaves.Get)
	drainList(scratchPool.wWaves.Get)
}

// scribblePools overwrites every pooled wear slab and every pooled
// batch and wave table, to full capacity, with garbage, and returns how
// many wear slabs and wave tables it scribbled.
func scribblePools() (nSlabs, nWaves int) {
	slabs := drainList(wearSlabPool.Get)
	for _, c := range slabs {
		for i := range c {
			c[i] = 1 << 40
		}
	}
	junkRead := &rowReq{mod: 1 << 20, row: 1 << 40, col: -1}
	junkWrite := &writeReq{mod: 1 << 20, row: 1 << 40}
	rows := drainList(scratchPool.rows.Get)
	for _, b := range rows {
		b = b[:cap(b)]
		for i := range b {
			b[i] = *junkRead
		}
	}
	writes := drainList(scratchPool.writes.Get)
	for _, b := range writes {
		b = b[:cap(b)]
		for i := range b {
			b[i] = *junkWrite
		}
	}
	rWaves := drainList(scratchPool.rWaves.Get)
	for _, ws := range rWaves {
		ws = ws[:cap(ws)]
		for i := range ws {
			ws[i] = append(ws[i][:0], junkRead, junkRead)
		}
	}
	wWaves := drainList(scratchPool.wWaves.Get)
	for _, ws := range wWaves {
		ws = ws[:cap(ws)]
		for i := range ws {
			ws[i] = append(ws[i][:0], junkWrite, junkWrite)
		}
	}
	wearSlabPool.Put(struct{}{}, slabs...)
	scratchPool.rows.Put(struct{}{}, rows...)
	scratchPool.writes.Put(struct{}{}, writes...)
	scratchPool.rWaves.Put(struct{}{}, rWaves...)
	scratchPool.wWaves.Put(struct{}{}, wWaves...)
	return len(slabs), len(rWaves) + len(wWaves)
}

// usePools runs garbage traffic on a subsystem of its own and releases
// it, so the pools hold its wear slabs and grown scratch.
func usePools(t *testing.T, cfg Config) {
	t.Helper()
	s := MustNew(cfg)
	buf := bytes.Repeat([]byte{0xee}, int(s.rowBytes))
	now := s.Drain()
	for r := uint64(0); r < 4096; r += 3 {
		done, err := s.Write(now, r*s.rowBytes, buf)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	if _, err := s.ReadInto(s.Drain(), 0, make([]byte, 64*s.rowBytes)); err != nil {
		t.Fatal(err)
	}
	s.Release()
}

// referenceTraffic is poolTraffic's transcript on a subsystem built on
// empty pools.
func referenceTraffic(t *testing.T, cfg Config, fill byte) []string {
	t.Helper()
	drainPools()
	want, err := poolTraffic(MustNew(cfg), fill)
	if err != nil {
		t.Fatal(err)
	}
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

// TestPooledSlabsStartClean pins the pools' hygiene contract: a
// subsystem built after another was released, on pools whose every wear
// slab and batch/wave table holds garbage, reads, times and reports
// WearStats exactly like one built on empty pools.
func TestPooledSlabsStartClean(t *testing.T) {
	cfg := poolConfig(t)
	want := referenceTraffic(t, cfg, 0x5a)
	usePools(t, cfg)
	if slabs, waves := scribblePools(); slabs < 3 || waves < 2 {
		t.Fatalf("released subsystem left %d wear slabs and %d wave tables pooled; want at least 3 and 2", slabs, waves)
	}
	s := MustNew(cfg)
	got, err := poolTraffic(s, 0x5a)
	if err != nil {
		t.Fatal(err)
	}
	if err := diffTranscripts(got, want); err != nil {
		t.Fatalf("subsystem on reused pools: %v", err)
	}
	s.Release()
}

// TestPoolsConcurrentUse runs the traffic on 8 subsystems at once, as
// concurrent experiment workers do, each releasing its subsystem and
// scribbling the pools before the next round; under the race detector
// this pins that the pools never hand one slab or table to two live
// subsystems.
func TestPoolsConcurrentUse(t *testing.T) {
	cfg := poolConfig(t)
	want := [2][]string{referenceTraffic(t, cfg, 0x11), referenceTraffic(t, cfg, 0x22)}
	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				s := MustNew(cfg)
				got, err := poolTraffic(s, byte(0x11*(1+i%2)))
				if err == nil {
					err = diffTranscripts(got, want[i%2])
				}
				if err != nil {
					errs[i] = fmt.Errorf("round %d: %w", round, err)
					return
				}
				s.Release()
				scribblePools()
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
