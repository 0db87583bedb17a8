package memctrl

import (
	"fmt"
	"maps"
	"sync"
	"testing"

	"dramless/internal/sim"
)

// wearForkConfig is a wear-aware subsystem whose leveler moves the gap
// every 4 programs in a 64-row region, so a few writes reach a gap move.
func wearForkConfig(t *testing.T) Config {
	t.Helper()
	p, err := PolicyByName("wear-aware")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(p)
	cfg.Wear = WearConfig{Enabled: true, GapWritePeriod: 4, RegionRows: 64}
	return cfg
}

// wearTraffic programs each logical row of rows once, in order, each
// write issued once the previous one has drained.
func wearTraffic(s *Subsystem, rows ...uint64) error {
	buf := make([]byte, s.rowBytes)
	now := s.Drain()
	for _, r := range rows {
		buf[0] = byte(r)
		done, err := s.Write(now, r*s.rowBytes, buf)
		if err != nil {
			return err
		}
		now = sim.Max(done, s.Drain())
	}
	return nil
}

// tmplRows is the template's traffic: four programs in region 0 (one gap
// move there) and two rows of a second count slab.
var tmplRows = []uint64{3, 3, 3, 3, 600, 601}

// forkRows is fork i's traffic: four more programs in region 0 (another
// gap move, in a slab the template already counts in) and a row of a
// slab of its own.
func forkRows(i int) []uint64 { return []uint64{3, 5, 7, 9, 2000 + 700*uint64(i)} }

// wearCounts flattens s's per-row program counts.
func wearCounts(s *Subsystem) map[uint64]int64 {
	out := map[uint64]int64{}
	for id, e := range s.wear.slabs {
		for j, c := range e.counts {
			if c != 0 {
				out[id<<wearSlabBits+uint64(j)] = c
			}
		}
	}
	return out
}

// wearView is what a fork must reproduce: the stats and every row count.
type wearView struct {
	stats  WearStats
	counts map[uint64]int64
}

func viewWear(s *Subsystem) wearView { return wearView{s.WearStats(), wearCounts(s)} }

// diff describes how v departs from want; empty when they are equal.
func (v wearView) diff(want wearView) string {
	if v.stats == want.stats && maps.Equal(v.counts, want.counts) {
		return ""
	}
	return fmt.Sprintf("%+v over %d counted rows, want %+v over %d", v.stats, len(v.counts), want.stats, len(want.counts))
}

// coldWear replays the template's and then fork i's traffic on one fresh
// subsystem: the counts fork i must hold.
func coldWear(cfg Config, i int) (wearView, error) {
	s, err := New(cfg)
	if err != nil {
		return wearView{}, err
	}
	if err := wearTraffic(s, tmplRows...); err != nil {
		return wearView{}, err
	}
	if err := wearTraffic(s, forkRows(i)...); err != nil {
		return wearView{}, err
	}
	return viewWear(s), nil
}

// checkWearFork reports how fork i departs from its cold replay, or from
// borrowing the template's slab that its traffic never touches.
func checkWearFork(f, tmpl *Subsystem, want wearView) error {
	if d := viewWear(f).diff(want); d != "" {
		return fmt.Errorf("wear counts differ from the cold replay: %s", d)
	}
	if f.wear.moves <= tmpl.wear.moves {
		return fmt.Errorf("no gap move after the fork (%d moves)", f.wear.moves)
	}
	id := tmpl.wear.mapRow(600) >> wearSlabBits
	if e := f.wear.slabs[id]; e.owned || e.counts != tmpl.wear.slabs[id].counts {
		return fmt.Errorf("slab %d, untouched by the fork, is not borrowed from the template", id)
	}
	return nil
}

// scribbleWearPool fills every pooled wear slab with garbage, so a slab
// released while another leveler still reads it shows up as wrong counts.
func scribbleWearPool() {
	var got []*wearSlab
	for {
		c, ok := wearSlabPool.Get(struct{}{})
		if !ok {
			break
		}
		for i := range c {
			c[i] = 1 << 40
		}
		got = append(got, c)
	}
	wearSlabPool.Put(struct{}{}, got...)
}

func wearTemplate(t *testing.T, cfg Config) (*Subsystem, wearView) {
	t.Helper()
	tmpl := MustNew(cfg)
	if err := wearTraffic(tmpl, tmplRows...); err != nil {
		t.Fatal(err)
	}
	if tmpl.wear.moves == 0 {
		t.Fatal("the template's traffic made no gap move")
	}
	return tmpl, viewWear(tmpl)
}

// TestForksShareWearCounts pins the copy-on-write contract of the wear
// counts: forks borrow the template's count slabs, yet programs and gap
// moves in one fork reach neither the template nor a sibling fork, also
// once a released fork's slabs are reused.
func TestForksShareWearCounts(t *testing.T) {
	cfg := wearForkConfig(t)
	tmpl, before := wearTemplate(t, cfg)
	var forks [2]*Subsystem
	var want [2]wearView
	for i := range forks {
		forks[i] = MustNew(cfg)
		forks[i].CopyFrom(tmpl)
		if d := viewWear(forks[i]).diff(before); d != "" {
			t.Fatalf("fork %d does not read the template's counts: %s", i, d)
		}
		var err error
		if want[i], err = coldWear(cfg, i); err != nil {
			t.Fatal(err)
		}
	}
	for i, f := range forks {
		if err := wearTraffic(f, forkRows(i)...); err != nil {
			t.Fatalf("fork %d: %v", i, err)
		}
	}
	check := func(when string, live ...int) {
		t.Helper()
		if d := viewWear(tmpl).diff(before); d != "" {
			t.Fatalf("%s: the template's counts changed: %s", when, d)
		}
		for _, i := range live {
			if err := checkWearFork(forks[i], tmpl, want[i]); err != nil {
				t.Fatalf("%s: fork %d: %v", when, i, err)
			}
		}
	}
	check("after both forks' traffic", 0, 1)

	forks[1].Release()
	scribbleWearPool()
	check("after releasing fork 1 and reusing its slabs", 0)
}

// TestForksShareWearCountsConcurrently runs fork traffic in 8 forks of
// one template at once, as the experiment engine's workers do; under the
// race detector this pins that forks never write a count slab they
// share.
func TestForksShareWearCountsConcurrently(t *testing.T) {
	cfg := wearForkConfig(t)
	tmpl, before := wearTemplate(t, cfg)
	const forks = 8
	var wg sync.WaitGroup
	errs := make([]error, forks)
	for i := 0; i < forks; i++ {
		f := MustNew(cfg)
		wg.Add(1)
		go func(i int, f *Subsystem) {
			defer wg.Done()
			want, err := coldWear(cfg, i)
			if err != nil {
				errs[i] = err
				return
			}
			f.CopyFrom(tmpl)
			if errs[i] = wearTraffic(f, forkRows(i)...); errs[i] == nil {
				errs[i] = checkWearFork(f, tmpl, want)
			}
			f.Release()
			scribbleWearPool()
		}(i, f)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("fork %d: %v", i, err)
		}
	}
	if d := viewWear(tmpl).diff(before); d != "" {
		t.Fatalf("the template's counts changed: %s", d)
	}
}
