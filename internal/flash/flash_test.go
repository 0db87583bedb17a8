package flash

import (
	"bytes"
	"testing"
	"testing/quick"

	"dramless/internal/sim"
)

func smallArray(t *testing.T) *Array {
	t.Helper()
	p := SLC()
	p.PageBytes = 1024
	p.PagesPerBlock = 4
	p.Dies = 2
	a, err := NewArray(p, 64)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestProfileValidation(t *testing.T) {
	bad := []Profile{
		{Name: "a", PageBytes: 0, PagesPerBlock: 4, Dies: 1, ChannelBW: 1, ReadPage: 1, ProgramPage: 1},
		{Name: "b", PageBytes: 16, PagesPerBlock: 4, Dies: 0, ChannelBW: 1, ReadPage: 1, ProgramPage: 1},
		{Name: "c", PageBytes: 16, PagesPerBlock: 4, Dies: 1, ChannelBW: 0, ReadPage: 1, ProgramPage: 1},
		{Name: "d", PageBytes: 16, PagesPerBlock: 4, Dies: 1, ChannelBW: 1},                // no page latencies
		{Name: "e", PageBytes: 16, PagesPerBlock: 4, Dies: 1, ChannelBW: 1, ChunkBytes: 4}, // no chunk latencies
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("profile %s accepted", p.Name)
		}
	}
	if _, err := NewArray(SLC(), 0); err == nil {
		t.Error("zero-page array accepted")
	}
}

// readPage reads one whole page of a into a fresh buffer.
func readPage(a *Array, at sim.Time, page uint64) ([]byte, sim.Time, error) {
	data := make([]byte, a.prof.PageBytes)
	done, err := a.ReadPageInto(at, page, data)
	return data, done, err
}

func TestArrayProgramRead(t *testing.T) {
	a := smallArray(t)
	data := bytes.Repeat([]byte{0xC3}, 1024)
	done, err := a.ProgramPage(0, 5, data)
	if err != nil {
		t.Fatal(err)
	}
	if done < sim.Microseconds(300) {
		t.Fatalf("program done at %v, want >= 300us SLC program", done)
	}
	got, _, err := readPage(a, done, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("page round trip failed")
	}
	st := a.Stats()
	if st.PagePrograms != 1 || st.PageReads != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestArrayDieParallelism(t *testing.T) {
	a := smallArray(t)
	// Pages 0 and 1 stripe onto different dies: their senses overlap and
	// only the channel serializes the transfers.
	_, d0, _ := readPage(a, 0, 0)
	_, d1, _ := readPage(a, 0, 1)
	// Serial senses would be >= 2x the 25 us page read.
	if d1-d0 >= sim.Microseconds(25) {
		t.Fatalf("dies serialized: %v then %v", d0, d1)
	}
	// Same die (pages 0 and 2) must serialize the sense.
	b := smallArray(t)
	_, e0, _ := readPage(b, 0, 0)
	_, e2, _ := readPage(b, 0, 2)
	if e2-e0 < sim.Microseconds(25) {
		t.Fatalf("same-die reads overlapped: %v then %v", e0, e2)
	}
}

func TestEraseBlockClearsPages(t *testing.T) {
	a := smallArray(t)
	for pg := uint64(4); pg < 8; pg++ { // block 1
		if _, err := a.ProgramPage(0, pg, bytes.Repeat([]byte{9}, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	done, err := a.EraseBlock(sim.Milliseconds(10), 5)
	if err != nil {
		t.Fatal(err)
	}
	if done < sim.Milliseconds(10)+sim.Microseconds(2000) {
		t.Fatalf("erase done at %v, want >= 2ms SLC erase", done)
	}
	got, _, _ := readPage(a, done, 5)
	for _, b := range got {
		if b != 0 {
			t.Fatal("erased page still holds data")
		}
	}
	// Neighbouring block untouched? Program page 0 (block 0) first.
	b2 := smallArray(t)
	b2.ProgramPage(0, 0, bytes.Repeat([]byte{7}, 1024))
	b2.EraseBlock(sim.Milliseconds(10), 5)
	got, _, _ = readPage(b2, sim.Milliseconds(100), 0)
	if got[0] != 7 {
		t.Fatal("erase leaked into another block")
	}
}

func TestArrayBoundsChecked(t *testing.T) {
	a := smallArray(t)
	if _, _, err := readPage(a, 0, 64); err == nil {
		t.Error("read past array accepted")
	}
	if _, err := a.ProgramPage(0, 64, nil); err == nil {
		t.Error("program past array accepted")
	}
	if _, err := a.ProgramPage(0, 0, make([]byte, 2048)); err == nil {
		t.Error("oversized program accepted")
	}
	if _, err := a.EraseBlock(0, 99); err == nil {
		t.Error("erase past array accepted")
	}
}

func TestChunkedMediaTiming(t *testing.T) {
	p := PRAMMedia()
	// 16 KiB / 256 B = 64 chunks.
	if got, want := p.PageRead(), 64*sim.Nanoseconds(100); got != want {
		t.Fatalf("chunked page read = %v, want %v", got, want)
	}
	if got, want := p.PageProgram(), 64*sim.Microseconds(18); got != want {
		t.Fatalf("chunked page program = %v, want %v", got, want)
	}
}

func TestPageBufferProfileSanity(t *testing.T) {
	p := PageBufferPRAM()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Dies != 1 {
		t.Fatal("PAGE-buffer page ops must not overlap (whole-subsystem ops)")
	}
	if p.EraseBlock != 0 {
		t.Fatal("PRAM page interface needs no erase")
	}
	if p.PageRead() >= SLC().PageRead() {
		t.Fatal("PAGE-buffer reads must beat flash")
	}
}

func TestNORDrainAndTraffic(t *testing.T) {
	n := NewNOR(1 << 16)
	if _, err := n.Write(0, 0, bytes.Repeat([]byte{1}, 64)); err != nil {
		t.Fatal(err)
	}
	if n.Drain() <= 0 {
		t.Fatal("drain at zero after a write")
	}
	r, w, rb, wb := n.Traffic()
	if r != 0 || w != 1 || rb != 0 || wb != 64 {
		t.Fatalf("traffic = %d %d %d %d", r, w, rb, wb)
	}
	if _, err := n.ReadInto(0, 1<<16, make([]byte, 1)); err == nil {
		t.Error("out-of-range NOR read accepted")
	}
}

// Property: array pages behave as independent 1 KiB cells under random
// program/erase sequences.
func TestArrayFunctionalProperty(t *testing.T) {
	a := smallArray(t)
	shadow := map[uint64][]byte{}
	now := sim.Time(0)
	f := func(pgSel uint8, fill byte, erase bool) bool {
		pg := uint64(pgSel) % 64
		if erase {
			done, err := a.EraseBlock(now, pg)
			if err != nil {
				return false
			}
			now = done
			base := pg - pg%4
			for p := base; p < base+4; p++ {
				delete(shadow, p)
			}
		} else {
			data := bytes.Repeat([]byte{fill}, 1024)
			done, err := a.ProgramPage(now, pg, data)
			if err != nil {
				return false
			}
			now = done
			shadow[pg] = data
		}
		got, done, err := readPage(a, now, pg)
		if err != nil {
			return false
		}
		now = done
		want, ok := shadow[pg]
		if !ok {
			want = make([]byte, 1024)
		}
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
