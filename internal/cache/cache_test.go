package cache

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"dramless/internal/mem"
	"dramless/internal/sim"
)

func flat() *mem.Flat {
	// 1 MiB lower memory, 100 ns latency, 1 GB/s.
	return mem.NewFlat("lower", 1<<20, sim.Nanoseconds(100), 1e9)
}

func small(t *testing.T, lower mem.Device) *Cache {
	t.Helper()
	cfg := Config{Name: "T", SizeBytes: 4096, LineBytes: 64, Ways: 2, HitLatency: sim.Nanoseconds(1)}
	c, err := New(cfg, lower)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	if err := L1Data().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := L2().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Name: "a", SizeBytes: 0, LineBytes: 64, Ways: 2},
		{Name: "b", SizeBytes: 4096, LineBytes: 48, Ways: 2},
		{Name: "c", SizeBytes: 4000, LineBytes: 64, Ways: 2},
		{Name: "d", SizeBytes: 64 * 2 * 3, LineBytes: 64, Ways: 2}, // 3 sets
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %s accepted", cfg.Name)
		}
	}
	if _, err := New(L1Data(), nil); err == nil {
		t.Error("nil lower accepted")
	}
}

func TestReadMissThenHit(t *testing.T) {
	c := small(t, flat())
	_, d1, err := mem.Read(c, 0, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if d1 < sim.Nanoseconds(100) {
		t.Fatalf("miss completed in %v, faster than lower latency", d1)
	}
	start := d1
	_, d2, err := mem.Read(c, start, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := d2 - start; got != sim.Nanoseconds(1) {
		t.Fatalf("hit latency = %v, want 1ns", got)
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestWriteBackOnEviction(t *testing.T) {
	lower := flat()
	c := small(t, lower)
	// Dirty a line, then evict it by touching two more lines in the same
	// set (2 ways). Set stride = 4096/2 = 2048... sets = 4096/(64*2)=32,
	// so addresses 0, 32*64=2048, 4096 share set 0.
	if _, err := c.Write(0, 0, bytes.Repeat([]byte{0xAA}, 64)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := mem.Read(c, 0, 2048, 8); err != nil {
		t.Fatal(err)
	}
	if _, _, err := mem.Read(c, 0, 4096, 8); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", s.Writebacks)
	}
	// The lower level must now hold the dirty data.
	data, _, err := mem.Read(lower, 0, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != 0xAA || data[63] != 0xAA {
		t.Fatalf("lower data = %x...", data[:4])
	}
}

func TestLRUVictimSelection(t *testing.T) {
	c := small(t, flat())
	// Fill both ways of set 0 (addrs 0 and 2048), touch 0 again so 2048
	// is LRU, then map in 4096: 2048 must be evicted, 0 must survive as
	// a hit.
	mem.Read(c, 0, 0, 4)
	mem.Read(c, 0, 2048, 4)
	mem.Read(c, 0, 0, 4)
	mem.Read(c, 0, 4096, 4)
	before := c.Stats().Hits
	mem.Read(c, 0, 0, 4)
	if c.Stats().Hits != before+1 {
		t.Fatal("LRU evicted the recently used line")
	}
}

func TestFlushWritesDirtyLines(t *testing.T) {
	lower := flat()
	c := small(t, lower)
	payload := bytes.Repeat([]byte{0x5C}, 64)
	if _, err := c.Write(0, 128, payload); err != nil {
		t.Fatal(err)
	}
	done, err := c.Flush(sim.Microseconds(1))
	if err != nil {
		t.Fatal(err)
	}
	if done <= sim.Microseconds(1) {
		t.Fatal("flush of dirty data took no time")
	}
	data, _, _ := mem.Read(lower, done, 128, 64)
	if !bytes.Equal(data, payload) {
		t.Fatal("flush did not reach lower level")
	}
	// After flush everything is invalid: next read misses.
	m := c.Stats().Misses
	mem.Read(c, done, 128, 4)
	if c.Stats().Misses != m+1 {
		t.Fatal("read after flush did not miss")
	}
}

func TestPartialLineWriteMerges(t *testing.T) {
	lower := flat()
	if _, err := lower.Write(0, 0, bytes.Repeat([]byte{0x11}, 64)); err != nil {
		t.Fatal(err)
	}
	c := small(t, lower)
	if _, err := c.Write(0, 4, []byte{0xFF, 0xFE}); err != nil {
		t.Fatal(err)
	}
	got, _, err := mem.Read(c, 0, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{0x11, 0x11, 0x11, 0x11, 0xFF, 0xFE, 0x11, 0x11}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %x, want %x", got, want)
	}
}

func TestCrossLineAccess(t *testing.T) {
	c := small(t, flat())
	payload := bytes.Repeat([]byte{7}, 100) // spans two 64 B lines
	if _, err := c.Write(0, 60, payload); err != nil {
		t.Fatal(err)
	}
	got, _, err := mem.Read(c, 0, 60, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("cross-line round trip failed")
	}
}

func TestStackedCaches(t *testing.T) {
	lower := flat()
	l2 := MustNew(L2(), lower)
	l1 := MustNew(L1Data(), l2)
	payload := []byte("through two levels")
	if _, err := l1.Write(0, 777, payload); err != nil {
		t.Fatal(err)
	}
	got, _, err := mem.Read(l1, 0, 777, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("stacked round trip failed")
	}
	if l2.Stats().Misses == 0 {
		t.Fatal("L2 never accessed")
	}
	// Flush both levels; the data must land in the flat memory.
	d, err := l1.Flush(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l2.Flush(d); err != nil {
		t.Fatal(err)
	}
	data, _, _ := mem.Read(lower, 0, 777, len(payload))
	if !bytes.Equal(data, payload) {
		t.Fatal("flush chain did not reach memory")
	}
}

func TestHitRate(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Fatal("idle hit rate not 0")
	}
	s.Hits, s.Misses = 3, 1
	if s.HitRate() != 0.75 {
		t.Fatalf("hit rate = %v", s.HitRate())
	}
}

func TestOutOfRangeRejected(t *testing.T) {
	c := small(t, flat())
	if _, _, err := mem.Read(c, 0, c.Size(), 1); err == nil {
		t.Error("read past end accepted")
	}
	if _, err := c.Write(0, c.Size()-1, []byte{1, 2}); err == nil {
		t.Error("write past end accepted")
	}
}

// Property: cache+lower always equals a shadow buffer under random
// read/write/flush sequences.
func TestCacheCoherenceProperty(t *testing.T) {
	lower := flat()
	c := small(t, lower)
	shadow := make([]byte, 1<<16)
	now := sim.Time(0)
	f := func(off uint16, n uint8, fill byte, action uint8) bool {
		addr := uint64(off)
		size := int(n)%128 + 1
		if addr+uint64(size) > uint64(len(shadow)) {
			size = len(shadow) - int(addr)
		}
		switch action % 5 {
		case 0, 1: // write
			data := bytes.Repeat([]byte{fill}, size)
			done, err := c.Write(now, addr, data)
			if err != nil {
				return false
			}
			copy(shadow[addr:], data)
			now = done
		case 2: // flush
			done, err := c.Flush(now)
			if err != nil {
				return false
			}
			now = done
		default: // read
			got, done, err := mem.Read(c, now, addr, size)
			if err != nil {
				return false
			}
			now = done
			if !bytes.Equal(got, shadow[addr:addr+uint64(size)]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestReleasedStorageIsReusedClean pins the storage free list: a
// construction of the same shape takes the storage the last Release
// returned, and none of the released cache's resident or dirty lines
// survive into the new cache.
func TestReleasedStorageIsReusedClean(t *testing.T) {
	lowerA := flat()
	a := small(t, lowerA)
	if _, err := a.Write(0, 0, bytes.Repeat([]byte{0xEE}, 256)); err != nil {
		t.Fatal(err)
	}
	slab := &a.slab[0]
	a.Release()

	lowerB := flat()
	b := small(t, lowerB)
	defer b.Release()
	if &b.slab[0] != slab {
		t.Fatal("a same-shape cache did not reuse the released storage")
	}
	got, _, err := mem.Read(b, 0, 0, 256)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 256)) {
		t.Fatalf("reused cache served stale lines: %x", got[:16])
	}
	if s := b.Stats(); s.Hits != 0 || s.Misses != 4 {
		t.Fatalf("reused cache stats = %+v, want 4 cold misses", s)
	}
	done, err := b.Flush(0)
	if err != nil {
		t.Fatal(err)
	}
	if done != 0 || b.Stats().Writebacks != 0 {
		t.Fatal("reused cache wrote back the released cache's dirty lines")
	}
}

// TestStoragePoolConcurrentUse draws, exercises and releases caches of
// one shape from several goroutines at once, as the experiment engine's
// workers do; run under the race detector by make race-sim.
func TestStoragePoolConcurrentUse(t *testing.T) {
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				cfg := Config{Name: "T", SizeBytes: 4096, LineBytes: 64, Ways: 2, HitLatency: sim.Nanoseconds(1)}
				c, err := New(cfg, flat())
				if err != nil {
					errs <- err
					return
				}
				want := bytes.Repeat([]byte{byte(g*50 + i)}, 200)
				if _, err := c.Write(0, 64, want); err != nil {
					errs <- err
					return
				}
				got, _, err := mem.Read(c, 0, 64, len(want))
				if err != nil || !bytes.Equal(got, want) {
					errs <- fmt.Errorf("goroutine %d pass %d: read back %v, %x", g, i, err, got[:4])
					return
				}
				c.Release()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
