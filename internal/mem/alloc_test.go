package mem_test

// Steady-state allocation regression tests: the cache-hit read path and
// the Flat and NOR device reads must allocate nothing, and mem.Read at
// most its one result buffer. These pins keep the zero-allocation
// datapath from regressing silently.

import (
	"testing"

	"dramless/internal/cache"
	"dramless/internal/flash"
	"dramless/internal/mem"
	"dramless/internal/sim"
)

// newCache builds a cache over lower or fails the test.
func newCache(t *testing.T, cfg cache.Config, lower mem.Device) *cache.Cache {
	t.Helper()
	c, err := cache.New(cfg, lower)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCacheHitReadIntoAllocationFree(t *testing.T) {
	flat := mem.NewFlat("lower", 1<<20, 100*sim.Nanosecond, 12.8e9)
	c := newCache(t, cache.L1Data(), flat)
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i)
	}
	if _, err := c.Write(0, 4096, payload); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 64)
	// Warm: the first read fills the line from below.
	if _, err := c.ReadInto(sim.Microsecond, 4096, dst); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := c.ReadInto(sim.Microsecond, 4096, dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("cache-hit ReadInto allocates %.1f objects per call, want 0", allocs)
	}
}

// TestCacheReadRunAllocationFree pins the coalesced fast path: servicing
// a whole run of resident lines through one ReadRun call must allocate
// nothing, like the scalar hit path it folds.
func TestCacheReadRunAllocationFree(t *testing.T) {
	flat := mem.NewFlat("lower", 1<<20, 100*sim.Nanosecond, 12.8e9)
	c := newCache(t, cache.L1Data(), flat)
	run := mem.Run{Addr: 4096, Stride: 32, Size: 32, Count: 64, Gap: 10 * sim.Nanosecond, Issue: sim.Nanosecond}
	dst := make([]byte, 32)
	// Warm scalar: misses over a non-Cache lower level stop a run, so
	// fill the lines one access at a time first.
	for i := 0; i < run.Count; i++ {
		addr := uint64(int64(run.Addr) + int64(i)*run.Stride)
		if _, err := c.ReadInto(0, addr, dst); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		res, err := c.ReadRun(sim.Microsecond, run, dst)
		if err != nil {
			t.Fatal(err)
		}
		if res.Done != run.Count {
			t.Fatalf("resident run completed %d/%d accesses", res.Done, run.Count)
		}
	})
	if allocs != 0 {
		t.Fatalf("resident-run ReadRun allocates %.1f objects per call, want 0", allocs)
	}
}

// TestCacheWriteRunAllocationFree is the store-side pin.
func TestCacheWriteRunAllocationFree(t *testing.T) {
	flat := mem.NewFlat("lower", 1<<20, 100*sim.Nanosecond, 12.8e9)
	c := newCache(t, cache.L1Data(), flat)
	run := mem.Run{Addr: 8192, Stride: 32, Size: 32, Count: 64, Gap: 10 * sim.Nanosecond, Issue: sim.Nanosecond}
	src := make([]byte, 32)
	for i := range src {
		src[i] = byte(i + 1)
	}
	for i := 0; i < run.Count; i++ {
		addr := uint64(int64(run.Addr) + int64(i)*run.Stride)
		if _, err := c.Write(0, addr, src); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		res, err := c.WriteRun(sim.Microsecond, run, src)
		if err != nil {
			t.Fatal(err)
		}
		if res.Done != run.Count {
			t.Fatalf("resident run completed %d/%d accesses", res.Done, run.Count)
		}
	})
	if allocs != 0 {
		t.Fatalf("resident-run WriteRun allocates %.1f objects per call, want 0", allocs)
	}
}

func TestFlatReadAllocationBound(t *testing.T) {
	flat := mem.NewFlat("flat", 1<<20, 100*sim.Nanosecond, 12.8e9)
	if _, err := flat.Write(0, 0, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 64)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := flat.ReadInto(0, 512, dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Flat.ReadInto allocates %.1f objects per call, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(200, func() {
		if _, _, err := mem.Read(flat, 0, 512, 64); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("mem.Read over Flat allocates %.1f objects per call, want <= 1", allocs)
	}
}

// TestNORReadIntoAllocationFree pins the NOR-intf miss path: every L2
// miss of that organization is one NOR read into the line's storage.
func TestNORReadIntoAllocationFree(t *testing.T) {
	nor := flash.NewNOR(1 << 20)
	if _, err := nor.Write(0, 0, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 128)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := nor.ReadInto(0, 512, dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("NOR.ReadInto allocates %.1f objects per call, want 0", allocs)
	}
}
