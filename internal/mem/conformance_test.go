package mem_test

// ReadInto conformance: for every device in the simulated datapath,
// ReadInto must return exactly the bytes written (zeros where nothing
// was written), whatever the destination held before, and its timing
// must depend only on the access sequence (DESIGN.md §8). Two
// identically-built instances run the same sequence in lockstep, one
// into fresh zeroed buffers and one into stale 0xAA-filled scratch, and
// must finish every access at the same simulated time.

import (
	"bytes"
	"testing"

	"dramless/internal/cache"
	"dramless/internal/flash"
	"dramless/internal/mem"
	"dramless/internal/memctrl"
	"dramless/internal/sim"
	"dramless/internal/ssd"
)

type conformanceCase struct {
	name string
	// build returns a fresh device and the first time traffic may start;
	// successive calls must return indistinguishable instances.
	build func(t *testing.T) (mem.Device, sim.Time)
}

func conformanceCases() []conformanceCase {
	return []conformanceCase{
		{"Flat", func(t *testing.T) (mem.Device, sim.Time) {
			return mem.NewFlat("flat", 1<<20, 100*sim.Nanosecond, 12.8e9), 0
		}},
		{"CacheStack", func(t *testing.T) (mem.Device, sim.Time) {
			flat := mem.NewFlat("lower", 1<<20, 100*sim.Nanosecond, 12.8e9)
			l2 := cache.MustNew(cache.L2(), flat)
			return cache.MustNew(cache.L1Data(), l2), 0
		}},
		{"Subsystem", func(t *testing.T) (mem.Device, sim.Time) {
			cfg := memctrl.DefaultPolicyConfig(memctrl.Final)
			cfg.Geometry.RowsPerModule = 1 << 16
			sub, err := memctrl.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ready, err := sub.Boot(0)
			if err != nil {
				t.Fatal(err)
			}
			return sub, ready
		}},
		{"SSD", func(t *testing.T) (mem.Device, sim.Time) {
			return ssd.MustNew(ssd.DefaultConfig(flash.SLC(), 1<<20)), 0
		}},
		{"FirmwareManaged", func(t *testing.T) (mem.Device, sim.Time) {
			fm, err := ssd.NewFirmwareManaged(ssd.DefaultFirmware(), mem.NewFlat("inner", 1<<20, 100*sim.Nanosecond, 12.8e9))
			if err != nil {
				t.Fatal(err)
			}
			return fm, 0
		}},
		{"NOR", func(t *testing.T) (mem.Device, sim.Time) {
			return flash.NewNOR(1 << 20), 0
		}},
	}
}

func TestReadIntoConformance(t *testing.T) {
	// The access sequence mixes written and never-written ranges,
	// repeats (cache/buffer hits), and unaligned spans crossing line,
	// row and page boundaries.
	accesses := []struct {
		addr uint64
		n    int
	}{
		{64, 32}, {64, 32}, {96, 300}, {0, 256},
		{500, 128}, {64, 512}, {40, 8}, {1 << 15, 64},
	}
	for _, tc := range conformanceCases() {
		t.Run(tc.name, func(t *testing.T) {
			devA, readyA := tc.build(t)
			devB, readyB := tc.build(t)
			if readyA != readyB {
				t.Fatalf("builds not identical: ready %v vs %v", readyA, readyB)
			}
			const patAddr = 64
			pattern := make([]byte, 512)
			for i := range pattern {
				pattern[i] = byte(i*13 + 7)
			}
			tA, err := devA.Write(readyA, patAddr, pattern)
			if err != nil {
				t.Fatal(err)
			}
			tB, err := devB.Write(readyB, patAddr, pattern)
			if err != nil {
				t.Fatal(err)
			}
			if tA != tB {
				t.Fatalf("population writes diverge: %v vs %v", tA, tB)
			}

			for i, ac := range accesses {
				want := make([]byte, ac.n)
				for j := range want {
					if k := int(ac.addr) + j - patAddr; k >= 0 && k < len(pattern) {
						want[j] = pattern[k]
					}
				}
				fresh := make([]byte, ac.n)
				doneA, err := devA.ReadInto(tA, ac.addr, fresh)
				if err != nil {
					t.Fatalf("access %d: ReadInto (fresh): %v", i, err)
				}
				stale := make([]byte, ac.n)
				for j := range stale {
					stale[j] = 0xAA // stale scratch: flushes out missing zero-fill
				}
				doneB, err := devB.ReadInto(tB, ac.addr, stale)
				if err != nil {
					t.Fatalf("access %d: ReadInto (stale): %v", i, err)
				}
				if !bytes.Equal(want, fresh) || !bytes.Equal(want, stale) {
					t.Fatalf("access %d [%#x,+%d): bytes differ from what was written", i, ac.addr, ac.n)
				}
				if doneA != doneB {
					t.Fatalf("access %d [%#x,+%d): identical builds finish at %v and %v",
						i, ac.addr, ac.n, doneA, doneB)
				}
				tA, tB = doneA, doneB
			}
		})
	}
}

// TestCheckRangeOverflow pins the uint64 wraparound fix: a size that
// would make addr+n wrap past zero must still be rejected.
func TestCheckRangeOverflow(t *testing.T) {
	size := uint64(1 << 20)
	if err := mem.CheckRange("dev", size, ^uint64(0)-16, 64); err == nil {
		t.Fatal("wrapping access accepted")
	}
	if err := mem.CheckRange("dev", size, size-64, 64); err != nil {
		t.Fatalf("valid tail access rejected: %v", err)
	}
	if err := mem.CheckRange("dev", size, size-64, 65); err == nil {
		t.Fatal("one-past-the-end access accepted")
	}
	if err := mem.CheckRange("dev", size, 0, 0); err == nil {
		t.Fatal("zero-size access accepted")
	}
}
