package mem_test

// ReadInto conformance: for every device in the simulated datapath,
// ReadInto must return exactly the bytes Read returns AND complete at
// exactly the same simulated time, access for access (DESIGN.md §8).
// Read and ReadInto both advance shared timing state (buses, buffer
// pairs, caches), so each flavour runs against its own identically-built
// instance and the two sequences are compared in lockstep.

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
			ri, ok := devB.(mem.ReaderInto)
			if !ok {
				t.Fatalf("%T does not implement mem.ReaderInto", devB)
			}

			pattern := make([]byte, 512)
			for i := range pattern {
				pattern[i] = byte(i*13 + 7)
			}
			tA, err := devA.Write(readyA, 64, pattern)
			if err != nil {
				t.Fatal(err)
			}
			tB, err := devB.Write(readyB, 64, pattern)
			if err != nil {
				t.Fatal(err)
			}
			if tA != tB {
				t.Fatalf("population writes diverge: %v vs %v", tA, tB)
			}

			for i, ac := range accesses {
				want, doneA, err := devA.Read(tA, ac.addr, ac.n)
				if err != nil {
					t.Fatalf("access %d: Read: %v", i, err)
				}
				got := make([]byte, ac.n)
				for j := range got {
					got[j] = 0xAA // stale scratch: flushes out missing zero-fill
				}
				doneB, err := ri.ReadInto(tB, ac.addr, got)
				if err != nil {
					t.Fatalf("access %d: ReadInto: %v", i, err)
				}
				if !bytes.Equal(want, got) {
					t.Fatalf("access %d [%#x,+%d): bytes diverge", i, ac.addr, ac.n)
				}
				if doneA != doneB {
					t.Fatalf("access %d [%#x,+%d): Read done %v, ReadInto done %v",
						i, ac.addr, ac.n, doneA, doneB)
				}
				tA, tB = doneA, doneB
			}
		})
	}
}

// TestReadIntoOfFallback pins the helper's behaviour for devices without
// the fast path: Read plus copy, same bytes, same completion time.
func TestReadIntoOfFallback(t *testing.T) {
	a := mem.NewFlat("a", 1<<16, 10*sim.Nanosecond, 1e9)
	b := mem.NewFlat("b", 1<<16, 10*sim.Nanosecond, 1e9)
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if _, err := a.Write(0, 128, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Write(0, 128, payload); err != nil {
		t.Fatal(err)
	}
	want, wantDone, err := a.Read(sim.Microsecond, 128, 8)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 8)
	gotDone, err := mem.ReadIntoOf(plainDevice{b}, sim.Microsecond, 128, dst)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, dst) || wantDone != gotDone {
		t.Fatalf("fallback diverges: %v/%v vs %v/%v", want, wantDone, dst, gotDone)
	}
}

// plainDevice hides Flat's ReadInto so ReadIntoOf exercises the fallback.
type plainDevice struct{ d mem.Device }

func (p plainDevice) Read(at sim.Time, addr uint64, n int) ([]byte, sim.Time, error) {
	return p.d.Read(at, addr, n)
}
func (p plainDevice) Write(at sim.Time, addr uint64, data []byte) (sim.Time, error) {
	return p.d.Write(at, addr, data)
}
func (p plainDevice) Size() uint64 { return p.d.Size() }

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
