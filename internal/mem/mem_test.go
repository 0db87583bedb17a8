package mem

import (
	"bytes"
	"testing"
	"testing/quick"

	"dramless/internal/sim"
)

func TestFlatTiming(t *testing.T) {
	f := NewFlat("m", 1<<20, sim.Nanoseconds(100), 1e9)
	// 1000 bytes at 1 GB/s = 1 us wire + 100 ns latency.
	done, err := f.Write(0, 0, make([]byte, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if done < sim.Microseconds(1) || done > sim.Microseconds(1.2) {
		t.Fatalf("write done at %v, want ~1.1us", done)
	}
	// Concurrent ops serialize on the bus.
	d2, _ := f.Write(0, 2048, make([]byte, 1000))
	if d2 <= done {
		t.Fatal("bus did not serialize")
	}
}

func TestFlatRoundTripAndTraffic(t *testing.T) {
	f := NewFlat("m", 1<<20, sim.Nanoseconds(1), 1e9)
	payload := []byte("flat memory payload")
	if _, err := f.Write(0, 777, payload); err != nil {
		t.Fatal(err)
	}
	got, _, err := Read(f, 0, 777, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("round trip failed")
	}
	r, w, in, out := f.Traffic()
	if r != 1 || w != 1 || in != int64(len(payload)) || out != int64(len(payload)) {
		t.Fatalf("traffic = %d %d %d %d", r, w, in, out)
	}
}

func TestFlatBounds(t *testing.T) {
	f := NewFlat("m", 1024, 0, 1e9)
	if _, err := f.ReadInto(0, 1024, make([]byte, 1)); err == nil {
		t.Error("read past end accepted")
	}
	if _, err := f.Write(0, 1020, make([]byte, 8)); err == nil {
		t.Error("write past end accepted")
	}
	if _, err := f.ReadInto(0, 0, nil); err == nil {
		t.Error("zero read accepted")
	}
	if _, _, err := Read(f, 0, 0, -1); err == nil {
		t.Error("negative read accepted")
	}
}

func TestCheckRangeMessages(t *testing.T) {
	if err := CheckRange("dev", 100, 50, 10); err != nil {
		t.Fatalf("valid range rejected: %v", err)
	}
	if err := CheckRange("dev", 100, 95, 10); err == nil {
		t.Fatal("overflow accepted")
	}
	if err := CheckRange("dev", 100, 0, -1); err == nil {
		t.Fatal("negative size accepted")
	}
}

// readSparse reads n bytes at addr out of s into a fresh buffer.
func readSparse(s *Sparse, addr uint64, n int) []byte {
	out := make([]byte, n)
	s.ReadInto(addr, out)
	return out
}

func TestSparseZeroFill(t *testing.T) {
	s := NewSparse()
	got := readSparse(s, 123456, 64)
	for _, b := range got {
		if b != 0 {
			t.Fatal("untouched sparse memory not zero")
		}
	}
	if s.Pages() != 0 {
		t.Fatal("read materialized pages")
	}
	s.Write(4090, []byte{1, 2, 3, 4, 5, 6, 7, 8}) // crosses a page boundary
	if s.Pages() != 2 {
		t.Fatalf("pages = %d, want 2", s.Pages())
	}
	got = readSparse(s, 4090, 8)
	if !bytes.Equal(got, []byte{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Fatal("cross-page round trip failed")
	}
}

func TestDrainOf(t *testing.T) {
	f := NewFlat("m", 1024, 0, 1e9) // no Drainer
	if got := DrainOf(f, 42); got != 42 {
		t.Fatalf("fallback drain = %v", got)
	}
}

// Property: Sparse matches a plain byte slice for arbitrary writes.
func TestSparseEquivalenceProperty(t *testing.T) {
	s := NewSparse()
	shadow := make([]byte, 1<<16)
	f := func(off uint16, data []byte) bool {
		if len(data) > 1000 {
			data = data[:1000]
		}
		addr := uint64(off) % uint64(len(shadow)-1000)
		s.Write(addr, data)
		copy(shadow[addr:], data)
		return bytes.Equal(readSparse(s, addr, len(data)+32), shadow[addr:addr+uint64(len(data))+32])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Pages returns how many pages have been materialized.
func (s *Sparse) Pages() int { return len(s.pages) }
