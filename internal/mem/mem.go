// Package mem defines the timed memory-device interface every storage
// layer in dramless implements: the PRAM subsystem, caches, flash SSDs,
// DRAM buffers and the host-attached storage paths. Having one interface
// lets the accelerator model swap Table I's backends freely and lets
// functional tests verify bytes end to end through any stack.
package mem

import (
	"fmt"

	"dramless/internal/sim"
)

// Device is a byte-addressable storage layer with simulated timing.
// Implementations are functional (reads return previously written bytes)
// and timed (operations reserve the hardware resources they occupy and
// return their completion time). ReadInto is the device's only read.
type Device interface {
	ReaderInto
	// Write stores data at addr starting no earlier than at. Completion
	// semantics are device-specific (posted writes return acceptance).
	Write(at sim.Time, addr uint64, data []byte) (done sim.Time, err error)
	// Size returns the addressable capacity in bytes.
	Size() uint64
}

// ReaderInto is the device read: it fetches len(dst) bytes at addr,
// starting no earlier than at, directly into a caller-provided buffer.
// The contract (DESIGN.md §8):
//
//   - dst is owned by the caller; the device must not retain it past the
//     call and must fill exactly len(dst) bytes on success, with zeros
//     where nothing was ever written;
//   - dst must not alias device-internal storage (cache lines, stream
//     buffers, page frames) — implementations copy out of their own
//     state into dst;
//   - timing depends only on the access and the device state, never on
//     dst's prior contents.
type ReaderInto interface {
	ReadInto(at sim.Time, addr uint64, dst []byte) (done sim.Time, err error)
}

// Read reads n bytes at addr from d into a fresh buffer: the one-liner
// for callers that keep the bytes.
func Read(d Device, at sim.Time, addr uint64, n int) ([]byte, sim.Time, error) {
	if n < 0 {
		return nil, 0, CheckRange("mem.Read", d.Size(), addr, n)
	}
	data := make([]byte, n)
	done, err := d.ReadInto(at, addr, data)
	if err != nil {
		return nil, 0, err
	}
	return data, done, nil
}

// Drainer is implemented by devices with posted work (PRAM programs,
// flash programs, firmware queues); Drain returns when everything
// in flight has retired.
type Drainer interface {
	Drain() sim.Time
}

// DrainOf returns d.Drain() when available, else fallback.
func DrainOf(d Device, fallback sim.Time) sim.Time {
	if dr, ok := d.(Drainer); ok {
		return sim.Max(dr.Drain(), fallback)
	}
	return fallback
}

// CheckRange validates [addr, addr+n) against size; shared by
// implementations so error text stays uniform.
func CheckRange(what string, size, addr uint64, n int) error {
	if n <= 0 {
		return fmt.Errorf("%s: non-positive access size %d", what, n)
	}
	// Guard against addr+n wrapping around uint64 for addresses near the
	// top of the space: compare against the remaining room instead.
	if addr > size || uint64(n) > size-addr {
		return fmt.Errorf("%s: access [%#x,+%#x) outside %#x bytes", what, addr, uint64(n), size)
	}
	return nil
}

// Flat is a perfectly uniform memory: fixed latency, fixed bandwidth,
// backed by a sparse page store. It models the idealized in-accelerator
// DRAM of Figure 1's "ideal" system and the 1 GB DRAM buffers of the
// SSD and PAGE-buffer configurations.
type Flat struct {
	name    string
	size    uint64
	latency sim.Duration
	bus     *sim.Pipe
	store   *Sparse

	reads, writes     int64
	bytesIn, bytesOut int64
}

// NewFlat returns a flat memory of the given size, per-access latency and
// sustained bandwidth (bytes/second).
func NewFlat(name string, size uint64, latency sim.Duration, bytesPerSec float64) *Flat {
	return &Flat{
		name:    name,
		size:    size,
		latency: latency,
		bus:     sim.NewPipe(name+".bus", bytesPerSec, 0),
		store:   NewSparse(),
	}
}

// Size implements Device.
func (f *Flat) Size() uint64 { return f.size }

// ReadInto implements Device.
func (f *Flat) ReadInto(at sim.Time, addr uint64, dst []byte) (sim.Time, error) {
	if err := CheckRange(f.name, f.size, addr, len(dst)); err != nil {
		return 0, err
	}
	done := f.bus.Transfer(at+f.latency, int64(len(dst)))
	f.reads++
	f.bytesOut += int64(len(dst))
	f.store.ReadInto(addr, dst)
	return done, nil
}

// Write implements Device.
func (f *Flat) Write(at sim.Time, addr uint64, data []byte) (sim.Time, error) {
	if err := CheckRange(f.name, f.size, addr, len(data)); err != nil {
		return 0, err
	}
	done := f.bus.Transfer(at+f.latency, int64(len(data)))
	f.store.Write(addr, data)
	f.writes++
	f.bytesIn += int64(len(data))
	return done, nil
}

// Traffic returns (reads, writes, bytesWritten, bytesRead).
func (f *Flat) Traffic() (reads, writes, bytesIn, bytesOut int64) {
	return f.reads, f.writes, f.bytesIn, f.bytesOut
}

// Sparse is a page-granular sparse byte store used as the functional
// backing of large simulated memories; untouched space reads as zero.
type Sparse struct {
	pages map[uint64][]byte
}

const sparsePage = 4096

// NewSparse returns an empty store.
func NewSparse() *Sparse { return &Sparse{pages: map[uint64][]byte{}} }

// ReadInto fills dst with the bytes at addr (zeroes where never
// written) without allocating.
func (s *Sparse) ReadInto(addr uint64, dst []byte) {
	n := len(dst)
	for off := 0; off < n; {
		pg := (addr + uint64(off)) / sparsePage
		po := int((addr + uint64(off)) % sparsePage)
		take := sparsePage - po
		if take > n-off {
			take = n - off
		}
		if p, ok := s.pages[pg]; ok {
			copy(dst[off:off+take], p[po:])
		} else {
			zeroFill(dst[off : off+take])
		}
		off += take
	}
}

// zeroFill clears b (dst may be a reused scratch buffer holding stale
// bytes).
func zeroFill(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

// Write stores data at addr.
func (s *Sparse) Write(addr uint64, data []byte) {
	for off := 0; off < len(data); {
		pg := (addr + uint64(off)) / sparsePage
		po := int((addr + uint64(off)) % sparsePage)
		take := sparsePage - po
		if take > len(data)-off {
			take = len(data) - off
		}
		p, ok := s.pages[pg]
		if !ok {
			p = newPage()
			s.pages[pg] = p
		}
		copy(p[po:], data[off:off+take])
		off += take
	}
}
