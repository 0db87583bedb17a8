package flash

import (
	"dramless/internal/mem"
	"dramless/internal/sim"
)

// NOR models the 9x nm parallel PRAM with a serial-peripheral NOR flash
// interface used by the paper's "NOR-intf" configuration: byte-addressable
// like the 3x nm parts, but every access serializes into 16-bit low-level
// memory operations with legacy latencies ("its legacy read and write are
// slower than our new PRAM by 3x and 10x"). There is no DRAM, no
// firmware and no erase on the data path.
type NOR struct {
	size  uint64
	bus   *sim.Resource
	store *mem.Sparse

	readChunk  sim.Duration
	writeChunk sim.Duration
	chunk      int

	reads, writes int64
	bytesRead     int64
	bytesWritten  int64
}

var _ mem.Device = (*NOR)(nil)

// NewNOR returns a NOR-interface PRAM of the given capacity. The default
// latencies give ~200 MB/s serialized reads (2x below flash page-level
// bandwidth, 3x the per-access latency of the 3x nm PRAM at 32 B grain)
// and ~17 MB/s writes (two orders below flash page bandwidth and ~10x
// below the DRAM-less subsystem's parallel writes) - the ratios Section
// VI reports for NOR-intf.
func NewNOR(size uint64) *NOR {
	return &NOR{
		size:       size,
		bus:        sim.NewResource("nor.bus"),
		store:      mem.NewSparse(),
		chunk:      2, // 16-bit operations
		readChunk:  sim.Nanoseconds(10),
		writeChunk: sim.Nanoseconds(120),
	}
}

// Size implements mem.Device.
func (n *NOR) Size() uint64 { return n.size }

// ReadInto implements mem.Device: ceil(len(dst)/2) serialized 16-bit
// reads.
func (n *NOR) ReadInto(at sim.Time, addr uint64, dst []byte) (sim.Time, error) {
	sz := len(dst)
	if err := mem.CheckRange("nor", n.size, addr, sz); err != nil {
		return 0, err
	}
	words := (sz + n.chunk - 1) / n.chunk
	done := n.bus.AcquireUntil(at, sim.Duration(words)*n.readChunk)
	n.reads++
	n.bytesRead += int64(sz)
	n.store.ReadInto(addr, dst)
	return done, nil
}

// Write implements mem.Device: ceil(n/2) serialized 16-bit programs.
func (n *NOR) Write(at sim.Time, addr uint64, data []byte) (sim.Time, error) {
	if err := mem.CheckRange("nor", n.size, addr, len(data)); err != nil {
		return 0, err
	}
	words := (len(data) + n.chunk - 1) / n.chunk
	done := n.bus.AcquireUntil(at, sim.Duration(words)*n.writeChunk)
	n.store.Write(addr, data)
	n.writes++
	n.bytesWritten += int64(len(data))
	return done, nil
}

// Drain implements mem.Drainer.
func (n *NOR) Drain() sim.Time { return n.bus.FreeAt() }

// Traffic returns (reads, writes, bytesRead, bytesWritten).
func (n *NOR) Traffic() (reads, writes, bytesRead, bytesWritten int64) {
	return n.reads, n.writes, n.bytesRead, n.bytesWritten
}
