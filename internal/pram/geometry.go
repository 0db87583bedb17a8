// Package pram models the 3x nm multi-partition phase-change memory
// module at the heart of DRAM-less: real data storage with SET/RESET cell
// state, multiple row-buffer pairs (RAB/RDB), the program buffer reached
// through the overlay-window register file, multi-partition array
// parallelism, and LPDDR2-NVM three-phase addressing with the Table II
// timing. The model is both functional (bytes written are bytes read) and
// timed (every operation reserves the hardware resources it would occupy).
package pram

import (
	"fmt"
	"math/bits"

	"dramless/internal/lpddr"
	"dramless/internal/sim"
)

// Geometry fixes the address layout of one PRAM module.
//
// A module stores RowsPerModule rows of RowBytes bytes. The 256-bit row
// (32 B) is the unit the multi-partition bank senses into an RDB and the
// unit the program buffer writes back. Rows stripe across partitions on
// their low address bits (the dual-wordline block layout of Figure 3b),
// so sequential rows land on different partitions and can be interleaved.
//
// A full row address is delivered in two pieces per three-phase
// addressing: the low LowerBits go with ACTIVATE, the remaining upper
// bits are stored in a RAB by PREACTIVE.
type Geometry struct {
	// RowBytes is the row width: 32 B (256-bit parallel bank I/O).
	RowBytes int
	// RowsPerModule is the number of rows the module stores.
	RowsPerModule uint64
	// Partitions is the array partition count (16).
	Partitions int
	// LowerBits is how many row-address bits ride with the ACTIVATE
	// command; the rest must come from the selected RAB.
	LowerBits int
	// WordBytes is the program unit: selective erasing resets one word at
	// a time (4 B in this model).
	WordBytes int
	// EraseRows is how many rows a bulk erase clears at once. Erase
	// resets "a large number of cells (greater than cells in a program
	// unit)" - we model a 64-row erase segment.
	EraseRows int

	// Sub-partition structure (Figure 3b). These do not change request
	// timing - the 256-bit bank I/O already aggregates them - but fix the
	// physical decomposition a row maps onto.

	// TilesPerPartition is the resistive tile count per partition (64).
	TilesPerPartition int
	// TileBLs and TileWLs are each tile's bitline and wordline counts
	// (2048 x 4096 PRAM cores).
	TileBLs int
	TileWLs int
}

// DefaultGeometry matches the paper's device: 32 B rows, 16 partitions,
// 14 lower row-address bits, 4 M rows (128 MiB) per module so the
// 2-channel x 16-package subsystem totals 4 GiB.
func DefaultGeometry() Geometry {
	return Geometry{
		RowBytes:          32,
		RowsPerModule:     1 << 22,
		Partitions:        16,
		LowerBits:         14,
		WordBytes:         4,
		EraseRows:         64,
		TilesPerPartition: 64,
		TileBLs:           2048,
		TileWLs:           4096,
	}
}

// Validate reports descriptive errors for unusable geometries.
func (g Geometry) Validate() error {
	switch {
	case g.RowBytes <= 0 || g.RowBytes&(g.RowBytes-1) != 0:
		return fmt.Errorf("pram: RowBytes must be a positive power of two, got %d", g.RowBytes)
	case g.RowBytes > 1<<lpddr.AddrBits:
		return fmt.Errorf("pram: RowBytes %d has columns past the %d-bit READ/WRITE address field", g.RowBytes, lpddr.AddrBits)
	case g.RowsPerModule == 0 || g.RowsPerModule&(g.RowsPerModule-1) != 0:
		return fmt.Errorf("pram: RowsPerModule must be a positive power of two, got %d", g.RowsPerModule)
	case g.Partitions <= 0 || g.Partitions&(g.Partitions-1) != 0:
		return fmt.Errorf("pram: Partitions must be a positive power of two, got %d", g.Partitions)
	case g.LowerBits <= 0 || g.LowerBits > lpddr.AddrBits:
		return fmt.Errorf("pram: LowerBits must be 1..%d (ACTIVATE address field), got %d", lpddr.AddrBits, g.LowerBits)
	case g.WordBytes <= 0 || g.RowBytes%g.WordBytes != 0:
		return fmt.Errorf("pram: WordBytes %d must divide RowBytes %d", g.WordBytes, g.RowBytes)
	case g.EraseRows <= 0:
		return fmt.Errorf("pram: EraseRows must be positive, got %d", g.EraseRows)
	}
	if upper := g.rowBits() - g.LowerBits; upper > lpddr.AddrBits {
		return fmt.Errorf("pram: %d upper row bits exceed the %d-bit RAB field (reduce RowsPerModule)", upper, lpddr.AddrBits)
	}
	switch {
	case g.TilesPerPartition <= 0 || g.TilesPerPartition%2 != 0:
		return fmt.Errorf("pram: TilesPerPartition must be positive and even (two half partitions), got %d", g.TilesPerPartition)
	case g.TileBLs <= 0 || g.TileWLs <= 0:
		return fmt.Errorf("pram: tile dimensions must be positive (%d x %d)", g.TileBLs, g.TileWLs)
	}
	return nil
}

func (g Geometry) rowBits() int { return bits.Len64(g.RowsPerModule - 1) }

// Size returns the module capacity in bytes.
func (g Geometry) Size() uint64 { return g.RowsPerModule * uint64(g.RowBytes) }

// WordsPerRow returns how many program units one row holds.
func (g Geometry) WordsPerRow() int { return g.RowBytes / g.WordBytes }

// RowOf returns the row address containing byte address addr.
func (g Geometry) RowOf(addr uint64) uint64 { return addr / uint64(g.RowBytes) }

// ColOf returns the byte offset of addr within its row.
func (g Geometry) ColOf(addr uint64) int { return int(addr % uint64(g.RowBytes)) }

// PartitionOf returns the partition serving the given row. Rows stripe
// across partitions on their low bits.
func (g Geometry) PartitionOf(row uint64) int { return int(row % uint64(g.Partitions)) }

// SplitRow splits a full row address into the upper part (stored in a RAB
// by PREACTIVE) and the lower part (delivered with ACTIVATE).
func (g Geometry) SplitRow(row uint64) (upper, lower uint32) {
	return uint32(row >> g.LowerBits), uint32(row & (1<<g.LowerBits - 1))
}

// JoinRow recomposes a full row address from its parts, as the device's
// row decoder does during the activate phase.
func (g Geometry) JoinRow(upper, lower uint32) uint64 {
	return uint64(upper)<<g.LowerBits | uint64(lower)
}

// EraseBase returns the first row of the erase segment containing row.
func (g Geometry) EraseBase(row uint64) uint64 {
	return row - row%uint64(g.EraseRows)
}

// CheckRow returns an error when row is outside the module.
func (g Geometry) CheckRow(row uint64) error {
	if row >= g.RowsPerModule {
		return fmt.Errorf("pram: row %#x outside module (%#x rows)", row, g.RowsPerModule)
	}
	return nil
}

// Row storage is segmented: segRows consecutive rows share one segment
// entry. Keying storage per segment instead of per 32 B row keeps the
// map three orders of magnitude smaller, and the module's one-entry
// segment memo turns the sequential row streams the datapath produces
// into plain array indexing (the per-row map was the top non-copy cost
// of the whole suite once the caches stopped allocating).
const (
	segBits = 8 // 256 rows (8 KiB of data) per segment
	segRows = 1 << segBits
	segMask = segRows - 1
	noSeg   = ^uint64(0) // no segment has this number
)

// segContent is the array content of segRows consecutive rows; the
// zero segContent (nil slabs) is a segment with no content yet. All
// slabs use the Go zero value as "pristine": data reads back zero and
// state is lpddr.CellFresh until a program or LoadRow marks the row
// written.
type segContent struct {
	data    []byte            // segRows * RowBytes
	state   []lpddr.CellState // segRows * WordsPerRow
	written []bool            // per row: ever programmed or loaded
}

// segStamps is the per-row timing history of segRows consecutive rows.
// Most rows of a run are only ever loaded, never programmed or activated
// on a timed path, so the stamps live apart from the content and are
// allocated only when a row is first stamped.
type segStamps struct {
	lastProg [segRows]sim.Time // last program completion
	lastRead [segRows]sim.Time // last array activation
}

// rowSeg is one module's entry for a segment: content slabs and a
// stamps slab, each nil (pristine) until the first write takes one. A
// non-nil slab is always the module's own. The content's slice headers
// sit in the entry itself, so a row access reaches the data through one
// pointer.
type rowSeg struct {
	content segContent
	stamps  *segStamps
}

// written reports whether row idx was ever programmed or loaded.
func (s *rowSeg) written(idx int) bool {
	return s.content.data != nil && s.content.written[idx]
}

// lastProg returns row idx's last program completion (0 if none).
func (s *rowSeg) lastProg(idx int) sim.Time {
	if s.stamps == nil {
		return 0
	}
	return s.stamps.lastProg[idx]
}

// lastRead returns row idx's last array activation (0 if none).
func (s *rowSeg) lastRead(idx int) sim.Time {
	if s.stamps == nil {
		return 0
	}
	return s.stamps.lastRead[idx]
}

// writableContent returns the entry's content slab, taking a pristine
// one on first use.
func (s *rowSeg) writableContent(g Geometry) *segContent {
	if s.content.data == nil {
		c, ok := contentPool.Get(g)
		if ok {
			clear(c.data)
			clear(c.state)
			clear(c.written)
		} else {
			c = segContent{
				data:    make([]byte, segRows*g.RowBytes),
				state:   make([]lpddr.CellState, segRows*g.WordsPerRow()),
				written: make([]bool, segRows),
			}
		}
		s.content = c
	}
	return &s.content
}

// writableStamps returns the entry's stamps slab, taking a zeroed one on
// first use.
func (s *rowSeg) writableStamps() *segStamps {
	if s.stamps == nil {
		ts, ok := stampPool.Get(struct{}{})
		if ok {
			*ts = segStamps{}
		} else {
			ts = new(segStamps)
		}
		s.stamps = ts
	}
	return s.stamps
}

// rowState returns the per-word cell states of row idx within c.
func (c *segContent) rowState(idx, wordsPerRow int) []lpddr.CellState {
	return c.state[idx*wordsPerRow : (idx+1)*wordsPerRow]
}

// rowData returns the data of row idx within c.
func (c *segContent) rowData(idx, rowBytes int) []byte {
	return c.data[idx*rowBytes : (idx+1)*rowBytes]
}
