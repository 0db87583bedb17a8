// Package workload models the Polybench suite the paper evaluates
// (Table III, Figures 13 and 15-21). Each kernel is described by the
// structure of its loop nest - input/output footprints, sweep count,
// arithmetic intensity and write interleaving - and compiled into a
// deterministic per-agent stream of compute/load/store operations, the
// same way the paper splits each workload "into multiple compute kernels,
// which can be simultaneously executed across all different PEs".
//
// Write intensity follows the paper's classification: "the intensiveness
// of writes is classified by the amount of output size per input size".
package workload

import (
	"fmt"
	"sort"
)

// ChunkBytes is the access granularity of the generated streams: one
// 32-byte vector chunk (four doubles), matching the PE's 32-byte
// load/store operand size.
const ChunkBytes = 32

// Op is one step of a kernel on one PE: Compute instructions followed by
// an optional memory reference of Size bytes at Addr.
type Op struct {
	Compute int64
	Addr    uint64
	Size    int
	Write   bool
}

// Stream produces the op sequence of one agent's share of a kernel.
type Stream interface {
	// Next returns the next op; ok=false when the share is exhausted.
	Next() (op Op, ok bool)
}

// Class is the paper's workload taxonomy.
type Class int

const (
	// ReadIntensive workloads (durbin, dynprog, gemver, trisolv) mostly
	// stream inputs and emit small outputs.
	ReadIntensive Class = iota
	// WriteIntensive workloads (chol, doitgen, lu, seidel) emit output
	// volumes comparable to or above their inputs.
	WriteIntensive
	// ComputeIntensive workloads (adi, fdtd-apml, floyd) are bounded by
	// arithmetic more than memory.
	ComputeIntensive
	// MemoryIntensive workloads (jacobi-1D/2D, reg-detect) sweep large
	// data with little arithmetic per byte.
	MemoryIntensive
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ReadIntensive:
		return "read-intensive"
	case WriteIntensive:
		return "write-intensive"
	case ComputeIntensive:
		return "compute-intensive"
	case MemoryIntensive:
		return "memory-intensive"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Kernel is one workload's structural description.
type Kernel struct {
	Name  string
	Class Class

	// InputFactor and OutputFactor size the input and output regions as
	// multiples of the base footprint (Scale in Params).
	InputFactor  float64
	OutputFactor float64

	// Sweeps is how many passes the loop nest makes over the input.
	Sweeps int

	// ComputePerChunk is the instruction count executed per 32 B input
	// chunk (DSP-intrinsic vector ops count as single instructions).
	ComputePerChunk int

	// WriteEvery interleaves one output-chunk store per this many input
	// chunk loads (0 = outputs written only in a final sweep).
	WriteEvery int

	// StridedSweeps marks how many of the sweeps traverse the input
	// column-wise (large stride) instead of row-wise. Matrix kernels
	// like gemver (B^T y) and tensor contractions reorder their inner
	// loops this way; strided traversal is what separates byte-granule
	// memories from page-granule ones, because every access lands on a
	// different page while a byte-addressable PRAM still serves it in one
	// row read.
	StridedSweeps int
}

// stridedStrideChunks is the column stride of strided sweeps: 1 KiB + one
// chunk, so consecutive accesses walk across pages instead of within one.
const stridedStrideChunks = 33

// Params configures stream generation.
type Params struct {
	// Scale is the base footprint in bytes; the paper increased volumes
	// >10x over stock Polybench, and benchmarks shrink it to keep
	// simulations fast. Regions are rounded to whole chunks.
	Scale int64
	// Agents is the number of PEs sharing the kernel.
	Agents int
	// BaseAddr places the kernel's data region.
	BaseAddr uint64
}

// Validate reports parameter errors.
func (p Params) Validate() error {
	if p.Scale < 16*ChunkBytes {
		return fmt.Errorf("workload: scale %d below %d", p.Scale, 16*ChunkBytes)
	}
	if p.Agents <= 0 {
		return fmt.Errorf("workload: agents must be positive, got %d", p.Agents)
	}
	return nil
}

// InputBytes returns the kernel's input region size under params.
func (k Kernel) InputBytes(p Params) int64 { return chunksOf(k.InputFactor, p.Scale) * ChunkBytes }

// OutputBytes returns the kernel's output region size under params.
func (k Kernel) OutputBytes(p Params) int64 { return chunksOf(k.OutputFactor, p.Scale) * ChunkBytes }

// OutputAddr returns where the output region starts.
func (k Kernel) OutputAddr(p Params) uint64 { return p.BaseAddr + uint64(k.InputBytes(p)) }

// FootprintBytes returns the total data volume (Table III's "data
// volume").
func (k Kernel) FootprintBytes(p Params) int64 { return k.InputBytes(p) + k.OutputBytes(p) }

// WriteIntensity returns output/input volume, the paper's write metric.
func (k Kernel) WriteIntensity() float64 { return k.OutputFactor / k.InputFactor }

// WriteRatio estimates the dynamic fraction of referenced bytes that are
// written (the circles in Figure 13).
func (k Kernel) WriteRatio(p Params) float64 {
	reads, writes := k.trafficChunks(p)
	if reads+writes == 0 {
		return 0
	}
	return float64(writes) / float64(reads+writes)
}

func chunksOf(factor float64, scale int64) int64 {
	c := int64(factor * float64(scale) / ChunkBytes)
	if c < 1 {
		c = 1
	}
	return c
}

// trafficChunks returns total (read, write) chunk references per full run.
func (k Kernel) trafficChunks(p Params) (reads, writes int64) {
	in := chunksOf(k.InputFactor, p.Scale)
	out := chunksOf(k.OutputFactor, p.Scale)
	reads = in * int64(k.Sweeps)
	if k.WriteEvery > 0 {
		writes = reads / int64(k.WriteEvery)
	} else {
		writes = out // one final output sweep
	}
	return reads, writes
}

// Instructions returns the total instruction count of a full run
// (compute plus one issue slot per memory reference), used for IPC.
func (k Kernel) Instructions(p Params) int64 {
	reads, writes := k.trafficChunks(p)
	return reads*int64(k.ComputePerChunk) + reads + writes
}

// Suite returns the 16 evaluated kernels in the paper's figure order.
// Factors, sweeps and intensities encode each loop nest's structure:
// e.g. gemver streams four vectors/matrices and emits a small vector
// (read-intensive), doitgen materializes a large intermediate tensor
// (write-intensive), jacobi sweeps repeatedly with little arithmetic
// (memory-intensive).
func Suite() []Kernel {
	return []Kernel{
		{Name: "adi", Class: ComputeIntensive, InputFactor: 2, OutputFactor: 2, Sweeps: 4, ComputePerChunk: 192, WriteEvery: 2, StridedSweeps: 2},
		{Name: "chol", Class: WriteIntensive, InputFactor: 1, OutputFactor: 1.5, Sweeps: 2, ComputePerChunk: 128, WriteEvery: 1, StridedSweeps: 1},
		{Name: "doitg", Class: WriteIntensive, InputFactor: 1, OutputFactor: 3, Sweeps: 2, ComputePerChunk: 64, WriteEvery: 1, StridedSweeps: 1},
		{Name: "durbin", Class: ReadIntensive, InputFactor: 2, OutputFactor: 0.125, Sweeps: 3, ComputePerChunk: 80, WriteEvery: 16, StridedSweeps: 1},
		{Name: "dynpro", Class: ReadIntensive, InputFactor: 2, OutputFactor: 0.125, Sweeps: 3, ComputePerChunk: 96, WriteEvery: 16, StridedSweeps: 1},
		{Name: "fdtd2d", Class: ComputeIntensive, InputFactor: 2, OutputFactor: 1, Sweeps: 3, ComputePerChunk: 160, WriteEvery: 3, StridedSweeps: 1},
		{Name: "fdtdap", Class: ComputeIntensive, InputFactor: 1, OutputFactor: 0.5, Sweeps: 2, ComputePerChunk: 256, WriteEvery: 4},
		{Name: "floyd", Class: ComputeIntensive, InputFactor: 1, OutputFactor: 1, Sweeps: 4, ComputePerChunk: 144, WriteEvery: 2, StridedSweeps: 1},
		{Name: "gemver", Class: ReadIntensive, InputFactor: 4, OutputFactor: 0.25, Sweeps: 2, ComputePerChunk: 32, WriteEvery: 32, StridedSweeps: 1},
		{Name: "jaco1d", Class: MemoryIntensive, InputFactor: 1, OutputFactor: 1, Sweeps: 6, ComputePerChunk: 32, WriteEvery: 2},
		{Name: "jaco2d", Class: MemoryIntensive, InputFactor: 2, OutputFactor: 2, Sweeps: 4, ComputePerChunk: 40, WriteEvery: 2, StridedSweeps: 2},
		{Name: "lu", Class: WriteIntensive, InputFactor: 1, OutputFactor: 1, Sweeps: 3, ComputePerChunk: 80, WriteEvery: 2, StridedSweeps: 1},
		{Name: "regd", Class: MemoryIntensive, InputFactor: 3, OutputFactor: 0.25, Sweeps: 2, ComputePerChunk: 40, WriteEvery: 8},
		{Name: "seidel", Class: WriteIntensive, InputFactor: 1, OutputFactor: 1, Sweeps: 4, ComputePerChunk: 64, WriteEvery: 2, StridedSweeps: 2},
		{Name: "trisolv", Class: ReadIntensive, InputFactor: 2, OutputFactor: 0.0625, Sweeps: 2, ComputePerChunk: 28, WriteEvery: 32, StridedSweeps: 1},
		{Name: "trmm", Class: WriteIntensive, InputFactor: 2, OutputFactor: 1, Sweeps: 2, ComputePerChunk: 72, WriteEvery: 3, StridedSweeps: 1},
	}
}

// ByName returns the named kernel.
func ByName(name string) (Kernel, error) {
	for _, k := range Suite() {
		if k.Name == name {
			return k, nil
		}
	}
	names := make([]string, 0, 16)
	for _, k := range Suite() {
		names = append(names, k.Name)
	}
	sort.Strings(names)
	return Kernel{}, fmt.Errorf("workload: unknown kernel %q (have %v)", name, names)
}

// MustByName is ByName for known-good names.
func MustByName(name string) Kernel {
	k, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return k
}

// stream generates one agent's share: a contiguous slab of the input
// chunk space per sweep, with interleaved output stores.
type stream struct {
	k Kernel

	inBase, outBase   uint64
	inChunks          int64 // this agent's input chunks per sweep
	outChunks         int64 // this agent's output chunks
	inStart, outStart int64 // chunk offsets of this agent's slabs

	sweep     int
	pos       int64 // chunk position within the sweep
	outPos    int64
	sinceWr   int
	finalOut  int64 // final-sweep output progress (WriteEvery == 0)
	exhausted bool
}

// NewStream returns agent pe's op stream (0 <= pe < p.Agents).
func NewStream(k Kernel, p Params, pe int) (Stream, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if pe < 0 || pe >= p.Agents {
		return nil, fmt.Errorf("workload: agent %d outside 0..%d", pe, p.Agents-1)
	}
	totalIn := chunksOf(k.InputFactor, p.Scale)
	totalOut := chunksOf(k.OutputFactor, p.Scale)
	a := int64(p.Agents)
	inPer, inRem := totalIn/a, totalIn%a
	outPer, outRem := totalOut/a, totalOut%a
	s := &stream{
		k:       k,
		inBase:  p.BaseAddr,
		outBase: k.OutputAddr(p),
	}
	s.inStart = int64(pe)*inPer + min64(int64(pe), inRem)
	s.inChunks = inPer
	if int64(pe) < inRem {
		s.inChunks++
	}
	s.outStart = int64(pe)*outPer + min64(int64(pe), outRem)
	s.outChunks = outPer
	if int64(pe) < outRem {
		s.outChunks++
	}
	if s.inChunks == 0 {
		s.exhausted = true
	}
	return s, nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Next implements Stream.
func (s *stream) Next() (Op, bool) {
	if s.exhausted {
		return Op{}, false
	}
	// Interleaved output store due?
	if s.k.WriteEvery > 0 && s.sinceWr >= s.k.WriteEvery && s.outChunks > 0 {
		s.sinceWr = 0
		addr := s.outBase + uint64((s.outStart+s.outPos%s.outChunks)*ChunkBytes)
		s.outPos++
		return Op{Compute: 2, Addr: addr, Size: ChunkBytes, Write: true}, true
	}
	if s.pos >= s.inChunks {
		// Sweep finished. Only start another input pass when one remains:
		// resetting pos unconditionally used to drop the stream back into
		// input reads between final-sweep stores, re-reading the whole
		// slab once per buffered output chunk.
		if s.sweep+1 < s.k.Sweeps {
			s.pos = 0
			s.sweep++
		} else {
			// Final output sweep for kernels that buffer outputs.
			if s.k.WriteEvery == 0 && s.finalOut < s.outChunks {
				addr := s.outBase + uint64((s.outStart+s.finalOut)*ChunkBytes)
				s.finalOut++
				return Op{Compute: 4, Addr: addr, Size: ChunkBytes, Write: true}, true
			}
			s.exhausted = true
			return Op{}, false
		}
	}
	var chunk int64
	if s.sweep < s.k.StridedSweeps {
		// Column-wise traversal of this agent's tile: successive
		// references jump by the stride (wrapping within the slab), so
		// they land on different pages and different PRAM rows - the
		// access shape that separates byte-granule from page-granule
		// memories while keeping the blocked-kernel working set.
		chunk = s.inStart + (s.pos*stridedStrideChunks)%s.inChunks
	} else {
		chunk = s.inStart + s.pos
	}
	addr := s.inBase + uint64(chunk*ChunkBytes)
	s.pos++
	s.sinceWr++
	return Op{Compute: int64(s.k.ComputePerChunk), Addr: addr, Size: ChunkBytes, Write: false}, true
}

// NextBatch implements BatchStream natively: the generator knows its own
// run structure, so instead of re-discovering runs op by op (the generic
// coalescer) it extends the first op arithmetically - reads up to the
// next due store, sweep end or strided-wrap discontinuity, final-sweep
// stores to the end of the output slab. Interleaved stores stay
// singletons (a read always separates them). The concatenation of the
// batches is exactly the Next() op order; TestCoalesceMatchesScalarStream
// pins that against the scalar stream for every suite kernel.
func (s *stream) NextBatch() (Batch, bool) {
	op, ok := s.Next()
	if !ok {
		return Batch{}, false
	}
	b := Batch{Op: op, Count: 1}
	if op.Write {
		if s.k.WriteEvery == 0 {
			// Final output sweep: the remaining stores walk the slab
			// contiguously.
			rest := s.outChunks - s.finalOut
			if rest > 0 {
				b.Stride = ChunkBytes
				b.Count += int(rest)
				s.finalOut += rest
			}
		}
		return b, true
	}
	// Reads remaining in this sweep; a due store preempts them.
	n := s.inChunks - s.pos
	if s.k.WriteEvery > 0 && s.outChunks > 0 {
		if until := int64(s.k.WriteEvery - s.sinceWr); until < n {
			n = until
		}
	}
	stride := int64(ChunkBytes)
	if s.sweep < s.k.StridedSweeps {
		// Strided traversal: constant stride until the slab wrap.
		stride *= stridedStrideChunks
		at := ((s.pos - 1) * stridedStrideChunks) % s.inChunks
		if until := (s.inChunks - 1 - at) / stridedStrideChunks; until < n {
			n = until
		}
	}
	if n > 0 {
		b.Stride = stride
		b.Count += int(n)
		s.pos += n
		s.sinceWr += int(n)
	}
	return b, true
}
