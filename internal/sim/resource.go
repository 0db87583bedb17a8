package sim

import (
	"container/heap"
	"fmt"
)

// Resource is a single-server timeline: a piece of hardware that can do
// exactly one thing at a time (a command bus, a PRAM partition's sense
// circuit, a DMA engine). Callers reserve a span starting no earlier than
// a requested time; the resource serializes overlapping requests in call
// order, which matches an in-order hardware queue.
//
// Resource timelines are the workhorse of the dramless timing models: they
// let a trace-driven simulation account precisely for contention without
// simulating every bus cycle.
type Resource struct {
	name     string
	nextFree Time
	busy     Duration // total occupied time
}

// NewResource returns an idle resource. The name is used in diagnostics.
func NewResource(name string) *Resource { return &Resource{name: name} }

// Acquire reserves the resource for dur starting at or after earliest and
// returns the actual start time.
func (r *Resource) Acquire(earliest Time, dur Duration) (start Time) {
	if dur < 0 {
		panic(negativeDuration{dur, r.name})
	}
	start = Max(earliest, r.nextFree)
	r.nextFree = start + dur
	r.busy += dur
	return start
}

// negativeDuration is the panic value of a reservation of negative
// length. Formatting its message only when the panic prints keeps
// Acquire within the inlining budget.
type negativeDuration struct {
	dur  Duration
	name string
}

func (e negativeDuration) Error() string {
	return fmt.Sprintf("sim: negative duration %v on %s", e.dur, e.name)
}

// AcquireUntil reserves the resource from max(earliest, free) for dur and
// returns when the reservation ends.
func (r *Resource) AcquireUntil(earliest Time, dur Duration) (end Time) {
	return r.Acquire(earliest, dur) + dur
}

// FreeAt returns the earliest time a new reservation could begin.
func (r *Resource) FreeAt() Time { return r.nextFree }

// BusyTime returns the cumulative reserved time.
func (r *Resource) BusyTime() Duration { return r.busy }

// Pool is a k-server timeline: k identical units (firmware cores, flash
// planes, DMA channels) that serve requests in arrival order, each request
// occupying one unit. It generalizes Resource to k > 1.
type Pool struct {
	name string
	free timeHeap // earliest-free time of each unit
	busy Duration
}

type timeHeap []Time

func (h timeHeap) Len() int           { return len(h) }
func (h timeHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h timeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *timeHeap) Push(x any)        { *h = append(*h, x.(Time)) }
func (h *timeHeap) Pop() any          { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }
func (h timeHeap) peek() Time         { return h[0] }
func (h *timeHeap) replaceTop(t Time) { (*h)[0] = t; heap.Fix(h, 0) }

// NewPool returns a pool of k idle units.
func NewPool(name string, k int) *Pool {
	if k <= 0 {
		panic(fmt.Sprintf("sim: pool %q needs at least one unit, got %d", name, k))
	}
	return &Pool{name: name, free: make(timeHeap, k)}
}

// Acquire reserves one unit for dur starting at or after earliest, using
// the unit that frees soonest, and returns the actual start time.
func (p *Pool) Acquire(earliest Time, dur Duration) (start Time) {
	if dur < 0 {
		panic(negativeDuration{dur, p.name})
	}
	start = Max(earliest, p.free.peek())
	p.free.replaceTop(start + dur)
	p.busy += dur
	return start
}

// AcquireUntil reserves one unit and returns when the reservation ends.
func (p *Pool) AcquireUntil(earliest Time, dur Duration) (end Time) {
	return p.Acquire(earliest, dur) + dur
}

// FreeAt returns the earliest time any unit becomes available.
func (p *Pool) FreeAt() Time { return p.free.peek() }

// BusyTime returns cumulative reserved time summed over units.
func (p *Pool) BusyTime() Duration { return p.busy }

// Pipe models a bandwidth-limited transfer channel (a PCIe link, a DDR
// data bus, a memcpy engine). Transfers serialize and each occupies the
// pipe for size/bandwidth plus a fixed per-transfer latency.
type Pipe struct {
	res         *Resource
	bytesPerSec float64
	latency     Duration
	moved       int64
}

// NewPipe returns a pipe with the given sustained bandwidth (bytes/second)
// and fixed per-transfer latency (protocol and flight time).
func NewPipe(name string, bytesPerSec float64, latency Duration) *Pipe {
	if bytesPerSec <= 0 {
		panic(fmt.Sprintf("sim: pipe %q needs positive bandwidth", name))
	}
	return &Pipe{res: NewResource(name), bytesPerSec: bytesPerSec, latency: latency}
}

// TransferTime returns how long moving n bytes occupies the pipe,
// excluding queueing and the fixed latency.
func (p *Pipe) TransferTime(n int64) Duration {
	return Duration(float64(n) / p.bytesPerSec * float64(Second))
}

// Transfer moves n bytes starting no earlier than earliest and returns the
// time the last byte arrives. The pipe is occupied only for the wire time;
// the fixed latency is pure delay and does not block later transfers.
func (p *Pipe) Transfer(earliest Time, n int64) (done Time) {
	wire := p.TransferTime(n)
	start := p.res.Acquire(earliest, wire)
	p.moved += n
	return start + wire + p.latency
}

// BytesMoved returns the total payload moved through the pipe.
func (p *Pipe) BytesMoved() int64 { return p.moved }

// BusyTime returns cumulative wire-occupied time.
func (p *Pipe) BusyTime() Duration { return p.res.BusyTime() }

// FreeAt returns when the wire next becomes free.
func (p *Pipe) FreeAt() Time { return p.res.FreeAt() }
