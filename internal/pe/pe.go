// Package pe models one processing element of the accelerator: an
// 8-functional-unit VLIW core (2x .M multiply, .L logic, .S shift/branch,
// .D load-store - Figure 6b) running at 1 GHz, executing a kernel's
// operation stream against its private cache hierarchy. The model tracks
// instructions retired, compute versus memory-stall time, and feeds the
// IPC and power time series of Figures 18-21.
package pe

import (
	"fmt"

	"dramless/internal/mem"
	"dramless/internal/obs"
	"dramless/internal/sim"
	"dramless/internal/workload"
)

// Config describes the core.
type Config struct {
	// ClockHz is the core clock (1 GHz embedded cores in the paper's
	// platform).
	ClockHz float64
	// FuncUnits is the issue width (8: two each of .M/.L/.S/.D).
	FuncUnits int
	// EffectiveIPC is the sustained instructions per cycle on
	// compute-bound stretches; DSP intrinsics keep the paper's optimized
	// kernels near half the peak issue width.
	EffectiveIPC float64
	// DSPIntrinsics models the paper's kernel optimization: "embedding
	// DSP-intrinsic that activates two .M units, such as multi-way
	// floating-point multiply/add". Without them the multiply units sit
	// idle and sustained IPC halves.
	DSPIntrinsics bool
	// Unbatched disables the run-coalescing front-end and executes the op
	// stream strictly one op per Step. The batched path is byte- and
	// timing-equivalent (the equivalence tests assert it); this switch
	// exists as the reference baseline and an escape hatch.
	Unbatched bool
}

// Default returns the TMS320C6678-like core with the paper's
// DSP-intrinsic-optimized kernels.
func Default() Config {
	return Config{ClockHz: 1e9, FuncUnits: 8, EffectiveIPC: 4, DSPIntrinsics: true}
}

// effectiveIPC returns the sustained issue rate under the configuration.
func (c Config) effectiveIPC() float64 {
	if c.DSPIntrinsics {
		return c.EffectiveIPC
	}
	return c.EffectiveIPC / 2 // .M units idle without the intrinsics
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.ClockHz <= 0 || c.FuncUnits <= 0 || c.EffectiveIPC <= 0 {
		return fmt.Errorf("pe: invalid config %+v", c)
	}
	if c.EffectiveIPC > float64(c.FuncUnits) {
		return fmt.Errorf("pe: effective IPC %.1f exceeds %d functional units", c.EffectiveIPC, c.FuncUnits)
	}
	return nil
}

// Span is one active (executing) interval [T0, T1) of a core: the
// compute stretch of one op. The energy model prices these at active
// power; the rest of the run is idle or stalled.
type Span struct {
	T0, T1 sim.Time
}

// spanBlock is the capacity of one Spans storage block (16 KiB).
const spanBlock = 1024

// Spans is one core's active intervals in execution order (strictly
// increasing T0). They fill fixed-size blocks instead of one growing
// slice: a sampled run records one span per compute op, and an append
// chain would allocate several times the final size on the way there.
type Spans struct {
	blocks [][]Span // every block full except the last
	n      int
}

// Len returns the number of recorded spans.
func (s *Spans) Len() int { return s.n }

// At returns span i.
func (s *Spans) At(i int) Span { return s.blocks[i/spanBlock][i%spanBlock] }

func (s *Spans) add(t0, t1 sim.Time) {
	if s.n%spanBlock == 0 {
		s.blocks = append(s.blocks, make([]Span, 0, spanBlock))
	}
	b := &s.blocks[len(s.blocks)-1]
	*b = append(*b, Span{T0: t0, T1: t1})
	s.n++
}

// PE is one processing element mid-run.
type PE struct {
	ID int

	memory  mem.Device
	batcher mem.Batcher // non-nil when memory has a batched fast path
	stream  workload.Stream
	batches workload.BatchStream // non-nil unless cfg.Unbatched

	clock  sim.Clock
	issue  sim.Duration // one issue slot at the core clock
	ipcEff float64

	// One-entry durOf memo: a stream has very few distinct compute
	// stretches (the kernel's per-chunk count), and the float division
	// per op showed up in suite profiles.
	memoCompute int64
	memoDur     sim.Duration

	batch workload.Batch // current coalesced run
	bpos  int            // ops of the run already executed

	now     sim.Time
	instrs  int64
	compute sim.Duration
	stall   sim.Duration
	done    bool

	storeBuf []byte // reusable nonzero store payload
	loadBuf  []byte // reusable load destination (loaded bytes are discarded)

	// Recorders. None of them disables run folding: the scalar path
	// records per op, and the batched paths replay the identical per-op
	// calls - the compute-only closed form loops over its ops, memory
	// runs record through the per-access mem.Run.OnOp hook - so each
	// recorder sees the unbatched execution's values in the same order.
	// The windowed busy/stall instruments (obs.Series handles shared
	// across the accelerator's PEs) take one contiguous span per
	// compute-only run instead: their window sums are integer, so the
	// split cannot change them.
	ipc        *obs.Series[float64] // instructions per window, nil unless sampled
	spans      *Spans               // active intervals, nil unless recorded
	busyS      *obs.Series[int64]
	stallS     *obs.Series[int64]
	onOp       func(start, end sim.Time) // p.recordOp once any recorder is on
	curGap     sim.Duration              // Gap of the run being executed
	curCompute float64                   // its per-op instruction count
}

// New returns a PE executing stream against memory, starting at `start`.
func New(id int, cfg Config, memory mem.Device, stream workload.Stream, start sim.Time) (*PE, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if memory == nil || stream == nil {
		return nil, fmt.Errorf("pe %d: nil memory or stream", id)
	}
	p := &PE{
		ID: id, memory: memory, stream: stream, now: start,
		clock:       sim.NewClock(cfg.ClockHz),
		ipcEff:      cfg.effectiveIPC(),
		memoCompute: -1,
	}
	p.issue = p.clock.Cycles(1)
	if !cfg.Unbatched {
		p.batches = workload.Coalesce(stream)
		p.batcher, _ = memory.(mem.Batcher)
	}
	return p, nil
}

// SampleIPC enables instruction sampling with the given window.
func (p *PE) SampleIPC(interval sim.Duration) {
	p.ipc = obs.NewSeries[float64](obs.SeriesAccelInstrs, interval)
	p.onOp = p.recordOp
}

// RecordSpans enables recording of the core's active intervals (see
// ActiveSpans).
func (p *PE) RecordSpans() {
	p.spans = &Spans{}
	p.onOp = p.recordOp
}

// ObserveSeries attaches windowed busy (compute) and stall
// (memory-wait) time accumulation, typically the accelerator-wide
// shared series. Either handle may be nil.
func (p *PE) ObserveSeries(busy, stall *obs.Series[int64]) {
	if busy == nil && stall == nil {
		return
	}
	p.busyS, p.stallS = busy, stall
	p.onOp = p.recordOp
}

// recordOp is the memory-run OnOp hook: it records one folded op - its
// compute stretch [start-curGap, start), then the access [start, end) -
// exactly as exec records it on the scalar path.
func (p *PE) recordOp(start, end sim.Time) {
	if p.curGap > 0 {
		p.recordCompute(start-p.curGap, start, p.curCompute)
	}
	p.ipc.Add(start, 1)
	p.stallS.AddSpan(start, end)
}

// recordCompute records one op's compute stretch [t0, t1), which retires
// instrs instructions.
func (p *PE) recordCompute(t0, t1 sim.Time, instrs float64) {
	if p.spans != nil {
		p.spans.add(t0, t1)
	}
	p.ipc.Spread(t0, t1, instrs)
	p.busyS.AddSpan(t0, t1)
}

// Now returns the PE's local time.
func (p *PE) Now() sim.Time { return p.now }

// Instructions returns instructions retired so far.
func (p *PE) Instructions() int64 { return p.instrs }

// ComputeTime returns cumulative execution time.
func (p *PE) ComputeTime() sim.Duration { return p.compute }

// StallTime returns cumulative memory-stall time.
func (p *PE) StallTime() sim.Duration { return p.stall }

// IPCSeries returns the sampled instruction series or nil.
func (p *PE) IPCSeries() *obs.Series[float64] { return p.ipc }

// ActiveSpans returns the recorded active intervals, or nil unless
// RecordSpans was called.
func (p *PE) ActiveSpans() *Spans { return p.spans }

// durOf returns the execution time of a compute stretch.
func (p *PE) durOf(compute int64) sim.Duration {
	if compute == p.memoCompute {
		return p.memoDur
	}
	cycles := int64(float64(compute)/p.ipcEff + 0.5)
	if cycles < 1 {
		cycles = 1
	}
	p.memoCompute, p.memoDur = compute, p.clock.Cycles(cycles)
	return p.memoDur
}

// Step executes the next operation and, on the batched front-end, folds
// the rest of the current coalesced run into the same call while it
// stays on the memory device's private fast path. It reports false once
// the stream is exhausted.
//
// Folding preserves the multi-core interleaving contract of the event
// engine: only the first op of a call may touch shared state (its start
// time equals the event time, exactly as in the scalar path); every
// subsequent op executes only while the device bounds it to core-private
// state (cache ReadRun/WriteRun), so its global execution order cannot
// matter. When the run's next access would leave the private path, Step
// returns with the PE's clock at that access's start time and the caller
// reschedules - the access then runs scalar, in its own event, at the
// same simulated time as in the unbatched execution.
func (p *PE) Step() (bool, error) {
	if p.done {
		return false, nil
	}
	if p.batches == nil {
		op, ok := p.stream.Next()
		if !ok {
			p.done = true
			return false, nil
		}
		return true, p.exec(op)
	}
	executed := false
	for {
		if p.bpos >= p.batch.Count {
			b, ok := p.batches.NextBatch()
			if !ok {
				p.done = true
				return executed, nil
			}
			p.batch, p.bpos = b, 0
		}
		rest := p.batch.Count - p.bpos
		op := p.batch.At(p.bpos)
		if !executed {
			if err := p.exec(op); err != nil {
				return false, err
			}
			p.bpos++
			executed = true
			continue
		}
		if op.Size == 0 {
			// Compute-only run: closed form, exact in integer picoseconds.
			if op.Compute > 0 {
				dur := p.durOf(op.Compute)
				end := p.now + sim.Duration(rest)*dur
				// One contiguous busy span; window sums equal the per-op
				// spans of the scalar path exactly (integer split).
				p.busyS.AddSpan(p.now, end)
				if p.ipc != nil || p.spans != nil {
					// One call per op: the float IPC and energy sums must
					// match the scalar path bit for bit.
					c := float64(op.Compute)
					for t := p.now; t < end; t += dur {
						if p.spans != nil {
							p.spans.add(t, t+dur)
						}
						if p.ipc != nil {
							p.ipc.Spread(t, t+dur, c)
						}
					}
				}
				p.now = end
				p.compute += sim.Duration(rest) * dur
				p.instrs += int64(rest) * op.Compute
			}
			p.bpos = p.batch.Count
			continue
		}
		if p.batcher == nil {
			return true, nil
		}
		run := mem.Run{
			Addr:   op.Addr,
			Stride: p.batch.Stride,
			Size:   op.Size,
			Count:  rest,
			Issue:  p.issue,
			OnOp:   p.onOp,
		}
		if op.Compute > 0 {
			run.Gap = p.durOf(op.Compute)
		}
		p.curGap, p.curCompute = run.Gap, float64(op.Compute)
		var res mem.RunResult
		var err error
		if op.Write {
			res, err = p.batcher.WriteRun(p.now, run, p.payload(op.Size))
		} else {
			if len(p.loadBuf) < op.Size {
				p.loadBuf = make([]byte, op.Size)
			}
			res, err = p.batcher.ReadRun(p.now, run, p.loadBuf[:op.Size])
		}
		if err != nil {
			return false, fmt.Errorf("pe %d: %w", p.ID, err)
		}
		if res.Done > 0 {
			p.now = res.Now
			p.compute += sim.Duration(res.Done) * run.Gap
			p.stall += res.Stall
			p.instrs += int64(res.Done) * (op.Compute + 1)
			p.bpos += res.Done
		}
		if p.bpos < p.batch.Count {
			// The next access leaves the private fast path: yield so it
			// executes in its own event at the correct global time.
			return true, nil
		}
	}
}

// exec runs one op through the scalar path.
func (p *PE) exec(op workload.Op) error {
	if op.Compute > 0 {
		dur := p.durOf(op.Compute)
		if p.onOp != nil { // any recorder on
			p.recordCompute(p.now, p.now+dur, float64(op.Compute))
		}
		p.now += dur
		p.compute += dur
		p.instrs += op.Compute
	}

	if op.Size > 0 {
		var done sim.Time
		var err error
		if op.Write {
			// Stores carry a nonzero synthetic payload: all-zero data
			// would be RESET-only (or free) under the PRAM cell model and
			// underprice every program.
			done, err = p.memory.Write(p.now, op.Addr, p.payload(op.Size))
		} else {
			// The model discards loaded bytes (the kernel's arithmetic is
			// abstracted by op.Compute), so loads reuse one scratch buffer.
			if len(p.loadBuf) < op.Size {
				p.loadBuf = make([]byte, op.Size)
			}
			done, err = p.memory.ReadInto(p.now, op.Addr, p.loadBuf[:op.Size])
		}
		if err != nil {
			return fmt.Errorf("pe %d: %w", p.ID, err)
		}
		if done < p.now {
			done = p.now
		}
		// One issue slot for the load/store itself; the rest of the
		// access time is stall.
		stallEnd := sim.Max(done, p.now+p.issue)
		p.ipc.Add(p.now, 1)
		if p.stallS != nil {
			p.stallS.AddSpan(p.now, stallEnd)
		}
		p.stall += stallEnd - p.now
		p.now = stallEnd
		p.instrs++
	}
	return nil
}

// payload returns a reusable nonzero store buffer of n bytes.
func (p *PE) payload(n int) []byte {
	if len(p.storeBuf) < n {
		p.storeBuf = make([]byte, n)
		for i := range p.storeBuf {
			p.storeBuf[i] = byte(i*37 + 11 + p.ID)
		}
	}
	return p.storeBuf[:n]
}
