package mem

import "dramless/internal/sim"

// Run describes a constant-stride sequence of equal-size accesses - the
// device-side view of a coalesced workload batch. Timing follows the
// PE's per-op recurrence: each access starts Gap after the previous one
// completed (the compute stretch between memory ops), occupies at least
// Issue (the load/store issue slot), and the stretch from access start
// to completion beyond the issue point is memory stall.
type Run struct {
	Addr   uint64       // first access address
	Stride int64        // address delta between consecutive accesses
	Size   int          // bytes per access
	Count  int          // number of accesses
	Gap    sim.Duration // local-time gap before each access
	Issue  sim.Duration // minimum occupancy per access

	// OnOp, when non-nil, observes every completed access of the run:
	// start is the access's issue time (its Gap compute stretch ends at
	// start) and end is when the issuer may proceed (the later of
	// completion and the issue slot). Every Batcher implementation must
	// invoke it per access with exactly the times the scalar reference
	// loop would produce — it is how the PE's latency/utilization
	// instruments see through the batched fast paths.
	OnOp func(start, end sim.Time)
}

// RunResult reports (possibly partial) execution of a Run.
type RunResult struct {
	Done  int          // accesses completed (<= Run.Count)
	Now   sim.Time     // local time after the last completed access
	Stall sim.Duration // summed per-access stall beyond Gap
}

// Batcher is the batched fast path a device may implement beside its
// per-access methods. ReadRun executes leading accesses of r starting at
// now; dst (len >= r.Size) receives the bytes of the last completed
// access. WriteRun stores the same src bytes (len >= r.Size) at every
// access's address. Both must be byte- and timing-equivalent to
// ReadRunLoop/WriteRunLoop over the completed prefix, but may stop early
// (Done < Count) at a device-specific boundary - a cache stops when the
// next access would leave its private hierarchy - and the caller resumes
// the remainder through the scalar path.
type Batcher interface {
	ReadRun(now sim.Time, r Run, dst []byte) (RunResult, error)
	WriteRun(now sim.Time, r Run, src []byte) (RunResult, error)
}

// ReadRunLoop executes r against d one access at a time - the reference
// semantics every Batcher must match on the prefix it completes.
func ReadRunLoop(d Device, now sim.Time, r Run, dst []byte) (RunResult, error) {
	res := RunResult{Now: now}
	addr := r.Addr
	for res.Done < r.Count {
		start := res.Now + r.Gap
		done, err := d.ReadInto(start, addr, dst[:r.Size])
		if err != nil {
			return res, err
		}
		advance(&res, start, done, r.Issue)
		if r.OnOp != nil {
			r.OnOp(start, res.Now)
		}
		addr = uint64(int64(addr) + r.Stride)
	}
	return res, nil
}

// WriteRunLoop is ReadRunLoop for stores.
func WriteRunLoop(d Device, now sim.Time, r Run, src []byte) (RunResult, error) {
	res := RunResult{Now: now}
	addr := r.Addr
	for res.Done < r.Count {
		start := res.Now + r.Gap
		done, err := d.Write(start, addr, src[:r.Size])
		if err != nil {
			return res, err
		}
		advance(&res, start, done, r.Issue)
		if r.OnOp != nil {
			r.OnOp(start, res.Now)
		}
		addr = uint64(int64(addr) + r.Stride)
	}
	return res, nil
}

// advance applies one completed access to res: the access ends at the
// later of its completion and its issue slot, and everything past the
// start is stall.
func advance(res *RunResult, start, done sim.Time, issue sim.Duration) {
	if done < start {
		done = start
	}
	end := sim.Max(done, start+issue)
	res.Stall += end - start
	res.Now = end
	res.Done++
}

// runBounds validates the whole run's address range once so per-access
// iterations can skip their range checks.
func runBounds(what string, size uint64, r Run) error {
	addr := r.Addr
	for i := 0; i < r.Count; i++ {
		if err := CheckRange(what, size, addr, r.Size); err != nil {
			return err
		}
		addr = uint64(int64(addr) + r.Stride)
	}
	return nil
}

var _ Batcher = (*Flat)(nil)

// ReadRun implements Batcher. Flat has no protocol state beyond the
// bus, so the fast path charges each access's bus time but copies bytes
// only for the last access - the only one visible in dst.
func (f *Flat) ReadRun(now sim.Time, r Run, dst []byte) (RunResult, error) {
	if err := runBounds(f.name, f.size, r); err != nil {
		return RunResult{Now: now}, err
	}
	res := RunResult{Now: now}
	for res.Done < r.Count {
		start := res.Now + r.Gap
		done := f.bus.Transfer(start+f.latency, int64(r.Size))
		f.reads++
		f.bytesOut += int64(r.Size)
		advance(&res, start, done, r.Issue)
		if r.OnOp != nil {
			r.OnOp(start, res.Now)
		}
	}
	if r.Count > 0 {
		f.store.ReadInto(uint64(int64(r.Addr)+int64(r.Count-1)*r.Stride), dst[:r.Size])
	}
	return res, nil
}

// WriteRun implements Batcher; every store must land (addresses
// differ), so only the range checks are hoisted.
func (f *Flat) WriteRun(now sim.Time, r Run, src []byte) (RunResult, error) {
	if err := runBounds(f.name, f.size, r); err != nil {
		return RunResult{Now: now}, err
	}
	res := RunResult{Now: now}
	addr := r.Addr
	for res.Done < r.Count {
		start := res.Now + r.Gap
		done := f.bus.Transfer(start+f.latency, int64(r.Size))
		f.store.Write(addr, src[:r.Size])
		f.writes++
		f.bytesIn += int64(r.Size)
		advance(&res, start, done, r.Issue)
		if r.OnOp != nil {
			r.OnOp(start, res.Now)
		}
		addr = uint64(int64(addr) + r.Stride)
	}
	return res, nil
}
