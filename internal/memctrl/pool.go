package memctrl

import "dramless/internal/freelist"

// scratchPool recycles the per-channel batch and wave scratch slices
// across subsystem lifetimes. Every experiment cell builds a fresh
// Subsystem whose scratch would otherwise re-grow from zero
// capacity over the run's thousands of batched requests; recycling keeps
// the grown capacity. Contents are garbage between uses (every consumer
// resets to [:0] before appending).
var scratchPool struct {
	rows   freelist.List[struct{}, []rowReq]
	writes freelist.List[struct{}, []writeReq]
	rWaves freelist.List[struct{}, [][]*rowReq]
	wWaves freelist.List[struct{}, [][]*writeReq]
}

// wearSlabPool recycles the wear leveler's count slabs across runs the
// same way. Released slabs come back stale; wearState.count clears a
// slab entirely before its first use.
var wearSlabPool freelist.List[struct{}, *wearSlab]

// Release returns every module's row segments to the package-level
// segment pool, the batch/wave scratch to the scratch pool and the wear
// count slabs to wearSlabPool. Call only once the run's results have
// been collected.
func (s *Subsystem) Release() {
	if s.wear != nil {
		for _, c := range s.wear.slabs {
			wearSlabPool.Put(struct{}{}, c)
		}
		clear(s.wear.slabs)
	}
	for c := range s.batches {
		if s.batches[c] != nil {
			scratchPool.rows.Put(struct{}{}, s.batches[c])
			s.batches[c] = nil
		}
		if s.wBatches[c] != nil {
			scratchPool.writes.Put(struct{}{}, s.wBatches[c])
			s.wBatches[c] = nil
		}
	}
	for _, ch := range s.channels {
		if ch.rWaves != nil {
			// A wave can point at the channel's own oneRead; clear the
			// stale pointers so the pooled tables do not keep this
			// released channel (and its modules) reachable.
			for _, w := range ch.rWaves {
				clear(w[:cap(w)])
			}
			scratchPool.rWaves.Put(struct{}{}, ch.rWaves)
			ch.rWaves = nil
		}
		if ch.wWaves != nil {
			scratchPool.wWaves.Put(struct{}{}, ch.wWaves)
			ch.wWaves = nil
		}
		for _, m := range ch.modules {
			m.Release()
		}
	}
}
