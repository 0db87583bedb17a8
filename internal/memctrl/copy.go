package memctrl

import "dramless/internal/freelist"

// scratchPool recycles the per-channel batch and wave scratch slices
// across subsystem lifetimes. Every forked experiment cell builds a
// fresh Subsystem whose scratch would otherwise re-grow from zero
// capacity over the run's thousands of batched requests; recycling keeps
// the grown capacity. Contents are garbage between uses (every consumer
// resets to [:0] before appending).
var scratchPool struct {
	rows   freelist.List[struct{}, []rowReq]
	writes freelist.List[struct{}, []writeReq]
	rWaves freelist.List[struct{}, [][]*rowReq]
	wWaves freelist.List[struct{}, [][]*writeReq]
}

// wearSlabPool recycles the wear leveler's owned count slabs across
// runs the same way. Released slabs come back stale; wearState.count
// overwrites or clears a slab entirely before its first use.
var wearSlabPool freelist.List[struct{}, *wearSlab]

// CopyFrom clones src's complete subsystem state into s: boot status,
// declared write-intent ranges, wear-leveler position, and every
// channel's scheduler and device state. Both subsystems must have been
// built from the same Config; construction-time wiring (intent closures,
// instruments, scratch buffers, the resolved scheduling policy - which
// holds no mutable state, its counters live in channel.stats) is left
// to the fresh construction.
func (s *Subsystem) CopyFrom(src *Subsystem) {
	s.bootedAt = src.bootedAt
	s.booted = src.booted
	s.intents = append(s.intents[:0], src.intents...)
	if s.wear != nil {
		s.wear.CopyFrom(src.wear)
	}
	for i, ch := range s.channels {
		ch.copyFrom(src.channels[i])
	}
}

// Release returns every module's row segments to the package-level
// segment pool, the batch/wave scratch to the scratch pool and the wear
// count slabs the subsystem owns to wearSlabPool. Call only once the
// run's results have been collected and, for a subsystem others were
// forked from, only after every fork has been released.
func (s *Subsystem) Release() {
	if s.wear != nil {
		s.wear.release()
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

// CopyFrom clones src's leveler state into w. The wear counts are
// shared, not copied: w borrows every slab of src and copies one only
// when it first counts a program there, so src must stay unmodified, and
// unreleased, until w is released.
func (w *wearState) CopyFrom(src *wearState) {
	copy(w.start, src.start)
	copy(w.gap, src.gap)
	copy(w.writes, src.writes)
	w.moves = src.moves
	w.movePS = src.movePS
	w.release()
	for id, e := range src.slabs {
		w.slabs[id] = wearEnt{counts: e.counts}
	}
}

// release returns the slabs w owns to wearSlabPool and detaches every
// slab; borrowed ones stay with their owner.
func (w *wearState) release() {
	for _, e := range w.slabs {
		if e.owned {
			wearSlabPool.Put(struct{}{}, e.counts)
		}
	}
	clear(w.slabs)
}

func (ch *channel) copyFrom(src *channel) {
	ch.cmdBus.CopyFrom(src.cmdBus)
	// The data bus is shared by every module on the channel (ShareBus),
	// so it is copied exactly once here, never per module.
	ch.dataBus.CopyFrom(src.dataBus)
	for i, m := range ch.modules {
		m.CopyFrom(src.modules[i])
	}
	copy(ch.modLastDone, src.modLastDone)
	ch.lastDone = src.lastDone
	copy(ch.nextBA, src.nextBA)
	ch.stats = src.stats
}
