package pram

import "sync"

// segPool recycles row-segment slabs across simulation runs. Forking a
// checkpointed prefix deep-copies every materialized segment of every
// module; without recycling, each of the suite's hundreds of forked
// cells would re-allocate the full segment population just to drop it at
// the end of the run. Released segments come back stale and are zeroed
// on acquisition (the zero value is "pristine"), so pooled and fresh
// segments are indistinguishable. The mutex makes the pool safe under
// the experiment engine's worker pool.
var segPool = struct {
	mu    sync.Mutex
	byGeo map[Geometry][]*rowSeg
}{byGeo: map[Geometry][]*rowSeg{}}

// pooledSeg returns a recycled segment for geometry g, or nil when the
// pool is empty. The segment's slabs hold stale bytes; callers must zero
// them (newSeg) or overwrite them entirely (Module.CopyFrom).
func pooledSeg(g Geometry) *rowSeg {
	segPool.mu.Lock()
	defer segPool.mu.Unlock()
	list := segPool.byGeo[g]
	n := len(list)
	if n == 0 {
		return nil
	}
	s := list[n-1]
	list[n-1] = nil
	segPool.byGeo[g] = list[:n-1]
	return s
}

// zero restores the pristine zero-value state of every slab.
func (s *rowSeg) zero() {
	clear(s.data)
	clear(s.state)
	clear(s.written)
	clear(s.lastProg)
	clear(s.lastRead)
}

// Release returns every materialized segment to the pool and detaches
// them from the module. Call only when the module's contents are no
// longer needed (end of a run whose results have been collected).
func (m *Module) Release() {
	if len(m.segs) == 0 {
		m.memoSeg, m.memoID = nil, 0
		return
	}
	segPool.mu.Lock()
	list := segPool.byGeo[m.geo]
	for id, s := range m.segs {
		list = append(list, s)
		delete(m.segs, id)
	}
	segPool.byGeo[m.geo] = list
	segPool.mu.Unlock()
	m.memoSeg, m.memoID = nil, 0
}

// CopyFrom clones src's complete device state into m: protocol-tracker
// and buffer-pair state, overlay-window registers, array contents (deep
// copies via the segment pool), partition timelines, program-buffer and
// boot state, and activity counters. The DQ bus is NOT copied — packages
// on one channel share the channel's bus resource, which the channel
// copies exactly once. Construction-time wiring (pause hook, pausing
// flag, instruments) is also left to the fresh construction both sides
// went through.
func (m *Module) CopyFrom(src *Module) {
	m.par = src.par // MRW mutates BurstLen during boot
	m.track.CopyFrom(src.track)
	m.rabValid = src.rabValid
	m.rabUpper = src.rabUpper
	m.rdbValid = src.rdbValid
	m.rdbRow = src.rdbRow
	m.rdbWindow = src.rdbWindow
	for i := range m.rdbData {
		copy(m.rdbData[i], src.rdbData[i])
	}
	*m.ow = *src.ow
	m.Release()
	for id, s := range src.segs {
		ns := pooledSeg(m.geo)
		if ns == nil {
			ns = newSeg(m.geo)
		}
		copy(ns.data, s.data)
		copy(ns.state, s.state)
		copy(ns.written, s.written)
		copy(ns.lastProg, s.lastProg)
		copy(ns.lastRead, s.lastRead)
		m.segs[id] = ns
	}
	for i := range m.partitions {
		m.partitions[i].CopyFrom(src.partitions[i])
	}
	m.busyUntil = src.busyUntil
	m.bufFreeAt = src.bufFreeAt
	m.boot = src.boot
	copy(m.progEndPart, src.progEndPart)
	m.pauses = src.pauses
	m.stats = src.stats
}
