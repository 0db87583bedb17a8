package pram

import (
	"slices"

	"dramless/internal/freelist"
)

// contentPool and stampPool recycle segment slabs across simulation
// runs: without recycling, each of the suite's hundreds of forked cells
// would re-allocate the slabs it writes just to drop them at the end of
// the run. Released slabs come back stale; rowSeg's writable accessors
// overwrite or clear them entirely, so pooled and fresh slabs are
// indistinguishable. entPool recycles the modules' segment entry tables
// the same way: every fork builds fresh modules whose tables would
// otherwise re-grow.
var (
	contentPool freelist.List[Geometry, segContent]
	stampPool   freelist.List[struct{}, *segStamps]
	entPool     freelist.List[struct{}, []rowSeg]
)

// Release returns every slab the module owns to the pools and detaches
// all segments. Borrowed slabs stay with the module that owns them. Call
// only when the module's contents are no longer needed (end of a run
// whose results have been collected) and, for a module others were
// forked from, only after every fork has been released.
func (m *Module) Release() {
	for i := range m.ents {
		s := &m.ents[i]
		if s.ownsCont {
			contentPool.Put(m.geo, s.content)
		}
		if s.ownsStamp {
			stampPool.Put(struct{}{}, s.stamps)
		}
		*s = rowSeg{}
	}
	if cap(m.ents) > 0 {
		entPool.Put(struct{}{}, m.ents[:0])
		m.ents = nil
	}
	clear(m.segs)
	m.memoSeg, m.memoID = nil, noSeg
}

// CopyFrom clones src's complete device state into m: buffer-pair state,
// overlay-window registers, array contents, partition timelines,
// program-buffer and boot state, and activity counters. The array
// contents are shared, not copied: m borrows every slab of src and
// copies one only when it first writes to it (rowSeg). src must
// therefore stay unmodified, and unreleased, until m is released; a
// checkpoint template frozen at capture is such a source, and any number
// of modules may fork it concurrently.
//
// The DQ bus is NOT copied — packages on one channel share the channel's
// bus resource, which the channel copies exactly once. Construction-time
// wiring (pause hook, pausing flag, instruments) is also left to the
// fresh construction both sides went through.
func (m *Module) CopyFrom(src *Module) {
	m.par = src.par // MRW mutates BurstLen during boot
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
	m.ents, _ = entPool.Get(struct{}{})
	m.ents = slices.Grow(m.ents, len(src.ents))
	for _, s := range src.ents {
		m.ents = append(m.ents, rowSeg{content: s.content, stamps: s.stamps})
	}
	for id, i := range src.segs {
		m.segs[id] = i
	}
	for i := range m.partitions {
		m.partitions[i].CopyFrom(src.partitions[i])
	}
	m.busyUntil = src.busyUntil
	m.bufFreeAt = src.bufFreeAt
	m.boot = src.boot
	copy(m.progEndPart, src.progEndPart)
	m.stats = src.stats
}
