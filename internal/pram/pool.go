package pram

import "dramless/internal/freelist"

// contentPool and stampPool recycle segment slabs across simulation
// runs: without recycling, each of the suite's hundreds of cells would
// re-allocate the slabs it writes just to drop them at the end of the
// run. Released slabs come back stale; rowSeg's writable accessors clear
// them entirely, so pooled and fresh slabs are indistinguishable.
// entPool recycles the modules' segment entry tables the same way: every
// run builds fresh modules whose tables would otherwise re-grow.
var (
	contentPool freelist.List[Geometry, segContent]
	stampPool   freelist.List[struct{}, *segStamps]
	entPool     freelist.List[struct{}, []rowSeg]
)

// Release returns every slab the module holds to the pools and detaches
// all segments. Call only when the module's contents are no longer
// needed (end of a run whose results have been collected).
func (m *Module) Release() {
	for i := range m.ents {
		s := &m.ents[i]
		if s.content.data != nil {
			contentPool.Put(m.geo, s.content)
		}
		if s.stamps != nil {
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
