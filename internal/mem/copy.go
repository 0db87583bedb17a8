package mem

import "dramless/internal/freelist"

// CopyFrom clones src's bus timeline, traffic totals and page store into
// f. Both memories must share size/latency/bandwidth configuration.
func (f *Flat) CopyFrom(src *Flat) {
	f.bus.CopyFrom(src.bus)
	f.store.CopyFrom(src.store)
	f.reads = src.reads
	f.writes = src.writes
	f.bytesIn = src.bytesIn
	f.bytesOut = src.bytesOut
}

// Release returns the page store to the package pool. Call only once the
// memory's contents are no longer needed.
func (f *Flat) Release() { f.store.Release() }

// pagePool recycles sparse page frames across simulation runs, so each
// experiment cell's staging traffic does not re-allocate the page
// population the previous cell just dropped. Pooled pages hold stale
// bytes; newPage zeroes on acquisition (untouched space must read as
// zero), CopyFrom overwrites whole pages and skips the clear.
var pagePool freelist.List[struct{}, []byte]

// newPage returns a zeroed page frame.
func newPage() []byte {
	if p, ok := pagePool.Get(struct{}{}); ok {
		zeroFill(p)
		return p
	}
	return make([]byte, sparsePage)
}

// Release returns every materialized page to the pool and empties the
// store.
func (s *Sparse) Release() {
	if len(s.pages) == 0 {
		return
	}
	freelist.PutMap(&pagePool, struct{}{}, s.pages)
}

// CopyFrom replaces s's contents with a deep copy of src's pages, so
// later writes to either store never alias the other.
func (s *Sparse) CopyFrom(src *Sparse) {
	s.Release()
	if s.pages == nil {
		s.pages = make(map[uint64][]byte, len(src.pages))
	}
	for pg, data := range src.pages {
		p, ok := pagePool.Get(struct{}{})
		if !ok {
			p = make([]byte, sparsePage)
		}
		copy(p, data)
		s.pages[pg] = p
	}
}
