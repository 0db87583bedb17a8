package mem

import "dramless/internal/freelist"

// Release returns the page store to the package pool. Call only once the
// memory's contents are no longer needed.
func (f *Flat) Release() { f.store.Release() }

// pagePool recycles sparse page frames across simulation runs, so each
// experiment cell's staging traffic does not re-allocate the page
// population the previous cell just dropped. Pooled pages hold stale
// bytes; newPage zeroes on acquisition (untouched space must read as
// zero).
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
