package flash

import "dramless/internal/freelist"

// framePool recycles page frames across simulation runs, keyed by page
// size (media profiles differ). Pooled frames hold stale bytes; newFrame
// zeroes on acquisition.
var framePool freelist.List[int, []byte]

// Release returns every stored and recycled page frame to the package
// pool and empties the store. Call only once the array's contents are no
// longer needed.
func (a *Array) Release() {
	pb := a.prof.PageBytes
	freelist.PutMap(&framePool, pb, a.store)
	framePool.Put(pb, a.freePages...)
	a.freePages = a.freePages[:0]
}

// Release returns the NOR contents' pages to the mem package pool.
func (n *NOR) Release() { n.store.Release() }
