package ssd

import "dramless/internal/freelist"

// entPool recycles buffer entries (struct + page frame) across
// simulation runs, keyed by page size. Pooled entries hold stale data;
// newEntry's callers either fill the whole page or zero it, exactly as
// with locally recycled entries.
var entPool freelist.List[int, *bufEntry]

// Release returns the buffer's entries and the array's page frames to
// their package pools. Call only once the device's contents are no
// longer needed.
func (s *SSD) Release() {
	pb := s.cfg.Media.PageBytes
	freelist.PutMap(&entPool, pb, s.buf)
	entPool.Put(pb, s.freeEnts...)
	s.freeEnts = s.freeEnts[:0]
	s.arr.Release()
}
