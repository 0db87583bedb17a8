package sim

// CopyFrom makes r's timeline state identical to src's. The diagnostic
// name is construction-time identity and is not copied: checkpoint forks
// build a fresh component graph and then clone the mutable state into it,
// so both sides already carry the same names.
func (r *Resource) CopyFrom(src *Resource) {
	r.nextFree = src.nextFree
	r.busy = src.busy
}

// CopyFrom makes p's per-unit timelines identical to src's. Both pools
// must have been built with the same unit count.
func (p *Pool) CopyFrom(src *Pool) {
	if len(p.free) != len(src.free) {
		panic("sim: pool fork unit-count mismatch")
	}
	copy(p.free, src.free)
	p.busy = src.busy
}

// CopyFrom makes p's wire occupancy and transfer totals identical to
// src's. Bandwidth and latency are construction-time configuration and
// must already match.
func (p *Pipe) CopyFrom(src *Pipe) {
	p.res.CopyFrom(src.res)
	p.moved = src.moved
}
