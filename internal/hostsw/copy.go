package hostsw

// CopyFrom clones src's CPU/DRAM timelines (the DRAM pipe carries the
// copied-byte total) into h. Both hosts must share the same cost model;
// checkpoint forks construct a fresh host and then copy the mutable
// state across.
func (h *Host) CopyFrom(src *Host) {
	h.cpu.CopyFrom(src.cpu)
	h.mem.CopyFrom(src.mem)
}
