package memctrl

import (
	"dramless/internal/mem"
	"dramless/internal/sim"
)

var _ mem.Batcher = (*Subsystem)(nil)

// ReadRun implements mem.Batcher. The subsystem always completes the
// whole run: unlike a private cache it has no shared level above it to
// yield to. Execution stays access by access because the channel
// protocol state (RAB/RDB residency, wave interleaving, wear pointers)
// advances per request; the batch entry gives run-shaped callers one
// call per coalesced run and a place to exploit same-row structure
// without touching the scalar path's timing.
func (s *Subsystem) ReadRun(now sim.Time, r mem.Run, dst []byte) (mem.RunResult, error) {
	return mem.ReadRunLoop(s, now, r, dst)
}

// WriteRun implements mem.Batcher (see ReadRun).
func (s *Subsystem) WriteRun(now sim.Time, r mem.Run, src []byte) (mem.RunResult, error) {
	return mem.WriteRunLoop(s, now, r, src)
}
