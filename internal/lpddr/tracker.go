package lpddr

import "fmt"

// Tracker validates that a stream of commands obeys the three-phase
// addressing protocol. The PRAM module embeds one so that any controller
// bug that would mis-program a real device fails loudly in simulation.
//
// Legal ordering per RAB/RDB pair:
//
//	PREACTIVE(ba)          - always legal; loads the RAB
//	ACTIVATE(ba)           - requires the RAB to hold an upper row address
//	READ/WRITE(ba)         - requires the pair to have completed activation
//	MRW/MRR                - always legal (device configuration)
//
// The "phase skipping" optimization of the DRAM-less controller is legal
// precisely because a RAB/RDB pair retains its state across requests: a
// later ACTIVATE may reuse a previously loaded RAB, and a later READ may
// reuse a previously activated RDB.
type Tracker struct {
	numRAB    int
	rabLoaded []bool // RAB holds an upper row address
	activated []bool // RDB holds a sensed row
	history   []Command
	keepHist  bool
}

// NewTracker returns a tracker for a device with numRAB buffer pairs.
func NewTracker(numRAB int) *Tracker {
	if numRAB <= 0 || numRAB > 4 {
		panic(fmt.Sprintf("lpddr: tracker needs 1..4 RABs, got %d", numRAB))
	}
	return &Tracker{
		numRAB:    numRAB,
		rabLoaded: make([]bool, numRAB),
		activated: make([]bool, numRAB),
	}
}

// KeepHistory records every observed command for test inspection.
func (t *Tracker) KeepHistory(on bool) { t.keepHist = on }

// History returns the recorded command stream (empty unless KeepHistory).
func (t *Tracker) History() []Command { return t.history }

// Observe checks one command against the protocol state and updates it.
func (t *Tracker) Observe(c Command) error {
	if t.keepHist {
		t.history = append(t.history, c)
	}
	switch c.Op {
	case OpNop, OpMRW, OpMRR:
		return nil
	}
	if int(c.BA) >= t.numRAB {
		return fmt.Errorf("lpddr: %v targets BA %d but device has %d RAB pairs", c.Op, c.BA, t.numRAB)
	}
	switch c.Op {
	case OpPreactive:
		t.rabLoaded[c.BA] = true
		// Loading a new upper row address invalidates the stale
		// activation paired with this RAB.
		t.activated[c.BA] = false
	case OpActivate:
		if !t.rabLoaded[c.BA] {
			return fmt.Errorf("lpddr: ACTIVATE on BA %d without a prior PREACTIVE", c.BA)
		}
		t.activated[c.BA] = true
	case OpRead, OpWrite:
		if !t.activated[c.BA] {
			return fmt.Errorf("lpddr: %v on BA %d without an activated row", c.Op, c.BA)
		}
	default:
		return fmt.Errorf("lpddr: unknown opcode %d", c.Op)
	}
	return nil
}
