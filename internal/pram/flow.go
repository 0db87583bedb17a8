package pram

import (
	"encoding/binary"
	"fmt"

	"dramless/internal/sim"
)

// This file implements the canonical overlay-window command flows the
// FPGA translator performs (Section V-B): every step is a real
// three-phase-addressed burst against the window, so the flows exercise
// exactly the protocol a hardware controller would.

// activateWindowRow returns the window-relative row/column of offset off and
// activates the window row on buffer pair ba if it is not already bound.
func (m *Module) activateWindowRow(at sim.Time, ba uint8, off uint64) (done sim.Time, col int, err error) {
	addr := m.ow.base + off
	rowAddr := m.geo.RowOf(addr)
	col = m.geo.ColOf(addr)
	if m.rdbValid[ba] && m.rdbWindow[ba] && m.rdbRow[ba] == rowAddr {
		return at, col, nil // phase skip: window row already bound
	}
	upper, lower := m.geo.SplitRow(rowAddr)
	done = at
	if !m.rabValid[ba] || m.rabUpper[ba] != upper {
		if done, err = m.Preactive(done, ba, upper); err != nil {
			return 0, 0, err
		}
	}
	if done, err = m.Activate(done, ba, lower); err != nil {
		return 0, 0, err
	}
	return done, col, nil
}

// WindowWrite writes data at overlay-window offset off through the
// regular three-phase protocol, splitting at row boundaries: window rows
// are activated on buffer pair ba as needed, phase-skipping when the row
// is already bound. Controllers use it to drive custom flows; bursts
// covering RegExec start the staged operation.
func (m *Module) WindowWrite(at sim.Time, ba uint8, off uint64, data []byte) (done sim.Time, err error) {
	done = at
	for len(data) > 0 {
		var col int
		done, col, err = m.activateWindowRow(done, ba, off)
		if err != nil {
			return 0, err
		}
		n := m.geo.RowBytes - col
		if n > len(data) {
			n = len(data)
		}
		if done, err = m.WriteBurst(done, ba, col, data[:n]); err != nil {
			return 0, err
		}
		data = data[n:]
		off += uint64(n)
	}
	return done, nil
}

// putProgramHeader fills hdr with the register-row image a controller
// bursts to OWBA+RegCode to stage a program of n bytes at rowAddr:
// command code, target address and burst size in one write, with
// reserved gaps zero.
func putProgramHeader(hdr *[progHeaderLen]byte, rowAddr uint64, n int) {
	*hdr = [progHeaderLen]byte{0: CmdProgram}
	binary.LittleEndian.PutUint32(hdr[RegAddr-RegCode:], uint32(rowAddr))
	binary.LittleEndian.PutUint16(hdr[RegMulti-RegCode:], uint16(n))
}

// execTouch is the byte Execute writes to RegExec; its value is ignored.
var execTouch = [1]byte{1}

// ProgramRow performs the complete overlay-window program flow for one
// row: stage the command code, the target row address and the burst size
// in the window registers, fill the program buffer, then touch the
// execute register. It returns when the execute burst completes; the
// array program itself runs asynchronously (poll BusyUntil / RegStatus).
func (m *Module) ProgramRow(at sim.Time, ba uint8, rowAddr uint64, data []byte) (done sim.Time, err error) {
	if err := m.geo.CheckRow(rowAddr); err != nil {
		return 0, err
	}
	if len(data) == 0 || len(data) > m.geo.RowBytes {
		return 0, fmt.Errorf("pram: program of %d bytes outside 1..%d", len(data), m.geo.RowBytes)
	}
	if len(data)%m.geo.WordBytes != 0 {
		return 0, fmt.Errorf("pram: program size %d not word-aligned", len(data))
	}
	if rowAddr > 0xFFFFFFFF {
		return 0, fmt.Errorf("pram: row %#x exceeds the 32-bit address register", rowAddr)
	}
	if done, err = m.StageProgram(at, ba, rowAddr, len(data)); err != nil {
		return 0, err
	}
	// data -> program buffer (0x800+)
	if done, err = m.WindowWrite(done, ba, ProgBufOffset, data); err != nil {
		return 0, err
	}
	return m.Execute(done, ba)
}

// StageProgram is the first step of the program flow: one register-row
// burst (RegCode..RegMulti share a 32 B row; the reserved gaps ignore
// writes) stages the command code, target row address rowAddr and burst
// size n. It returns when the burst completes.
func (m *Module) StageProgram(at sim.Time, ba uint8, rowAddr uint64, n int) (done sim.Time, err error) {
	putProgramHeader(&m.hdr, rowAddr, n)
	return m.WindowWrite(at, ba, RegCode, m.hdr[:])
}

// Execute is the last step of the program flow: it touches RegExec,
// which starts the staged operation, and returns when the burst
// completes.
func (m *Module) Execute(at sim.Time, ba uint8) (done sim.Time, err error) {
	return m.WindowWrite(at, ba, RegExec, execTouch[:])
}

// PollStatus reads the status register via the window until it reports
// ready, charging one read burst per poll at the given interval, and
// returns the time the ready value was observed. It gives up after
// maxPolls to keep bugs from hanging a simulation.
func (m *Module) PollStatus(at sim.Time, ba uint8, interval sim.Duration, maxPolls int) (ready sim.Time, err error) {
	if interval <= 0 {
		return 0, fmt.Errorf("pram: poll interval must be positive")
	}
	t := at
	var status [1]byte
	for i := 0; i < maxPolls; i++ {
		done, col, err := m.activateWindowRow(t, ba, RegStatus)
		if err != nil {
			return 0, err
		}
		if done, err = m.ReadBurstInto(done, ba, col, status[:]); err != nil {
			return 0, err
		}
		if status[0] == StatusReady {
			return done, nil
		}
		t = done + interval
	}
	return 0, fmt.Errorf("pram: device still busy after %d status polls", maxPolls)
}
