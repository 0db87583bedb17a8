package pram

import (
	"fmt"

	"dramless/internal/lpddr"
	"dramless/internal/sim"
)

// Mode registers the initializer programs during boot-up (Section V-B:
// "the initializer handles all PRAMs' boot-up process by enabling auto
// initialization, calibrating on-die impedance tasks and setting up the
// burst length and overlay window address").
const (
	MRAutoInit    = 0x00 // writing 1 starts device auto-initialization
	MRZQCalibrate = 0x01 // on-die impedance calibration
	MRBurstLen    = 0x02 // burst length: 4, 8 or 16
	MROWBA0       = 0x03 // OWBA row address, bits [7:0]
	MROWBA1       = 0x04 // OWBA row address, bits [15:8]
	MROWBA2       = 0x05 // OWBA row address, bits [23:16]
	MROWBA3       = 0x06 // OWBA row address, bits [31:24]
	MRStatus      = 0x07 // MRR: device ready flag
)

// Boot-time latencies. Auto-initialization and ZQ calibration are one-off
// costs during power-up and do not affect steady-state results.
const (
	autoInitTime = 150 * sim.Microsecond
	zqCalTime    = 50 * sim.Microsecond
	mrwTime      = 4 * sim.Nanosecond
)

// initState tracks boot progress for MRR(MRStatus).
type initState struct {
	owbaRow uint32
	readyAt sim.Time
	booted  bool
}

// ModeRegisterWrite applies an MRW command at time at and returns when the
// register update (or triggered calibration) completes.
func (m *Module) ModeRegisterWrite(at sim.Time, reg uint32, val uint8) (done sim.Time, err error) {
	if err := m.receive(lpddr.OpMRW, 0, reg); err != nil {
		return 0, err
	}
	switch reg {
	case MRAutoInit:
		m.boot.readyAt = at + autoInitTime
		m.boot.booted = true
		return m.boot.readyAt, nil
	case MRZQCalibrate:
		m.boot.readyAt = sim.Max(m.boot.readyAt, at+zqCalTime)
		return m.boot.readyAt, nil
	case MRBurstLen:
		switch val {
		case 4, 8, 16:
			m.par.BurstLen = int(val)
		default:
			return 0, fmt.Errorf("pram: MRW burst length %d not in {4,8,16}", val)
		}
	case MROWBA0, MROWBA1, MROWBA2, MROWBA3:
		sh := (reg - MROWBA0) * 8
		m.boot.owbaRow = m.boot.owbaRow&^(0xFF<<sh) | uint32(val)<<sh
		if reg == MROWBA3 {
			base := uint64(m.boot.owbaRow) * uint64(m.geo.RowBytes)
			if err := m.SetOWBA(base); err != nil {
				return 0, err
			}
		}
	default:
		return 0, fmt.Errorf("pram: MRW to unknown mode register %#x", reg)
	}
	return at + mrwTime, nil
}

// ModeRegisterRead returns the value of a mode register at time at.
func (m *Module) ModeRegisterRead(at sim.Time, reg uint32) (val uint8, done sim.Time, err error) {
	if err := m.receive(lpddr.OpMRR, 0, reg); err != nil {
		return 0, 0, err
	}
	switch reg {
	case MRStatus:
		if m.boot.booted && at >= m.boot.readyAt {
			return StatusReady, at + mrwTime, nil
		}
		return StatusBusy, at + mrwTime, nil
	case MRBurstLen:
		return uint8(m.par.BurstLen), at + mrwTime, nil
	default:
		return 0, 0, fmt.Errorf("pram: MRR from unsupported mode register %#x", reg)
	}
}

// Ready reports whether boot completed by time at.
func (m *Module) Ready(at sim.Time) bool { return m.boot.booted && at >= m.boot.readyAt }
