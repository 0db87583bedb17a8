// Package lpddr models the LPDDR2-NVM memory interface protocol
// (JESD209-2B) that the DRAM-less PRAM subsystem speaks: the three-phase
// addressing command set (pre-active, activate, read/write), the 20-bit
// double-data-rate signal packets the FPGA command generator emits, and
// the interface timing parameters characterized in Table II of the paper.
package lpddr

import (
	"fmt"

	"dramless/internal/sim"
)

// Params holds the characterized LPDDR2-NVM interface timing of the 3x nm
// multi-partition PRAM engineering samples (Table II of the paper) plus
// the device-level program/erase behaviour discussed in Sections II and V.
//
// Interface latencies expressed in cycles are relative to TCK (400 MHz
// interface clock, 2.5 ns). tDQSCK and tDQSS are specified as ranges in
// the standard; the model uses the deterministic midpoint so simulations
// are reproducible.
type Params struct {
	// Interface clock period (tCK). 2.5 ns at 400 MHz.
	TCK sim.Duration

	// RLCycles is the read latency in cycles between a read-phase command
	// and the first data strobe (RL = 6).
	RLCycles int
	// WLCycles is the write latency in cycles between a write-phase
	// command and the first write data (WL = 3).
	WLCycles int
	// TRPCycles is the pre-active time in cycles: how long the target RAB
	// takes to latch an upper row address (tRP = 3, the LPDDR2-NVM
	// analogue of the row-precharge time).
	TRPCycles int
	// TRCD is the activate time: composing the full row address from the
	// RAB contents plus the lower row address, decoding it, and sensing
	// the 256-bit row into the RDB (tRCD = 80 ns).
	TRCD sim.Duration
	// TDQSCK is the data strobe output access time (2.5-5.5 ns range;
	// midpoint 4 ns used).
	TDQSCK sim.Duration
	// TDQSS is the write strobe alignment time (0.75-1.25 ns range;
	// midpoint 1 ns used).
	TDQSS sim.Duration
	// TWRA is the write recovery time after a program-buffer burst
	// (tWRA = 15 ns).
	TWRA sim.Duration
	// BurstLen is the data burst length in 16-bit beats per read/write
	// phase command: BL4, BL8 or BL16 -> tBURST of 4/8/16 half-cycles...
	// The device transfers two beats per clock (DDR), so a BL16 burst
	// occupies 8 interface clocks.
	BurstLen int

	// NumRAB is the number of row address buffer / row data buffer pairs
	// per PRAM module (4).
	NumRAB int
	// RDBBytes is the capacity of one row data buffer: the 256-bit row
	// width of the multi-partition bank (32 B).
	RDBBytes int
	// Partitions is the number of array partitions per bank (16).
	Partitions int
	// Channels and Packages describe the subsystem topology: 2 channels,
	// each with 16 PRAM packages (Table II).
	Channels int
	Packages int

	// CellProgram is the time the PRAM array needs to program a fresh
	// (pristine) word: a SET-dominated pulse train (~10 us).
	CellProgram sim.Duration
	// CellOverwriteExtra is the additional RESET sequence an overwrite of
	// already-programmed cells requires (~8 us, for the paper's
	// "overwrites require extra 8 us", i.e. 18 us total).
	CellOverwriteExtra sim.Duration
	// CellSetOnly is the program time when the target cells were
	// selectively erased (all-zero, pristine) in advance, so only SET
	// pulses are needed. The paper reports 44-55% overwrite latency
	// reduction; SET-only programming of an erased word costs the fresh
	// program time (10 us vs 18 us = 44% reduction).
	CellSetOnly sim.Duration
	// CellErase is the latency of a bulk erase operation, measured at
	// ~60 ms on the engineering samples - 3000x an overwrite - which is
	// why DRAM-less never erases on the data path and uses selective
	// erasing instead.
	CellErase sim.Duration
}

// Default returns the Table II parameter set for the 3x nm multi-partition
// PRAM used throughout the paper.
func Default() Params {
	return Params{
		TCK:       sim.Nanoseconds(2.5),
		RLCycles:  6,
		WLCycles:  3,
		TRPCycles: 3,
		TRCD:      sim.Nanoseconds(80),
		TDQSCK:    sim.Nanoseconds(4), // 2.5-5.5 ns range midpoint
		TDQSS:     sim.Nanoseconds(1), // 0.75-1.25 ns range midpoint
		TWRA:      sim.Nanoseconds(15),
		BurstLen:  16,

		NumRAB:     4,
		RDBBytes:   32,
		Partitions: 16,
		Channels:   2,
		Packages:   16,

		CellProgram:        sim.Microseconds(10),
		CellOverwriteExtra: sim.Microseconds(8),
		CellSetOnly:        sim.Microseconds(10),
		CellErase:          sim.Milliseconds(60),
	}
}

// Validate reports a descriptive error for parameter combinations the
// model cannot represent.
func (p *Params) Validate() error {
	switch {
	case p.TCK <= 0:
		return fmt.Errorf("lpddr: TCK must be positive, got %v", p.TCK)
	case p.RLCycles <= 0 || p.WLCycles <= 0 || p.TRPCycles <= 0:
		return fmt.Errorf("lpddr: RL/WL/tRP cycles must be positive (got %d/%d/%d)",
			p.RLCycles, p.WLCycles, p.TRPCycles)
	case p.TRCD <= 0:
		return fmt.Errorf("lpddr: tRCD must be positive, got %v", p.TRCD)
	case p.BurstLen != 4 && p.BurstLen != 8 && p.BurstLen != 16:
		return fmt.Errorf("lpddr: burst length must be 4, 8 or 16, got %d", p.BurstLen)
	case p.NumRAB <= 0 || p.NumRAB > 4:
		return fmt.Errorf("lpddr: NumRAB must be 1..4 (2-bit BA field), got %d", p.NumRAB)
	case p.RDBBytes <= 0:
		return fmt.Errorf("lpddr: RDBBytes must be positive, got %d", p.RDBBytes)
	case p.Partitions <= 0:
		return fmt.Errorf("lpddr: Partitions must be positive, got %d", p.Partitions)
	case p.Channels <= 0 || p.Channels&(p.Channels-1) != 0 || p.Packages <= 0 || p.Packages&(p.Packages-1) != 0:
		// Powers of two let the controller split an address into
		// channel, package and row with shifts and masks.
		return fmt.Errorf("lpddr: channels and packages must be positive powers of two (channels=%d packages=%d)",
			p.Channels, p.Packages)
	case p.CellProgram <= 0 || p.CellErase <= 0:
		return fmt.Errorf("lpddr: cell program/erase times must be positive")
	}
	return nil
}

// Derived timing ------------------------------------------------------

// TRP returns the pre-active phase time.
func (p *Params) TRP() sim.Duration { return sim.Duration(p.TRPCycles) * p.TCK }

// RL returns the read latency as a duration.
func (p *Params) RL() sim.Duration { return sim.Duration(p.RLCycles) * p.TCK }

// WL returns the write latency as a duration.
func (p *Params) WL() sim.Duration { return sim.Duration(p.WLCycles) * p.TCK }

// TBurst returns the time one data burst occupies the 16-bit DDR bus:
// BurstLen beats at two beats per clock.
func (p *Params) TBurst() sim.Duration {
	return sim.Duration(p.BurstLen/2) * p.TCK
}

// ReadPreamble returns RL + tDQSCK: command to first read data.
func (p *Params) ReadPreamble() sim.Duration { return p.RL() + p.TDQSCK }

// WritePreamble returns WL + tDQSS: command to first write data.
func (p *Params) WritePreamble() sim.Duration { return p.WL() + p.TDQSS }

// RowReadLatency returns the uncontended latency of a full three-phase
// row read: pre-active + activate + read preamble + one burst. This is
// the paper's ~100 ns end-to-end PRAM read.
func (p *Params) RowReadLatency() sim.Duration {
	return p.TRP() + p.TRCD + p.ReadPreamble() + p.TBurst()
}

// ProgramTime returns the array program time for a write, which depends
// on the state of the target cells:
//
//	fresh (never programmed)      -> CellProgram
//	overwrite (programmed cells)  -> CellProgram + CellOverwriteExtra
//	erased (selectively pre-RESET)-> CellSetOnly
func (p *Params) ProgramTime(state CellState) sim.Duration {
	switch state {
	case CellFresh:
		return p.CellProgram
	case CellProgrammed:
		return p.CellProgram + p.CellOverwriteExtra
	case CellErased:
		return p.CellSetOnly
	default:
		panic(fmt.Sprintf("lpddr: unknown cell state %d", state))
	}
}

// CellState describes the condition of a program unit (word) before a
// write, which determines program latency (Section V, selective erasing).
type CellState uint8

const (
	// CellFresh cells have never been programmed since manufacture.
	CellFresh CellState = iota
	// CellProgrammed cells hold data; an overwrite needs RESET then SET.
	CellProgrammed
	// CellErased cells were selectively erased (programmed all-zero), so
	// a write needs only the SET pulses.
	CellErased
)

// String implements fmt.Stringer.
func (s CellState) String() string {
	switch s {
	case CellFresh:
		return "fresh"
	case CellProgrammed:
		return "programmed"
	case CellErased:
		return "erased"
	default:
		return fmt.Sprintf("CellState(%d)", int(s))
	}
}
