package pram

import (
	"encoding/binary"
	"fmt"
)

// Overlay window register map (Figure 4 and Section V-B of the paper).
// Offsets are bytes from the overlay window base address (OWBA). The
// window occupies WindowSize bytes of the module's address space; the
// program buffer sits at the end of the register region.
const (
	// RegWindowSize..: 128 B of read-only meta-information describing the
	// window (window size, buffer offset, buffer size).
	RegWindowSize   = 0x00 // 4 B: total window size
	RegBufferOffset = 0x04 // 4 B: program buffer offset within the window
	RegBufferSize   = 0x08 // 4 B: program buffer capacity

	// RegCode receives the command code before an execute (OWBA+0x80).
	RegCode = 0x80
	// RegAddr receives the 4-byte target row address (OWBA+0x8B).
	RegAddr = 0x8B
	// RegMulti is the multi-purpose register: burst size in bytes
	// (OWBA+0x93, 2 bytes).
	RegMulti = 0x93
	// RegExec starts the queued operation when written (OWBA+0xC0).
	RegExec = 0xC0
	// RegStatus reads back device progress: StatusReady or StatusBusy
	// (OWBA+0xD0).
	RegStatus = 0xD0

	// ProgBufOffset is where the program buffer begins (OWBA+0x800).
	ProgBufOffset = 0x800
	// ProgBufSize is the program buffer capacity. One row (32 B) is the
	// program unit of the multi-partition bank; we provision 256 B so a
	// controller can stage several rows back to back.
	ProgBufSize = 0x100

	// WindowSize is the total overlay window span.
	WindowSize = ProgBufOffset + ProgBufSize
)

// Command codes written to RegCode.
const (
	// CmdProgram programs the staged program-buffer bytes to the row in
	// RegAddr.
	CmdProgram = 0x41
	// CmdErase bulk-erases the erase segment containing the row in
	// RegAddr (~60 ms; never used on the DRAM-less data path).
	CmdErase = 0x20
)

// Status register values.
const (
	StatusReady = 0x80
	StatusBusy  = 0x00
)

// overlay is the register-file state of one module's overlay window.
type overlay struct {
	base uint64 // OWBA, byte address within the module
	meta [128]byte

	code  uint8
	addr  uint32 // target row address
	multi uint16 // burst size in bytes

	progBuf [ProgBufSize]byte
}

func newOverlay(base uint64) *overlay {
	o := &overlay{base: base}
	binary.LittleEndian.PutUint32(o.meta[RegWindowSize:], WindowSize)
	binary.LittleEndian.PutUint32(o.meta[RegBufferOffset:], ProgBufOffset)
	binary.LittleEndian.PutUint32(o.meta[RegBufferSize:], ProgBufSize)
	return o
}

// contains reports whether module byte address a falls inside the window.
func (o *overlay) contains(a uint64) bool {
	return a >= o.base && a < o.base+WindowSize
}

// containsRow reports whether any byte of the given row falls inside the
// window; the device checks this during tRCD to route the access to the
// register sets instead of the array.
func (o *overlay) containsRow(rowBase uint64, rowBytes int) bool {
	return rowBase+uint64(rowBytes) > o.base && rowBase < o.base+WindowSize
}

// write stores a burst of data at window offset off and reports whether
// it covered RegExec, whose write starts the staged operation (the module
// runs it). Program-buffer bytes move with one copy; register bytes go
// through writeReg one at a time. Bytes before a rejected offset stay
// written, as they would on a device that latches each beat.
func (o *overlay) write(off uint64, data []byte) (exec bool, err error) {
	for len(data) > 0 {
		if off >= ProgBufOffset && off < ProgBufOffset+ProgBufSize {
			n := copy(o.progBuf[off-ProgBufOffset:], data)
			data, off = data[n:], off+uint64(n)
			continue
		}
		if err := o.writeReg(off, data[0]); err != nil {
			return false, err
		}
		if off == RegExec {
			exec = true
		}
		data, off = data[1:], off+1
	}
	return exec, nil
}

// writeReg stores one byte at register offset off.
func (o *overlay) writeReg(off uint64, b byte) error {
	switch {
	case off < 128:
		return fmt.Errorf("pram: overlay meta-information at +%#x is read-only", off)
	case off == RegCode:
		o.code = b
	case off >= RegAddr && off < RegAddr+4:
		sh := (off - RegAddr) * 8
		o.addr = o.addr&^(0xFF<<sh) | uint32(b)<<sh
	case off >= RegMulti && off < RegMulti+2:
		sh := (off - RegMulti) * 8
		o.multi = o.multi&^(0xFF<<sh) | uint16(b)<<sh
	case off == RegExec:
		// Value ignored; the act of writing starts the operation (write
		// reports it to the module).
	case off > RegCode && off < RegExec:
		// Reserved space between the register fields: real devices
		// ignore writes there, which lets a controller update the whole
		// register row with one burst.
	default:
		return fmt.Errorf("pram: write to unmapped overlay offset +%#x", off)
	}
	return nil
}

// read returns the byte at window offset off. Status is synthesized by
// the module (it depends on simulated time) and must not reach here.
func (o *overlay) read(off uint64) (byte, error) {
	switch {
	case off < 128:
		return o.meta[off], nil
	case off == RegCode:
		return o.code, nil
	case off >= RegAddr && off < RegAddr+4:
		return byte(o.addr >> ((off - RegAddr) * 8)), nil
	case off >= RegMulti && off < RegMulti+2:
		return byte(o.multi >> ((off - RegMulti) * 8)), nil
	case off == RegExec:
		return 0, nil
	case off >= ProgBufOffset && off < ProgBufOffset+ProgBufSize:
		return o.progBuf[off-ProgBufOffset], nil
	case off > RegCode && off < RegExec:
		return 0, nil // reserved register space reads as zero
	default:
		return 0, fmt.Errorf("pram: read from unmapped overlay offset +%#x", off)
	}
}
