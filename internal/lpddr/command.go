package lpddr

import "fmt"

// Op is the operation class of an LPDDR2-NVM command.
type Op uint8

// Command opcodes. The FPGA command generator disassembles every memory
// request into a sequence of these (Section V-B of the paper).
const (
	// OpNop is an idle bus cycle.
	OpNop Op = iota
	// OpPreactive selects a RAB with the 2-bit BA field and stores the
	// upper row address into it (first addressing phase).
	OpPreactive
	// OpActivate delivers the lower row address; the device composes the
	// full row address from the selected RAB and senses the row into the
	// paired RDB (second addressing phase).
	OpActivate
	// OpRead delivers a column address and pulls a data burst out of the
	// selected RDB (third addressing phase, read flavour).
	OpRead
	// OpWrite delivers a column address and pushes a data burst toward
	// the overlay window / program buffer (third addressing phase, write
	// flavour). LPDDR2-NVM devices reject writes that target raw array
	// addresses; only overlay-window ranges are writable.
	OpWrite
	// OpMRW is a mode-register write used by the initializer for boot-up:
	// auto-initialization enable, on-die impedance calibration, burst
	// length and overlay window base address setup.
	OpMRW
	// OpMRR is a mode-register read (status polling during boot).
	OpMRR

	numOps
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpNop:
		return "NOP"
	case OpPreactive:
		return "PREACTIVE"
	case OpActivate:
		return "ACTIVATE"
	case OpRead:
		return "READ"
	case OpWrite:
		return "WRITE"
	case OpMRW:
		return "MRW"
	case OpMRR:
		return "MRR"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Command is one decoded LPDDR2-NVM command.
type Command struct {
	Op Op
	// BA selects one of up to four RAB/RDB pairs (2-bit field).
	BA uint8
	// Addr is the op-dependent address payload: upper row address for
	// PREACTIVE, lower row address for ACTIVATE, column address for
	// READ/WRITE, register number for MRW/MRR. At most AddrBits bits.
	Addr uint32
}

// AddrBits is the width of a command's address field, and so of the
// upper row address a RAB holds, the lower row address ACTIVATE carries
// and the column a READ or WRITE names.
const AddrBits = 14

// Packet is the 20-bit DDR signal packet the PRAM PHY ships per command:
// operation type in the top 4 bits, row-buffer address in 2 bits, and a
// 14-bit address field (the paper's 2~4-bit op, 2-bit buffer address and
// 7~15-bit target address, realized with fixed field widths).
type Packet uint32

const (
	packetBits = 20
	opShift    = 16
	opMask     = 0xF
	baShift    = 14
	baMask     = 0x3
	addrMask   = 1<<AddrBits - 1
)

// Encode packs a command into its signal packet. It returns an error when
// a field does not fit, which would silently corrupt the command on a real
// bus.
func Encode(c Command) (Packet, error) {
	if c.Op >= numOps {
		return 0, fmt.Errorf("lpddr: unknown opcode %d", c.Op)
	}
	if c.BA > baMask {
		return 0, fmt.Errorf("lpddr: BA %d exceeds 2-bit field", c.BA)
	}
	if c.Addr > addrMask {
		return 0, fmt.Errorf("lpddr: address %#x exceeds 14-bit field for %v", c.Addr, c.Op)
	}
	return Packet(uint32(c.Op)<<opShift | uint32(c.BA)<<baShift | c.Addr), nil
}

// Decode unpacks a signal packet.
func Decode(p Packet) (Command, error) {
	if uint32(p) >= 1<<packetBits {
		return Command{}, fmt.Errorf("lpddr: packet %#x exceeds 20 bits", uint32(p))
	}
	c := Command{
		Op:   Op(uint32(p) >> opShift & opMask),
		BA:   uint8(uint32(p) >> baShift & baMask),
		Addr: uint32(p) & addrMask,
	}
	if c.Op >= numOps {
		return Command{}, fmt.Errorf("lpddr: packet %#x has unknown opcode %d", uint32(p), c.Op)
	}
	return c, nil
}

// String implements fmt.Stringer.
func (c Command) String() string {
	switch c.Op {
	case OpNop:
		return "NOP"
	case OpMRW, OpMRR:
		return fmt.Sprintf("%v reg=%#x", c.Op, c.Addr)
	default:
		return fmt.Sprintf("%v ba=%d addr=%#x", c.Op, c.BA, c.Addr)
	}
}
