package pram

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"dramless/internal/sim"
)

// windowBurst binds the window row holding offset off on buffer pair ba
// and issues one write-phase burst of data at off's column.
func windowBurst(t *testing.T, m *Module, at sim.Time, ba uint8, off uint64, data []byte) (sim.Time, error) {
	t.Helper()
	done, col, err := m.activateWindowRow(at, ba, off)
	if err != nil {
		t.Fatal(err)
	}
	return m.WriteBurst(done, ba, col, data)
}

func TestOverlayProgramBufferBursts(t *testing.T) {
	m := testModule(t)
	rb := uint64(m.geo.RowBytes)
	want := make([]byte, ProgBufSize)
	for _, b := range []struct {
		name string
		off  uint64 // window offset
		n    int
	}{
		{"full row", ProgBufOffset, int(rb)},
		{"partial row", ProgBufOffset + rb, 12},
		{"offset within row", ProgBufOffset + 2*rb + 20, 8},
		{"last row tail", ProgBufOffset + ProgBufSize - 4, 4},
	} {
		data := bytes.Repeat([]byte{byte(b.off)}, b.n)
		for i := range data {
			data[i] += byte(i)
		}
		before := m.Stats().WriteBursts
		if _, err := windowBurst(t, m, 0, 1, b.off, data); err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		copy(want[b.off-ProgBufOffset:], data)
		if got := m.Stats().WriteBursts - before; got != 1 {
			t.Fatalf("%s: WriteBursts grew by %d, want 1", b.name, got)
		}
		if !bytes.Equal(m.ow.progBuf[:], want) {
			t.Fatalf("%s: program buffer = %x, want %x", b.name, m.ow.progBuf, want)
		}
	}
	if s := m.Stats(); s.Programs != 0 {
		t.Fatalf("program-buffer bursts started %d programs", s.Programs)
	}
}

func TestOverlayProgramHeaderBurst(t *testing.T) {
	m := testModule(t)
	hdr := ProgramHeader(0x1234, 24)
	if _, err := windowBurst(t, m, 0, 0, RegCode, hdr); err != nil {
		t.Fatal(err)
	}
	if m.ow.code != CmdProgram || m.ow.addr != 0x1234 || m.ow.multi != 24 {
		t.Fatalf("registers code=%#x addr=%#x multi=%d, want %#x/0x1234/24",
			m.ow.code, m.ow.addr, m.ow.multi, CmdProgram)
	}
	if got := m.Stats().WriteBursts; got != 1 {
		t.Fatalf("WriteBursts = %d, want 1", got)
	}
	// The reserved gaps between the fields ignore writes and read as zero.
	rb := m.geo.RowBytes
	got, _, err := readBurst(m, 0, 0, 0, rb)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:len(hdr)], hdr) || !bytes.Equal(got[len(hdr):], make([]byte, rb-len(hdr))) {
		t.Fatalf("register row reads %x, want header %x then zeros", got, hdr)
	}
}

func TestOverlayExecBurstStartsOneProgram(t *testing.T) {
	m := testModule(t)
	data := bytes.Repeat([]byte{0x5A}, 32)
	d, err := windowBurst(t, m, 0, 0, RegCode, ProgramHeader(9, len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if d, err = windowBurst(t, m, d, 1, ProgBufOffset, data); err != nil {
		t.Fatal(err)
	}
	// A burst covering RegExec plus the unmapped bytes after it is
	// rejected before anything executes.
	if _, err := windowBurst(t, m, d, 2, RegExec, []byte{1, 0, 0, 0}); err == nil ||
		!strings.Contains(err.Error(), "unmapped") {
		t.Fatalf("exec burst into unmapped space: err = %v, want unmapped-offset error", err)
	}
	if s := m.Stats(); s.Programs != 0 {
		t.Fatalf("rejected exec burst started %d programs", s.Programs)
	}
	before := m.Stats().WriteBursts
	if _, err := windowBurst(t, m, d, 2, RegExec, []byte{1}); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.Programs != 1 {
		t.Fatalf("exec burst started %d programs, want 1", s.Programs)
	}
	if s.WriteBursts-before != 1 {
		t.Fatalf("exec burst counted %d bursts, want 1", s.WriteBursts-before)
	}
	if got := m.PeekRow(9); !bytes.Equal(got, data) {
		t.Fatalf("programmed row = %x, want %x", got, data)
	}
}

func TestOverlayMetaBurstRejected(t *testing.T) {
	m := testModule(t)
	rb := uint64(m.geo.RowBytes)
	for _, off := range []uint64{0, 128 - rb, 128 - 2} {
		_, err := windowBurst(t, m, 0, 0, off, []byte{1, 2})
		if err == nil || !strings.Contains(err.Error(), "read-only") {
			t.Fatalf("burst at meta +%#x: err = %v, want read-only error", off, err)
		}
	}
	if s := m.Stats(); s.WriteBursts != 0 {
		t.Fatalf("rejected bursts counted: %d bursts", s.WriteBursts)
	}
	// Meta-information is unchanged.
	d, col, err := m.activateWindowRow(0, 0, RegWindowSize)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := readBurst(m, d, 0, col, 12)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, newOverlay(0).meta[:12]) {
		t.Fatalf("meta reads %x after rejected writes", got)
	}
}

// TestOverlayBurstMatchesByteWrites drives random bursts at the register
// rows, the meta rows, unmapped rows and the program buffer, and checks
// each against a byte-at-a-time write through writeReg: same error or
// success, same register file afterwards (bytes ahead of a rejected
// offset included).
func TestOverlayBurstMatchesByteWrites(t *testing.T) {
	m := testModule(t)
	ref := newOverlay(m.ow.base)
	rb := m.geo.RowBytes
	rows := []uint64{0x00, 0x60, 0x80, 0xA0, 0xE0, 0x100, 0x7E0}
	for r := uint64(ProgBufOffset); r < WindowSize; r += uint64(rb) {
		rows = append(rows, r)
	}
	rng := rand.New(rand.NewSource(7))
	var at sim.Time
	for i := 0; i < 2000; i++ {
		row := rows[rng.Intn(len(rows))]
		col := rng.Intn(rb)
		data := make([]byte, 1+rng.Intn(rb-col))
		rng.Read(data)
		done, err := windowBurst(t, m, at, uint8(rng.Intn(4)), row+uint64(col), data)
		var refErr error
		for j, b := range data {
			off := row + uint64(col+j)
			if off >= ProgBufOffset {
				ref.progBuf[off-ProgBufOffset] = b
				continue
			}
			if refErr = ref.writeReg(off, b); refErr != nil {
				break
			}
		}
		if (err == nil) != (refErr == nil) {
			t.Fatalf("burst %d at +%#x len %d: err %v, byte-wise err %v", i, row+uint64(col), len(data), err, refErr)
		}
		if *m.ow != *ref {
			t.Fatalf("burst %d at +%#x len %d: register file differs from byte-wise writes", i, row+uint64(col), len(data))
		}
		if err == nil {
			at = done
		}
	}
}

// TestSegmentFootprint pins the host memory of a materialized row
// segment, one cap per storage kind, so widening a slab's element type
// fails here instead of quietly growing the simulator's resident set:
// content (data, cell state, written flag) within 41 B per row, and the
// two timestamps 16 B per row of a stamped segment. A segment touched
// only by LoadRow - the bulk of every populated input - holds no
// timestamp storage at all.
func TestSegmentFootprint(t *testing.T) {
	m := testModule(t)
	if err := m.LoadRow(3, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	s, _ := m.peek(3)
	if s == nil || s.content.data == nil {
		t.Fatal("LoadRow did not materialize segment content")
	}
	if s.stamps != nil {
		t.Fatal("LoadRow allocated timestamp storage")
	}
	c := s.content
	content := len(c.data)*int(unsafe.Sizeof(c.data[0])) +
		len(c.state)*int(unsafe.Sizeof(c.state[0])) +
		len(c.written)*int(unsafe.Sizeof(c.written[0]))
	if perRow := content / segRows; perRow > 41 {
		t.Errorf("content slabs take %d B per row, want <= 41", perRow)
	}

	readRow(t, m, 0, 3)
	if s, _ = m.peek(3); s.stamps == nil {
		t.Fatal("an activation did not allocate timestamp storage")
	}
	if perRow := int(unsafe.Sizeof(*s.stamps)) / segRows; perRow != 16 {
		t.Errorf("timestamps take %d B per stamped row, want 16", perRow)
	}
}
