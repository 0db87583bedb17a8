package lpddr

import "testing"

// FuzzDecode hammers the packet decoder: no input may panic, and every
// successfully decoded command must re-encode to the same packet.
func FuzzDecode(f *testing.F) {
	f.Add(uint32(0))
	f.Add(uint32(MustEncode(Command{Op: OpPreactive, BA: 2, Addr: 0x1FFF})))
	f.Add(uint32(MustEncode(Command{Op: OpWrite, BA: 1, Addr: 0x3FFF})))
	f.Add(uint32(1<<20 - 1))
	f.Add(uint32(1 << 20))
	f.Fuzz(func(t *testing.T, raw uint32) {
		c, err := Decode(Packet(raw))
		if err != nil {
			return
		}
		p, err := Encode(c)
		if err != nil {
			t.Fatalf("decoded command %v does not re-encode: %v", c, err)
		}
		if uint32(p) != raw {
			t.Fatalf("round trip %#x -> %v -> %#x", raw, c, uint32(p))
		}
	})
}

// FuzzTracker feeds arbitrary command streams: the protocol checker must
// never panic and never report an activated pair it did not see activate.
func FuzzTracker(f *testing.F) {
	f.Add([]byte{1, 0, 2, 0, 3, 0})
	f.Add([]byte{3, 1})
	f.Fuzz(func(t *testing.T, stream []byte) {
		tr := NewTracker(4)
		for i := 0; i+1 < len(stream); i += 2 {
			c := Command{Op: Op(stream[i] % uint8(numOps)), BA: stream[i+1] % 4}
			err := tr.Observe(c)
			switch c.Op {
			case OpActivate:
				if err == nil && !tr.Loaded(c.BA) {
					t.Fatal("activate accepted without a loaded RAB")
				}
			case OpRead, OpWrite:
				if err == nil && !tr.Activated(c.BA) {
					t.Fatal("data phase accepted without activation")
				}
			}
		}
	})
}

// MustEncode is Encode for commands known to be in range; it panics on
// error and is intended for tests.
func MustEncode(c Command) Packet {
	p, err := Encode(c)
	if err != nil {
		panic(err)
	}
	return p
}
