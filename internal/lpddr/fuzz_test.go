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

// MustEncode is Encode for commands known to be in range; it panics on
// error and is intended for tests.
func MustEncode(c Command) Packet {
	p, err := Encode(c)
	if err != nil {
		panic(err)
	}
	return p
}
