package pram

import (
	"testing"

	"dramless/internal/lpddr"
	"dramless/internal/sim"
)

// FuzzModuleProtocol runs arbitrary PREACTIVE/ACTIVATE/READ/WRITE/MRW
// sequences, four bytes per command (op, BA, two argument bytes), on a
// small 2-RAB module whose overlay window rows an ACTIVATE can reach.
// The module must never panic, never accept an ACTIVATE whose RAB was
// never loaded, and never accept a data phase on a pair that has not
// been activated since its last PREACTIVE.
func FuzzModuleProtocol(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 9, 0, 2, 0, 0, 8})                                  // legal row read
	f.Add([]byte{2, 1, 0, 8, 1, 3, 0, 0, 0, 3, 0, 0})                                  // illegal first phases, BA 3
	f.Add([]byte{0, 1, 0, 0x60, 1, 1, 0, 0x5e, 3, 1, 0, 4, 0, 1, 0, 0x60, 2, 1, 0, 4}) // window write, re-PREACTIVE, READ
	f.Add([]byte{4, 0, 0, 1, 4, 0, 3, 0x20, 4, 0, 6, 0})                               // boot MRWs and an OWBA remap
	f.Fuzz(func(t *testing.T, stream []byte) {
		geo := DefaultGeometry()
		geo.RowsPerModule = 1 << 10
		geo.LowerBits = 8
		par := lpddr.Default()
		par.NumRAB = 2
		m := MustNewModule(geo, par)
		var loaded, activated [256]bool
		at := sim.Time(0)
		for i := 0; i+3 < len(stream); i += 4 {
			op, ba := stream[i]%5, stream[i+1]%4
			arg := uint32(stream[i+2]) | uint32(stream[i+3])<<8
			var done sim.Time
			var err error
			switch op {
			case 0:
				// Upper rows 0..7: the module has 4, so ACTIVATE sees
				// rows past its end as well.
				if done, err = m.Preactive(at, ba, arg>>13); err == nil {
					loaded[ba], activated[ba] = true, false
				}
			case 1:
				// Lower addresses up to 9 bits: half overflow LowerBits.
				done, err = m.Activate(at, ba, arg>>7)
				if err == nil {
					if !loaded[ba] {
						t.Fatalf("ACTIVATE on BA %d accepted without a loaded RAB", ba)
					}
					activated[ba] = true
				}
			case 2, 3:
				col, n := int(int8(stream[i+2]))%40, int(stream[i+3])%40
				buf := make([]byte, n)
				if op == 2 {
					done, err = m.ReadBurstInto(at, ba, col, buf)
				} else {
					done, err = m.WriteBurst(at, ba, col, buf)
				}
				if err == nil && !activated[ba] {
					t.Fatalf("%v on BA %d accepted without activation", lpddr.Op(op+1), ba)
				}
			case 4:
				done, err = m.ModeRegisterWrite(at, uint32(stream[i+2])%9, stream[i+3])
			}
			if err == nil {
				at = max(at, done)
			}
		}
	})
}
