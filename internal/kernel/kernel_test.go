package kernel

import (
	"bytes"
	"testing"
	"testing/quick"

	"dramless/internal/mem"
	"dramless/internal/memctrl"
	"dramless/internal/sim"
)

func sample() *Image {
	return &Image{
		SharedAddr: 0x10000,
		Shared:     bytes.Repeat([]byte{0xEE}, 300),
		Apps: []App{
			{BootAddr: 0x20000, Code: bytes.Repeat([]byte{1, 2, 3}, 100)},
			{BootAddr: 0x30000, Code: bytes.Repeat([]byte{4, 5}, 64)},
		},
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	img := sample()
	packed, err := Pack(img)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(packed)
	if err != nil {
		t.Fatal(err)
	}
	if got.SharedAddr != img.SharedAddr || !bytes.Equal(got.Shared, img.Shared) {
		t.Fatal("shared segment mismatch")
	}
	if len(got.Apps) != 2 {
		t.Fatalf("apps = %d", len(got.Apps))
	}
	for i := range img.Apps {
		if got.Apps[i].BootAddr != img.Apps[i].BootAddr || !bytes.Equal(got.Apps[i].Code, img.Apps[i].Code) {
			t.Fatalf("app %d mismatch", i)
		}
	}
}

func TestUnpackRejectsCorruptImages(t *testing.T) {
	packed, _ := Pack(sample())
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("XXXX"), packed[4:]...),
		"truncated": packed[:20],
		"cut code":  packed[:len(packed)-5],
	}
	for name, data := range cases {
		if _, err := Unpack(data); err == nil {
			t.Errorf("%s image accepted", name)
		}
	}
}

func TestValidation(t *testing.T) {
	if _, err := Pack(&Image{}); err == nil {
		t.Error("empty image packed")
	}
	if _, err := Pack(&Image{Apps: []App{{BootAddr: 1}}}); err == nil {
		t.Error("app with no code packed")
	}
}

func TestOffloadLoadsSegmentsIntoPRAM(t *testing.T) {
	cfg := memctrl.DefaultPolicyConfig(memctrl.Final)
	cfg.Geometry.RowsPerModule = 1 << 16
	sub, err := memctrl.New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	img := sample()
	var pushed int64
	push := func(at sim.Time, dst uint64, data []byte) (sim.Time, error) {
		pushed += int64(len(data))
		return sub.Write(at, dst, data)
	}
	parsed, done, err := Offload(0, img, 0x1000, push, sub)
	if err != nil {
		t.Fatal(err)
	}
	if done <= 0 || pushed == 0 {
		t.Fatal("offload made no progress")
	}
	settle := sub.Drain()
	// The code segments must now be readable at their boot addresses.
	for i, a := range parsed.Apps {
		got, _, err := sub.Read(settle, a.BootAddr, len(a.Code))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, img.Apps[i].Code) {
			t.Fatalf("app %d code not loaded", i)
		}
	}
	shared, _, err := sub.Read(settle, img.SharedAddr, len(img.Shared))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shared, img.Shared) {
		t.Fatal("shared segment not loaded")
	}
}

func TestOffloadOnFlatMemory(t *testing.T) {
	m := mem.NewFlat("m", 1<<20, sim.Nanoseconds(100), 1e9)
	img := sample()
	push := func(at sim.Time, dst uint64, data []byte) (sim.Time, error) {
		return m.Write(at, dst, data)
	}
	if _, _, err := Offload(0, img, 0, push, m); err != nil {
		t.Fatal(err)
	}
}

// Property: pack/unpack round-trips arbitrary images.
func TestPackRoundTripProperty(t *testing.T) {
	f := func(shared []byte, boot1, boot2 uint32, code1, code2 []byte) bool {
		if len(code1) == 0 {
			code1 = []byte{1}
		}
		if len(code2) == 0 {
			code2 = []byte{2}
		}
		img := &Image{
			SharedAddr: 64,
			Shared:     shared,
			Apps: []App{
				{BootAddr: uint64(boot1), Code: code1},
				{BootAddr: uint64(boot2), Code: code2},
			},
		}
		packed, err := Pack(img)
		if err != nil {
			return false
		}
		got, err := Unpack(packed)
		if err != nil {
			return false
		}
		return bytes.Equal(got.Shared, shared) &&
			got.Apps[0].BootAddr == uint64(boot1) &&
			bytes.Equal(got.Apps[0].Code, code1) &&
			bytes.Equal(got.Apps[1].Code, code2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
