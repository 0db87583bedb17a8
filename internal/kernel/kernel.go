// Package kernel implements the DRAM-less programming and offload model
// (Section IV, Figures 8-10): kernel images packed on the host with
// packData/pushData, shipped over PCIe into a designated image space in
// PRAM, unpacked by the server PE (unpackData), and dispatched to agents
// by storing each agent's boot address and cycling it through the
// power/sleep controller.
package kernel

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"dramless/internal/mem"
	"dramless/internal/sim"
)

// Magic marks a packed kernel image.
var Magic = [4]byte{'D', 'L', 'K', '1'}

// App is one application kernel within an image.
type App struct {
	// BootAddr is the accelerator-memory address the code segment must
	// be loaded to; agents boot from it ("updating PE's magic address
	// with kernel's boot entry address").
	BootAddr uint64
	// Code is the kernel binary.
	Code []byte
}

// Image is the unpacked form: per-app code segments plus the shared
// common code of Figure 10's metadata.
type Image struct {
	// SharedAddr is where the shared segment loads.
	SharedAddr uint64
	// Shared is code common to all apps (runtime, math library).
	Shared []byte
	// Apps are the per-agent kernels.
	Apps []App
}

// Validate reports structural errors.
func (img *Image) Validate() error {
	if len(img.Apps) == 0 {
		return fmt.Errorf("kernel: image with no apps")
	}
	for i, a := range img.Apps {
		if len(a.Code) == 0 {
			return fmt.Errorf("kernel: app %d has no code", i)
		}
	}
	return nil
}

// Pack serializes the image (the host-side packData interface). Layout:
//
//	magic[4] | numApps u16 | sharedAddr u64 | sharedLen u32
//	| apps: {bootAddr u64, codeLen u32} x numApps
//	| shared bytes | app code bytes...
func Pack(img *Image) ([]byte, error) {
	if err := img.Validate(); err != nil {
		return nil, err
	}
	if len(img.Apps) > 0xFFFF {
		return nil, fmt.Errorf("kernel: %d apps exceed the 16-bit header field", len(img.Apps))
	}
	var buf bytes.Buffer
	buf.Write(Magic[:])
	bin := binary.LittleEndian
	var tmp [8]byte
	bin.PutUint16(tmp[:2], uint16(len(img.Apps)))
	buf.Write(tmp[:2])
	bin.PutUint64(tmp[:], img.SharedAddr)
	buf.Write(tmp[:8])
	bin.PutUint32(tmp[:4], uint32(len(img.Shared)))
	buf.Write(tmp[:4])
	for _, a := range img.Apps {
		bin.PutUint64(tmp[:], a.BootAddr)
		buf.Write(tmp[:8])
		bin.PutUint32(tmp[:4], uint32(len(a.Code)))
		buf.Write(tmp[:4])
	}
	buf.Write(img.Shared)
	for _, a := range img.Apps {
		buf.Write(a.Code)
	}
	return buf.Bytes(), nil
}

// Unpack parses a packed image (the server-side unpackData interface).
func Unpack(data []byte) (*Image, error) {
	if len(data) < 18 || !bytes.Equal(data[:4], Magic[:]) {
		return nil, fmt.Errorf("kernel: bad image magic")
	}
	bin := binary.LittleEndian
	n := int(bin.Uint16(data[4:6]))
	img := &Image{SharedAddr: bin.Uint64(data[6:14])}
	sharedLen := int(bin.Uint32(data[14:18]))
	off := 18
	type hdr struct {
		boot uint64
		size int
	}
	hdrs := make([]hdr, n)
	for i := 0; i < n; i++ {
		if off+12 > len(data) {
			return nil, fmt.Errorf("kernel: truncated app header %d", i)
		}
		hdrs[i] = hdr{boot: bin.Uint64(data[off : off+8]), size: int(bin.Uint32(data[off+8 : off+12]))}
		off += 12
	}
	if off+sharedLen > len(data) {
		return nil, fmt.Errorf("kernel: truncated shared segment")
	}
	img.Shared = append([]byte(nil), data[off:off+sharedLen]...)
	off += sharedLen
	for i := 0; i < n; i++ {
		if off+hdrs[i].size > len(data) {
			return nil, fmt.Errorf("kernel: truncated code for app %d", i)
		}
		img.Apps = append(img.Apps, App{
			BootAddr: hdrs[i].boot,
			Code:     append([]byte(nil), data[off:off+hdrs[i].size]...),
		})
		off += hdrs[i].size
	}
	if err := img.Validate(); err != nil {
		return nil, err
	}
	return img, nil
}

// Pusher delivers bytes from the host into accelerator memory; the system
// package implements it over PCIe + the server path. A plain function
// type keeps this package free of interconnect dependencies.
type Pusher func(at sim.Time, dst uint64, data []byte) (sim.Time, error)

// Offload performs the full Figure 9b flow against an accelerator memory:
//
//  1. pushData ships the packed image to imageAddr (a designated image
//     space in PRAM),
//  2. the server reads it back and unpacks it,
//  3. each app's code segment (and the shared segment) is loaded to its
//     target address via server-issued memory writes.
//
// It returns the parsed image, the per-app boot addresses ready for PSC
// launch, and the completion time.
func Offload(at sim.Time, img *Image, imageAddr uint64, push Pusher, acc mem.Device) (*Image, sim.Time, error) {
	packed, err := Pack(img)
	if err != nil {
		return nil, 0, err
	}
	// (1) host -> accelerator image space.
	now, err := push(at, imageAddr, packed)
	if err != nil {
		return nil, 0, err
	}
	// (2) server reads the image back from PRAM and parses it.
	raw, now, err := mem.Read(acc, now, imageAddr, len(packed))
	if err != nil {
		return nil, 0, err
	}
	parsed, err := Unpack(raw)
	if err != nil {
		return nil, 0, err
	}
	// (3) load segments to their target addresses.
	if len(parsed.Shared) > 0 {
		if now, err = acc.Write(now, parsed.SharedAddr, parsed.Shared); err != nil {
			return nil, 0, err
		}
	}
	for _, a := range parsed.Apps {
		if now, err = acc.Write(now, a.BootAddr, a.Code); err != nil {
			return nil, 0, err
		}
	}
	return parsed, now, nil
}
