// Package flash models the NAND arrays used by the Table I baselines:
// SLC/MLC/TLC dies with page-granule reads and programs, block erases,
// per-die parallelism, and a shared channel bus. A generalized profile
// also covers the byte-serial PRAM media of Optane-like SSDs and the
// parallel NOR-interface PRAM, so the ssd package can build every storage
// configuration the paper compares.
package flash

import (
	"fmt"

	"dramless/internal/mem"
	"dramless/internal/sim"
)

// Profile characterizes one storage medium (Table I latencies).
type Profile struct {
	Name          string
	PageBytes     int
	PagesPerBlock int
	Dies          int          // independently operating dies/planes
	ReadPage      sim.Duration // whole-page sense time
	ProgramPage   sim.Duration // whole-page program time
	EraseBlock    sim.Duration // 0 when the medium needs no erase
	ChannelBW     float64      // bytes/second of the shared data channel

	// ChunkBytes > 0 marks media that serve a page as serialized
	// byte-granular chunks instead of one monolithic array op (the PRAM
	// media of Optane-like SSDs): page time = ceil(page/chunk) x chunk
	// latency on the die.
	ChunkBytes int
	ReadChunk  sim.Duration
	WriteChunk sim.Duration
}

// SLC returns the Micron SLC NAND profile of Integrated-SLC
// (read 25 us, program 300 us, erase 2000 us).
func SLC() Profile {
	return Profile{Name: "SLC", PageBytes: 16 << 10, PagesPerBlock: 256, Dies: 8,
		ReadPage: sim.Microseconds(25), ProgramPage: sim.Microseconds(300),
		EraseBlock: sim.Microseconds(2000), ChannelBW: 400e6}
}

// MLC returns the MLC NAND profile of Hetero and Integrated-MLC
// (read 50 us, program 800 us, erase 3500 us).
func MLC() Profile {
	return Profile{Name: "MLC", PageBytes: 16 << 10, PagesPerBlock: 256, Dies: 8,
		ReadPage: sim.Microseconds(50), ProgramPage: sim.Microseconds(800),
		EraseBlock: sim.Microseconds(3500), ChannelBW: 400e6}
}

// TLC returns the TLC NAND profile of Integrated-TLC
// (read 80 us, program 1250 us, erase 2274 us).
func TLC() Profile {
	return Profile{Name: "TLC", PageBytes: 16 << 10, PagesPerBlock: 256, Dies: 8,
		ReadPage: sim.Microseconds(80), ProgramPage: sim.Microseconds(1250),
		EraseBlock: sim.Microseconds(2274), ChannelBW: 400e6}
}

// PRAMMedia returns the Optane-like PRAM storage media of Hetero-PRAM:
// multi-partition internals serve 256 B units in ~100 ns, so a 16 KiB
// page read costs ~6.4 us (far below flash's 25-80 us), while page
// writes serialize into 18 us unit programs (~1.15 ms/page, above even
// MLC's 800 us) - which is exactly why the paper finds PRAM SSDs win on
// reads but lose to flash on bulk writes.
func PRAMMedia() Profile {
	return Profile{Name: "PRAM-SSD", PageBytes: 16 << 10, PagesPerBlock: 256, Dies: 8,
		ChannelBW:  1600e6,
		ChunkBytes: 256, ReadChunk: sim.Nanoseconds(100), WriteChunk: sim.Microseconds(18)}
}

// PageBufferPRAM returns the media profile of the paper's "PAGE-buffer"
// configuration: the same 3x nm multi-partition PRAM as DRAM-less, but
// reached through a page-based interface with an internal DRAM. A page
// stripes over the 32 modules (512 B = 16 rows each): sensing takes
// ~1.7 us in parallel, the transfer rides the same two LPDDR2-NVM
// channels as DRAM-less (so the effective stream cannot exceed them),
// and a page program serializes 16 row programs per module with partial
// partition overlap and no selective erasing (~80 us). No erase needed.
func PageBufferPRAM() Profile {
	// Dies=1: a page op already spans every module of the subsystem, so
	// page operations cannot overlap each other.
	return Profile{Name: "PAGE-buffer", PageBytes: 16 << 10, PagesPerBlock: 256, Dies: 1,
		ReadPage: sim.Microseconds(1.7), ProgramPage: sim.Microseconds(80),
		EraseBlock: 0, ChannelBW: 1600e6}
}

// Validate reports profile errors.
func (p Profile) Validate() error {
	switch {
	case p.PageBytes <= 0 || p.PagesPerBlock <= 0 || p.Dies <= 0:
		return fmt.Errorf("flash %s: geometry must be positive", p.Name)
	case p.ChannelBW <= 0:
		return fmt.Errorf("flash %s: channel bandwidth must be positive", p.Name)
	case p.ChunkBytes == 0 && (p.ReadPage <= 0 || p.ProgramPage <= 0):
		return fmt.Errorf("flash %s: page latencies must be positive", p.Name)
	case p.ChunkBytes > 0 && (p.ReadChunk <= 0 || p.WriteChunk <= 0):
		return fmt.Errorf("flash %s: chunk latencies must be positive", p.Name)
	}
	return nil
}

// PageRead returns the die-occupancy time of reading one page.
func (p Profile) PageRead() sim.Duration {
	if p.ChunkBytes > 0 {
		return sim.Duration(chunks(p.PageBytes, p.ChunkBytes)) * p.ReadChunk
	}
	return p.ReadPage
}

// PageProgram returns the die-occupancy time of programming one page.
func (p Profile) PageProgram() sim.Duration {
	if p.ChunkBytes > 0 {
		return sim.Duration(chunks(p.PageBytes, p.ChunkBytes)) * p.WriteChunk
	}
	return p.ProgramPage
}

func chunks(total, chunk int) int { return (total + chunk - 1) / chunk }

// Stats counts array activity for the energy model.
type Stats struct {
	PageReads    int64
	PagePrograms int64
	BlockErases  int64
	BytesMoved   int64
}

// Array is a timed, functional multi-die storage array addressed by
// physical page number. Pages stripe across dies on their low bits.
type Array struct {
	prof  Profile
	pages uint64
	dies  []*sim.Resource
	chan_ *sim.Pipe
	store map[uint64][]byte
	stats Stats

	// Page frames are recycled when EraseBlock drops them, so GC churn
	// does not allocate one page each.
	freePages [][]byte
}

// NewArray builds an array holding totalPages physical pages.
func NewArray(prof Profile, totalPages uint64) (*Array, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	if totalPages == 0 {
		return nil, fmt.Errorf("flash %s: need at least one page", prof.Name)
	}
	a := &Array{
		prof:  prof,
		pages: totalPages,
		chan_: sim.NewPipe(prof.Name+".chan", prof.ChannelBW, sim.Microseconds(1)),
		store: map[uint64][]byte{},
	}
	for i := 0; i < prof.Dies; i++ {
		a.dies = append(a.dies, sim.NewResource(fmt.Sprintf("%s.die%d", prof.Name, i)))
	}
	return a, nil
}

// Profile returns the medium profile.
func (a *Array) Profile() Profile { return a.prof }

// Pages returns the physical page count.
func (a *Array) Pages() uint64 { return a.pages }

// Stats returns an activity snapshot.
func (a *Array) Stats() Stats { return a.stats }

func (a *Array) die(page uint64) *sim.Resource { return a.dies[page%uint64(a.prof.Dies)] }

// newFrame returns a zeroed page frame, recycled or newly allocated.
// Frames must read as zero: ProgramPage may copy fewer than PageBytes
// into one, and unwritten tails are architecturally erased. New frames
// are allocated one page at a time, not carved from a shared slab: a
// pooled frame would pin its whole slab.
func (a *Array) newFrame() []byte {
	if f := a.rawFrame(); f != nil {
		for i := range f {
			f[i] = 0
		}
		return f
	}
	return make([]byte, a.prof.PageBytes)
}

// rawFrame returns a recycled frame with stale contents, or nil when
// both the local recycle list and the package pool are empty. Callers
// that overwrite the whole frame (CopyFrom) use it directly; newFrame
// zeroes it.
func (a *Array) rawFrame() []byte {
	if n := len(a.freePages); n > 0 {
		f := a.freePages[n-1]
		a.freePages = a.freePages[:n-1]
		return f
	}
	f, _ := framePool.Get(a.prof.PageBytes)
	return f
}

func (a *Array) check(page uint64) error {
	if page >= a.pages {
		return fmt.Errorf("flash %s: page %d outside array (%d pages)", a.prof.Name, page, a.pages)
	}
	return nil
}

// ReadPage senses one physical page and moves it over the channel.
func (a *Array) ReadPage(at sim.Time, page uint64) (data []byte, done sim.Time, err error) {
	data = make([]byte, a.prof.PageBytes)
	done, err = a.ReadPageInto(at, page, data)
	if err != nil {
		return nil, 0, err
	}
	return data, done, nil
}

// ReadPageInto is ReadPage into a caller-provided whole-page buffer
// (never-programmed pages read as zero, so dst may hold stale bytes).
func (a *Array) ReadPageInto(at sim.Time, page uint64, dst []byte) (done sim.Time, err error) {
	if err := a.check(page); err != nil {
		return 0, err
	}
	if len(dst) != a.prof.PageBytes {
		return 0, fmt.Errorf("flash %s: %d-byte buffer for a %d-byte page", a.prof.Name, len(dst), a.prof.PageBytes)
	}
	senseEnd := a.die(page).AcquireUntil(at, a.prof.PageRead())
	done = a.chan_.Transfer(senseEnd, int64(a.prof.PageBytes))
	if p, ok := a.store[page]; ok {
		copy(dst, p)
	} else {
		for i := range dst {
			dst[i] = 0
		}
	}
	a.stats.PageReads++
	a.stats.BytesMoved += int64(a.prof.PageBytes)
	return done, nil
}

// ProgramPage writes one physical page; the channel transfer precedes the
// die program, and the returned time is full persistence (flash programs
// must complete before the page is readable).
func (a *Array) ProgramPage(at sim.Time, page uint64, data []byte) (done sim.Time, err error) {
	if err := a.check(page); err != nil {
		return 0, err
	}
	if len(data) > a.prof.PageBytes {
		return 0, fmt.Errorf("flash %s: %d bytes exceed the %d-byte page", a.prof.Name, len(data), a.prof.PageBytes)
	}
	xferDone := a.chan_.Transfer(at, int64(a.prof.PageBytes))
	done = a.die(page).AcquireUntil(xferDone, a.prof.PageProgram())
	p, ok := a.store[page]
	if !ok {
		p = a.newFrame()
		a.store[page] = p
	}
	copy(p, data)
	a.stats.PagePrograms++
	a.stats.BytesMoved += int64(a.prof.PageBytes)
	return done, nil
}

// EraseBlock erases the block containing page (no-op duration for media
// without erase).
func (a *Array) EraseBlock(at sim.Time, page uint64) (done sim.Time, err error) {
	if err := a.check(page); err != nil {
		return 0, err
	}
	base := page - page%uint64(a.prof.PagesPerBlock)
	done = a.die(page).AcquireUntil(at, a.prof.EraseBlock)
	for p := base; p < base+uint64(a.prof.PagesPerBlock) && p < a.pages; p++ {
		if f, ok := a.store[p]; ok {
			a.freePages = append(a.freePages, f)
			delete(a.store, p)
		}
	}
	a.stats.BlockErases++
	return done, nil
}

// Drain returns when all dies are idle.
func (a *Array) Drain() sim.Time {
	var t sim.Time
	for _, d := range a.dies {
		t = sim.Max(t, d.FreeAt())
	}
	return sim.Max(t, a.chan_.FreeAt())
}

var _ mem.Drainer = (*Array)(nil)
