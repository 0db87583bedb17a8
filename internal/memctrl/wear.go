package memctrl

import (
	"fmt"

	"dramless/internal/sim"
)

// Start-gap wear leveling (Qureshi et al., MICRO'09), the scheme Section
// VII says DRAM-less can integrate in its PRAM controller. One spare row
// is kept per leveling region; every GapWritePeriod accepted programs the
// controller moves the gap one row (copying the displaced row into it),
// and once the gap wraps the whole region the start pointer advances -
// over time every logical row visits every physical row, bounding the
// wear of write-hot addresses.
//
// The remapping is purely algebraic:
//
//	p = (logical + start) mod N
//	if p >= gap { p++ }        // skip the gap row in N+1 physical rows
//
// Gap moves are real work: the displaced row is read and reprogrammed
// through the regular channel paths, so leveling costs bandwidth exactly
// as it would on hardware.
//
// Per-row program counts live in fixed slabs of wearSlabRows rows, keyed
// by slab number and taken on the first program counted there.

// wearState tracks the leveler of one subsystem. The physical row space
// splits into regions of R rows serving R-1 logical rows each (one spare
// per region, the gap); rows past the last whole region map identity.
type wearState struct {
	regionRows uint64 // R
	regions    uint64
	start      []uint64 // per-region start pointer, 0..R-2
	gap        []uint64 // per-region gap position, 0..R-1
	writes     []int64  // per-region programs since the last gap move
	moves      int64
	movePS     int64 // simulated ps spent on gap-move copies (blame)

	// slabs counts physical-row programs for endurance reporting, keyed
	// by slab number (row >> wearSlabBits).
	slabs map[uint64]*wearSlab
}

const (
	wearSlabBits = 9 // 512 rows (4 KiB of counts) per slab
	wearSlabRows = 1 << wearSlabBits
	wearSlabMask = wearSlabRows - 1
)

// wearSlab holds the program counts of wearSlabRows consecutive physical
// rows.
type wearSlab [wearSlabRows]int64

// count adds one program to physical row row, taking a zeroed slab on
// the first program counted in it.
func (w *wearState) count(row uint64) {
	id := row >> wearSlabBits
	c := w.slabs[id]
	if c == nil {
		var ok bool
		if c, ok = wearSlabPool.Get(struct{}{}); ok {
			*c = wearSlab{}
		} else {
			c = new(wearSlab)
		}
		w.slabs[id] = c
	}
	c[row&wearSlabMask]++
}

// WearConfig enables start-gap leveling in a Config.
type WearConfig struct {
	// Enabled turns the leveler on.
	Enabled bool
	// GapWritePeriod is how many accepted row programs per region trigger
	// one gap move there (psi in the paper; 100 costs ~1% extra writes).
	GapWritePeriod int
	// RegionRows is the leveling region size in rows (R); each region
	// donates one row as its gap, so capacity overhead is 1/R.
	RegionRows int
}

// DefaultWear returns the conventional psi=100 configuration with 512-row
// regions (0.2% capacity overhead).
func DefaultWear() WearConfig {
	return WearConfig{Enabled: true, GapWritePeriod: 100, RegionRows: 512}
}

// Validate reports configuration errors.
func (w WearConfig) Validate() error {
	if !w.Enabled {
		return nil
	}
	if w.GapWritePeriod <= 0 {
		return fmt.Errorf("memctrl: gap write period must be positive, got %d", w.GapWritePeriod)
	}
	if w.RegionRows < 2 {
		return fmt.Errorf("memctrl: leveling regions need at least 2 rows, got %d", w.RegionRows)
	}
	return nil
}

// initWear sets up the leveler over the subsystem's row space; each whole
// region donates one row-stripe as its gap.
func (s *Subsystem) initWear() {
	if !s.cfg.Wear.Enabled {
		return
	}
	totalRows := s.size / s.rowBytes
	r := uint64(s.cfg.Wear.RegionRows)
	regions := totalRows / r
	w := &wearState{
		regionRows: r,
		regions:    regions,
		start:      make([]uint64, regions),
		gap:        make([]uint64, regions),
		writes:     make([]int64, regions),
		slabs:      map[uint64]*wearSlab{},
	}
	for i := range w.gap {
		w.gap[i] = r - 1 // spare starts at the top of each region
	}
	s.wear = w
	// The exposed space shrinks by one row per region.
	s.size -= regions * s.rowBytes
}

// mapRow translates a logical global row index to its physical index.
func (w *wearState) mapRow(logical uint64) uint64 {
	perRegion := w.regionRows - 1
	region := logical / perRegion
	if region >= w.regions {
		// Identity tail past the last whole region, shifted by the
		// spares the regions consumed.
		return logical + w.regions
	}
	local := logical % perRegion
	p := (local + w.start[region]) % perRegion
	if p >= w.gap[region] {
		p++
	}
	return region*w.regionRows + p
}

// unmapRow inverts mapRow; ok=false for a spare (gap) row.
func (w *wearState) unmapRow(physical uint64) (uint64, bool) {
	region := physical / w.regionRows
	if region >= w.regions {
		return physical - w.regions, true // identity tail
	}
	local := physical % w.regionRows
	if local == w.gap[region] {
		return 0, false
	}
	if local > w.gap[region] {
		local--
	}
	perRegion := w.regionRows - 1
	l := (local + perRegion - w.start[region]%perRegion) % perRegion
	return region*perRegion + l, true
}

// locatePhysical maps a physical byte address to its channel/package/row,
// bypassing wear translation (used by the leveler's own copies).
func (s *Subsystem) locatePhysical(addr uint64) location { return s.locate(addr) }

// translate rewrites a byte address through the leveler (identity when
// leveling is off). Only same-row spans may be translated.
func (s *Subsystem) translate(addr uint64) uint64 {
	if s.wear == nil {
		return addr
	}
	return s.wear.mapRow(addr>>s.rowShift)<<s.rowShift | addr&(s.rowBytes-1)
}

// noteProgram counts a program against physical row p and moves the gap
// when the period elapses. It returns the time the (posted) gap move
// settles, or `at` when none happened.
func (s *Subsystem) noteProgram(at sim.Time, paddr uint64) (sim.Time, error) {
	if s.wear == nil {
		return at, nil
	}
	w := s.wear
	prow := paddr / s.rowBytes
	w.count(prow)
	region := prow / w.regionRows
	if region >= w.regions {
		return at, nil // identity tail is not leveled
	}
	w.writes[region]++
	if w.writes[region] < int64(s.cfg.Wear.GapWritePeriod) {
		return at, nil
	}
	w.writes[region] = 0
	w.moves++
	// Move the region's gap down one row: the row above it relocates in.
	// When the gap reaches 0 it wraps to the top and start advances, so
	// every logical row slowly rotates through every physical row.
	if w.gap[region] == 0 {
		w.gap[region] = w.regionRows - 1
		w.start[region] = (w.start[region] + 1) % (w.regionRows - 1)
		return at, nil
	}
	base := region * w.regionRows
	src := base + w.gap[region] - 1
	dst := base + w.gap[region]
	// The copy is real traffic through the regular channel paths. A
	// wear-aware policy defers it to the subsystem's idle window - after
	// every posted program and bus transfer settles - so leveling never
	// contends with the foreground request that triggered it (and never
	// pushes the shared bus frontiers into the in-flight programs'
	// shadow; see readBatch on partition overlap).
	if s.pol.wearIdleMoves {
		at = sim.Max(at, s.Drain())
	}
	data, d, err := s.readPhysicalRow(at, src)
	if err != nil {
		return 0, err
	}
	d, err = s.writePhysicalRow(d, dst, data)
	if err != nil {
		return 0, err
	}
	w.movePS += int64(d - at)
	w.gap[region]--
	w.count(dst)
	return d, nil
}

// readPhysicalRow and writePhysicalRow access one global row by physical
// index, bypassing translation (the leveler's own copies).
func (s *Subsystem) readPhysicalRow(at sim.Time, row uint64) ([]byte, sim.Time, error) {
	loc := s.locatePhysical(row * s.rowBytes)
	done, err := s.channels[loc.ch].readRowInto(at, loc.pkg, loc.row, 0, s.wearRow)
	if err != nil {
		return nil, 0, err
	}
	return s.wearRow, done, nil
}

func (s *Subsystem) writePhysicalRow(at sim.Time, row uint64, data []byte) (sim.Time, error) {
	loc := s.locatePhysical(row * s.rowBytes)
	return s.channels[loc.ch].writeRow(at, loc.pkg, loc.row, 0, data)
}

// Wear reporting ------------------------------------------------------

// WearStats summarizes physical-row program counts.
type WearStats struct {
	Enabled   bool
	GapMoves  int64
	GapMovePS int64   // simulated ps spent on gap-move copies
	MaxWear   int64   // programs on the hottest physical row
	Rows      int     // physical rows ever programmed
	MeanWear  float64 // programs per touched row
}

// WearStats returns the current endurance picture.
func (s *Subsystem) WearStats() WearStats {
	out := WearStats{Enabled: s.wear != nil}
	if s.wear == nil {
		return out
	}
	out.GapMoves = s.wear.moves
	out.GapMovePS = s.wear.movePS
	var total int64
	for _, slab := range s.wear.slabs {
		for _, c := range slab {
			if c == 0 {
				continue
			}
			total += c
			out.Rows++
			if c > out.MaxWear {
				out.MaxWear = c
			}
		}
	}
	if out.Rows > 0 {
		out.MeanWear = float64(total) / float64(out.Rows)
	}
	return out
}
