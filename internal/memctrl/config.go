// Package memctrl implements the hardware-automated FPGA PRAM controller
// of DRAM-less (Section V): the translator that drives overlay-window
// write flows, the command generator that emits three-phase addressing
// sequences with RAB/RDB-aware phase skipping, the initializer that boots
// the modules, and the two PRAM-aware scheduling optimizations the paper
// proposes - multi-resource-aware interleaving and selective erasing.
//
// A Subsystem exposes the two LPDDR2-NVM channels (16 packages each) as a
// flat byte-addressable space, exactly what the server PE's MCU sees.
package memctrl

import (
	"fmt"

	"dramless/internal/lpddr"
	"dramless/internal/obs"
	"dramless/internal/pram"
)

// Config describes one PRAM subsystem build.
type Config struct {
	// Params is the LPDDR2-NVM interface timing (Table II).
	Params lpddr.Params
	// Geometry is the per-module address layout.
	Geometry pram.Geometry
	// Policy is the scheduling policy: one of the paper's four
	// (BareMetal, Interleaving, SelectiveErasing, Final) or any other
	// registered one (see PolicyByName). Validate rejects nil. The
	// policy's capability vector is resolved once at construction (see
	// resolvePolicy); per-request scheduling decisions stay
	// allocation-free.
	Policy Policy
	// PhaseSkipping enables skipping pre-active/activate phases when the
	// target's upper row address or row data is already buffered. On by
	// default; an ablation knob for the benchmarks.
	PhaseSkipping bool
	// Prefetch enables sequential next-row RDB prefetch ("tries to
	// prefetch data by using all RDBs across different banks"). Only
	// effective with an interleaving scheduler, which has the idle array
	// time to spend.
	Prefetch bool
	// ChannelRequestBytes is the server's request granularity per channel
	// (512 B, i.e. 32 B per package).
	ChannelRequestBytes int
	// Wear configures optional start-gap wear leveling (Section VII).
	Wear WearConfig
	// WritePausing enables the device-level pause/resume of in-flight
	// programs on a read (the Related Work alternative [66] the paper
	// argues against); off on the paper's device.
	WritePausing bool
	// Obs attaches the observability layer: counters snapshot into its
	// registry via CountersInto and, when its tracer is enabled, every
	// read burst and program flow records a per-channel span. Nil (the
	// default) disables observation at zero cost.
	Obs *obs.Observer
}

// DefaultPolicyConfig returns the paper's DRAM-less controller
// configuration running scheduling policy p.
func DefaultPolicyConfig(p Policy) Config {
	return Config{
		Params:              lpddr.Default(),
		Geometry:            pram.DefaultGeometry(),
		Policy:              p,
		PhaseSkipping:       true,
		Prefetch:            true,
		ChannelRequestBytes: 512,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if c.Policy == nil {
		return fmt.Errorf("memctrl: no scheduling policy (set Config.Policy)")
	}
	if err := c.Policy.Capabilities().Validate(); err != nil {
		return fmt.Errorf("memctrl: policy %q: %w", c.Policy.Name(), err)
	}
	perBank := c.Geometry.RowBytes
	if c.ChannelRequestBytes <= 0 || c.ChannelRequestBytes%perBank != 0 {
		return fmt.Errorf("memctrl: channel request size %d must be a positive multiple of the %d-byte row",
			c.ChannelRequestBytes, perBank)
	}
	if err := c.Wear.Validate(); err != nil {
		return err
	}
	return nil
}

// Stats aggregates controller-level activity. Module-level device stats
// are available per module via ModuleStats.
type Stats struct {
	Reads  int64 // row-granule read operations issued
	Writes int64 // row-granule program flows issued

	// Phase skipping effectiveness (Section III-B).
	PreactiveSkips int64 // RAB already held the upper row address
	ActivateSkips  int64 // RDB already held the row (both phases skipped)
	FullAccesses   int64 // all three phases required

	Prefetches int64 // speculative activates issued

	// InterleaveOverlaps counts the overlaps the multi-resource-aware
	// scheduler won: row operations that shared a wave with at least one
	// other operation, so their array access hid behind another row's
	// bus transfer (Figure 12). Structurally zero without interleaving.
	InterleaveOverlaps int64

	PreErasedRows int64 // rows zero-programmed by selective erasing

	// PartitionOverlapWins counts the partition-overlap (PALP) policy's
	// scheduling decisions: demand reads steered to the tail of their
	// batch because their target partition still had in-flight array
	// work, plus prefetches withheld for the same reason. Structurally
	// zero without the PartitionOverlap capability.
	PartitionOverlapWins int64

	// PausePreemptedReads counts demand reads whose activate paused an
	// in-flight program (write pausing). Nonzero under the pause-aware
	// policy or an explicit WritePausing config.
	PausePreemptedReads int64

	BytesRead    int64
	BytesWritten int64

	// Service-time accounts in picoseconds of simulated time,
	// accumulated always-on at the same sites as the latency histograms
	// (blame attribution, DESIGN.md §15): per-outcome read service time
	// (indexed by the outFull/outRDB/outRAB/outPaused read outcomes)
	// and write service time split full-row vs read-modify-write.
	ReadPS      [4]int64
	WriteFullPS int64
	WriteRMWPS  int64
}

// Add adds sign times o to s field by field: sign 1 sums two snapshots,
// -1 takes the delta between them.
func (s *Stats) Add(o Stats, sign int64) {
	s.Reads += sign * o.Reads
	s.Writes += sign * o.Writes
	s.PreactiveSkips += sign * o.PreactiveSkips
	s.ActivateSkips += sign * o.ActivateSkips
	s.FullAccesses += sign * o.FullAccesses
	s.Prefetches += sign * o.Prefetches
	s.InterleaveOverlaps += sign * o.InterleaveOverlaps
	s.PreErasedRows += sign * o.PreErasedRows
	s.PartitionOverlapWins += sign * o.PartitionOverlapWins
	s.PausePreemptedReads += sign * o.PausePreemptedReads
	s.BytesRead += sign * o.BytesRead
	s.BytesWritten += sign * o.BytesWritten
	for i := range s.ReadPS {
		s.ReadPS[i] += sign * o.ReadPS[i]
	}
	s.WriteFullPS += sign * o.WriteFullPS
	s.WriteRMWPS += sign * o.WriteRMWPS
}
