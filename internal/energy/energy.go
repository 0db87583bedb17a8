// Package energy implements the power and energy accounting behind the
// paper's efficiency results (Figures 1, 17, 20, 21): per-operation
// energies for the memories and media, busy-time power for processors and
// links, and a power time series for the power/energy plots.
//
// Absolute joules depend on constants no simulation can fully pin down;
// what the experiments rely on is their relative order of magnitude
// (host stack power >> accelerator power, flash page ops >> PRAM row
// ops), which these defaults respect and document.
package energy

import (
	"fmt"
	"slices"

	"dramless/internal/obs"
	"dramless/internal/sim"
)

// Params holds the energy model constants.
type Params struct {
	// Processing elements (TMS320C6678-class: ~10 W for 8 cores).
	PEActiveWatts float64 // one PE executing
	PEIdleWatts   float64 // one PE clock-gated / sleeping (PSC)

	// Caches and crossbar, charged per byte moved.
	CachePerByteJ float64

	// PRAM device energies per operation.
	// Standby is negligible (non-volatile), so PRAM has no idle power.
	PRAMActivateJ  float64 // sense one 256-bit row into an RDB
	PRAMBurstJ     float64 // one 32 B burst on the DQ bus
	PRAMProgramJ   float64 // SET-dominated fresh/erased program of a row
	PRAMOverwriteJ float64 // RESET+SET overwrite of a row
	PRAMEraseJ     float64 // 60 ms bulk erase

	// Flash media energies per operation.
	FlashReadPageJ    float64
	FlashProgramPageJ float64
	FlashEraseBlockJ  float64

	// DRAM (host DRAM and the 1 GB internal buffers).
	DRAMPerByteJ      float64
	DRAMBackgroundWGB float64 // refresh + standby watts per GB

	// Interconnect.
	PCIePerByteJ float64

	// Host CPU running storage-stack software.
	HostActiveWatts float64

	// Embedded firmware cores (3x 500 MHz ARM).
	FirmwareWatts float64
}

// Default returns the documented model constants.
func Default() Params {
	return Params{
		PEActiveWatts: 1.25,
		PEIdleWatts:   0.15,

		CachePerByteJ: 30e-12,

		PRAMActivateJ:  4e-9,  // ~15 pJ/bit sensing
		PRAMBurstJ:     1e-9,  // DQ toggling per 32 B
		PRAMProgramJ:   15e-9, // ~50 pJ/bit SET train
		PRAMOverwriteJ: 28e-9, // RESET+SET
		PRAMEraseJ:     4e-6,  // long bulk pulse

		FlashReadPageJ:    10e-6,
		FlashProgramPageJ: 60e-6,
		FlashEraseBlockJ:  1.2e-3,

		DRAMPerByteJ:      120e-12,
		DRAMBackgroundWGB: 0.35,

		PCIePerByteJ: 40e-12,

		HostActiveWatts: 35,
		FirmwareWatts:   1.2,
	}
}

// Validate reports configuration errors.
func (p Params) Validate() error {
	if p.PEActiveWatts <= 0 || p.PEIdleWatts < 0 || p.HostActiveWatts <= 0 {
		return fmt.Errorf("energy: processor powers must be positive: %+v", p)
	}
	if p.PRAMProgramJ <= 0 || p.FlashProgramPageJ <= 0 {
		return fmt.Errorf("energy: media energies must be positive")
	}
	return nil
}

// Component names used in breakdowns, matching the Figure 17 stack.
const (
	CompHost     = "host-sw"     // host CPU cycles in the storage stack
	CompHostDRAM = "host-dram"   // host DRAM copies
	CompPCIe     = "pcie"        // link energy
	CompSSD      = "ssd"         // external SSD media + firmware
	CompCore     = "accel-core"  // PE active + idle energy
	CompCache    = "cache-noc"   // on-chip data movement
	CompDRAM     = "accel-dram"  // internal DRAM buffer (1 GB)
	CompPRAM     = "pram"        // PRAM subsystem
	CompFlash    = "accel-flash" // embedded flash of Integrated-*
	CompFirmware = "firmware"    // embedded firmware cores
)

// Account accumulates energy by component and optionally samples power
// over time for the Figure 20/21 plots. The zero value is an empty
// account with power sampling off.
type Account struct {
	byComp Components
	series *obs.Series[float64] // joules per window; nil unless enabled
}

// Components is an account's energy by component, in the order the
// components were first charged.
type Components struct {
	names  []string
	joules []float64
}

// Keys returns the component names in first-charge order.
func (c *Components) Keys() []string { return slices.Clone(c.names) }

// Get returns the joules charged to component (0 when absent).
func (c *Components) Get(component string) float64 {
	if i := slices.Index(c.names, component); i >= 0 {
		return c.joules[i]
	}
	return 0
}

func (c *Components) add(component string, joules float64) {
	i := slices.Index(c.names, component)
	if i < 0 {
		i = len(c.names)
		c.names = append(c.names, component)
		c.joules = append(c.joules, 0)
	}
	c.joules[i] += joules
}

// EnableSeries turns on power sampling with the given window.
func (a *Account) EnableSeries(interval sim.Duration) {
	a.series = obs.NewSeries[float64](obs.SeriesEnergy, interval)
}

// Add charges joules to a component with no time attribution.
func (a *Account) Add(component string, joules float64) {
	a.byComp.add(component, joules)
}

// AddSpan charges joules to a component spread uniformly over [t0, t1),
// feeding both the breakdown and the power series.
func (a *Account) AddSpan(component string, joules float64, t0, t1 sim.Time) {
	a.byComp.add(component, joules)
	if t1 <= t0 {
		a.series.Add(t0, joules)
	} else {
		a.series.Spread(t0, t1, joules)
	}
}

// AddPower charges power watts over [t0, t1).
func (a *Account) AddPower(component string, watts float64, t0, t1 sim.Time) {
	if t1 <= t0 {
		return
	}
	a.AddSpan(component, watts*(t1-t0).Seconds(), t0, t1)
}

// Breakdown returns the per-component totals.
func (a *Account) Breakdown() *Components { return &a.byComp }

// Total returns total joules, summed in first-charge order: float
// addition is not associative, so a fixed order keeps the low bits of
// the total deterministic.
func (a *Account) Total() float64 {
	var t float64
	for _, j := range a.byComp.joules {
		t += j
	}
	return t
}

// PowerSeries returns the sampled series (watts per window) or nil.
func (a *Account) PowerSeries() []float64 {
	if a.series == nil {
		return nil
	}
	sec := a.series.Window().Seconds()
	out := make([]float64, a.series.Len())
	for i := range out {
		out[i] = a.series.At(i) / sec
	}
	return out
}

// Err reports a power series that ran past its window cap.
func (a *Account) Err() error { return a.series.Err() }
