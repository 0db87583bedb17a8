// Package system wires the substrates into the complete accelerated
// systems of Table I and runs workloads through them end to end: input
// staging, kernel offload, near-data execution and result persistence,
// with execution-time and energy decompositions. It is the engine behind
// every figure reproduction in this repository.
package system

import (
	"fmt"

	"dramless/internal/accel"
	"dramless/internal/energy"
	"dramless/internal/hostsw"
	"dramless/internal/memctrl"
	"dramless/internal/obs"
	"dramless/internal/pcie"
	"dramless/internal/sim"
	"dramless/internal/ssd"
)

// Kind identifies one evaluated system organization.
type Kind int

const (
	// Hetero: conventional heterogeneous system; flash (MLC) SSD reached
	// through the full host software stack (Figure 5a).
	Hetero Kind = iota
	// Heterodirect: same, but with zero-overhead peer-to-peer DMA between
	// the SSD and the accelerator.
	Heterodirect
	// HeteroPRAM: Hetero with an Optane-like PRAM SSD.
	HeteroPRAM
	// HeterodirectPRAM: Heterodirect with the PRAM SSD.
	HeterodirectPRAM
	// NORIntf: 9x nm parallel PRAM with a serial NOR interface inside the
	// accelerator; byte-addressable, 16-bit serialized, no DRAM.
	NORIntf
	// IntegratedSLC embeds an SLC flash SSD (with its 1 GB DRAM buffer)
	// in the accelerator; PEs access pages through the buffer.
	IntegratedSLC
	// IntegratedMLC is the MLC variant.
	IntegratedMLC
	// IntegratedTLC is the TLC variant.
	IntegratedTLC
	// PageBuffer uses the 3x nm PRAM of DRAM-less behind a page interface
	// with an internal DRAM.
	PageBuffer
	// DRAMLess is the paper's system: hardware-automated PRAM subsystem
	// with multi-resource-aware interleaving and selective erasing.
	DRAMLess
	// DRAMLessFirmware replaces the hardware automation with traditional
	// SSD firmware on 3x500 MHz embedded cores.
	DRAMLessFirmware
	// Ideal has all data resident in an in-accelerator DRAM (the Figure 1
	// reference system).
	Ideal

	numKinds
)

// String implements fmt.Stringer with the paper's configuration names.
func (k Kind) String() string {
	switch k {
	case Hetero:
		return "Hetero"
	case Heterodirect:
		return "Heterodirect"
	case HeteroPRAM:
		return "Hetero-PRAM"
	case HeterodirectPRAM:
		return "Heterodirect-PRAM"
	case NORIntf:
		return "NOR-intf"
	case IntegratedSLC:
		return "Integrated-SLC"
	case IntegratedMLC:
		return "Integrated-MLC"
	case IntegratedTLC:
		return "Integrated-TLC"
	case PageBuffer:
		return "PAGE-buffer"
	case DRAMLess:
		return "DRAM-less"
	case DRAMLessFirmware:
		return "DRAM-less (firmware)"
	case Ideal:
		return "Ideal"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Kinds returns every buildable organization.
func Kinds() []Kind {
	out := make([]Kind, 0, int(numKinds))
	for k := Kind(0); k < numKinds; k++ {
		out = append(out, k)
	}
	return out
}

// Fig15Kinds returns the ten systems of Figure 15 in presentation order.
func Fig15Kinds() []Kind {
	return []Kind{
		Hetero, Heterodirect, HeteroPRAM, HeterodirectPRAM,
		NORIntf, IntegratedSLC, IntegratedMLC, IntegratedTLC,
		PageBuffer, DRAMLess,
	}
}

// Heterogeneous reports whether the organization keeps storage outside
// the accelerator (Table I row 1).
func (k Kind) Heterogeneous() bool {
	switch k {
	case Hetero, Heterodirect, HeteroPRAM, HeterodirectPRAM:
		return true
	}
	return false
}

// HasInternalDRAM reports Table I row 2.
func (k Kind) HasInternalDRAM() bool {
	switch k {
	case Hetero, Heterodirect, HeteroPRAM, HeterodirectPRAM,
		IntegratedSLC, IntegratedMLC, IntegratedTLC, PageBuffer, Ideal:
		return true
	}
	return false
}

// TableIRow is one column of Table I (per-configuration media behaviour).
type TableIRow struct {
	Kind          Kind
	Heterogeneous bool
	InternalDRAM  bool
	NVMReadUS     float64 // representative media read latency (us)
	NVMEraseUS    float64 // 0 = no erase on the data path
}

// Catalog returns Table I.
func Catalog() []TableIRow {
	return []TableIRow{
		{Hetero, true, true, 50, 3500},
		{Heterodirect, true, true, 50, 3500},
		{HeteroPRAM, true, true, 0.1, 0},
		{HeterodirectPRAM, true, true, 0.1, 0},
		{NORIntf, false, false, 290, 0},
		{IntegratedSLC, false, true, 25, 2000},
		{IntegratedMLC, false, true, 50, 3500},
		{IntegratedTLC, false, true, 80, 2274},
		{PageBuffer, false, true, 0.1, 0},
		{DRAMLess, false, false, 0.1, 0},
	}
}

// Config parametrizes one system build + run.
type Config struct {
	Kind  Kind
	Accel accel.Config
	// Scale is the workload base footprint in bytes (the paper runs >10x
	// stock Polybench; benchmarks shrink this for simulation speed - the
	// ratios between systems are scale-stable).
	Scale int64
	// PRAMRowsPerModule sizes the PRAM subsystem (simulation knob).
	PRAMRowsPerModule uint64
	// Policy selects the DRAM-less PRAM controller scheduling policy by
	// registry name ("final", "palp", "pause-aware", ...; see
	// memctrl.PolicyNames). Empty means "final". It is a string, not a
	// memctrl.Policy, so Config stays comparable (it is the experiment
	// engine's cache key, and the policy name is part of a cell's
	// identity).
	Policy string
	// Wear enables start-gap wear leveling in DRAM-less builds
	// (Section VII extension).
	Wear memctrl.WearConfig
	// SSDCapacity sizes external/integrated SSDs.
	SSDCapacity uint64
	// BufferBytes sizes internal DRAM buffers. Zero picks 4x Scale: the
	// paper's 1 GB buffers hold a similar fraction of its >10x-scaled
	// volumes, so buffer pressure is preserved at simulation scale.
	BufferBytes uint64
	// SampleInterval enables the IPC and power time series.
	SampleInterval sim.Duration
	// Energy is the energy model.
	Energy energy.Params
	// Host is the software-stack cost model for heterogeneous systems.
	Host hostsw.Costs
	// Firmware is the embedded controller of SSDs and DRAM-less(fw).
	Firmware ssd.FirmwareConfig
	// Link is the PCIe slot configuration.
	Link pcie.LinkConfig
	// Obs attaches the observability layer to the whole build: the
	// run's counters merge into its registry, and with tracing enabled
	// every subsystem records simulated-time spans. A pointer so Config
	// stays comparable (it is the experiment engine's cache key); nil
	// disables observation at zero cost. Observers are single-run state:
	// do not share one across concurrently executing runs.
	Obs *obs.Observer
}

// DefaultConfig returns a runnable configuration of the given kind.
func DefaultConfig(kind Kind) Config {
	return Config{
		Kind:              kind,
		Accel:             accel.Default(),
		Scale:             2 << 20,
		PRAMRowsPerModule: 1 << 16,
		Policy:            "final",
		SSDCapacity:       256 << 20,
		Energy:            energy.Default(),
		Host:              hostsw.DefaultCosts(),
		Firmware:          ssd.DefaultFirmware(),
		Link:              pcie.Gen3x8("pcie"),
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Kind < 0 || c.Kind >= numKinds {
		return fmt.Errorf("system: unknown kind %d", int(c.Kind))
	}
	if err := c.Accel.Validate(); err != nil {
		return err
	}
	if c.Scale <= 0 {
		return fmt.Errorf("system: scale must be positive")
	}
	if err := c.Energy.Validate(); err != nil {
		return err
	}
	if err := c.Host.Validate(); err != nil {
		return err
	}
	if err := c.Firmware.Validate(); err != nil {
		return err
	}
	if err := c.Link.Validate(); err != nil {
		return err
	}
	if c.Policy != "" {
		if _, err := memctrl.PolicyByName(c.Policy); err != nil {
			return err
		}
	}
	return nil
}

// schedulerPolicy resolves the DRAM-less controller policy from its
// registry name; empty means "final".
func (c Config) schedulerPolicy() (memctrl.Policy, error) {
	if c.Policy == "" {
		return memctrl.Final, nil
	}
	return memctrl.PolicyByName(c.Policy)
}

// bufferBytes resolves the internal-DRAM buffer size.
func (c Config) bufferBytes() uint64 {
	if c.BufferBytes > 0 {
		return c.BufferBytes
	}
	b := uint64(4 * c.Scale)
	if b < 128<<10 {
		b = 128 << 10
	}
	return b
}
