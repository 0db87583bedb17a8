// Package ssd builds the solid-state storage devices of Table I: flash
// SSDs (SLC/MLC/TLC) with a page-mapped FTL, a 1 GB internal DRAM buffer
// and a 3-core embedded firmware; the Optane-like PRAM SSD; and the
// standalone firmware wrapper used by the "DRAM-less (firmware)"
// configuration, which shows why the paper replaces firmware with
// hardware automation (Figure 7).
package ssd

import (
	"fmt"

	"dramless/internal/mem"
	"dramless/internal/sim"
)

// FirmwareConfig describes the embedded controller that runs the storage
// firmware: "a 3-core 500 MHz embedded ARM CPU, similar to the
// controllers of commercial SSDs".
type FirmwareConfig struct {
	Cores   int
	ClockHz float64
	// RequestCycles is the firmware path length per I/O request: command
	// decode, mapping lookup, scheduling, completion. 1000 cycles at
	// 500 MHz = 2 us, which dwarfs a 100 ns PRAM access - the root cause
	// of Figure 7's up-to-80% degradation.
	RequestCycles int64
}

// DefaultFirmware returns the paper's firmware controller.
func DefaultFirmware() FirmwareConfig {
	return FirmwareConfig{Cores: 3, ClockHz: 500e6, RequestCycles: 1000}
}

// Validate reports configuration errors.
func (c FirmwareConfig) Validate() error {
	if c.Cores <= 0 || c.ClockHz <= 0 || c.RequestCycles <= 0 {
		return fmt.Errorf("ssd: firmware config must be positive: %+v", c)
	}
	return nil
}

// PerRequest returns the firmware execution time of one request.
func (c FirmwareConfig) PerRequest() sim.Duration {
	return sim.NewClock(c.ClockHz).Cycles(c.RequestCycles)
}

// Firmware models the embedded cores executing storage firmware. Every
// request occupies one core for the firmware path length before the
// hardware below even starts.
type Firmware struct {
	cfg   FirmwareConfig
	cores *sim.Pool
	reqs  int64
}

// NewFirmware returns an idle firmware complex.
func NewFirmware(cfg FirmwareConfig) (*Firmware, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Firmware{cfg: cfg, cores: sim.NewPool("fw.cores", cfg.Cores)}, nil
}

// Process runs the firmware path for one request arriving at `at` and
// returns when a core has finished it.
func (f *Firmware) Process(at sim.Time) sim.Time {
	f.reqs++
	return f.cores.AcquireUntil(at, f.cfg.PerRequest())
}

// Requests returns how many requests the firmware has processed.
func (f *Firmware) Requests() int64 { return f.reqs }

// BusyTime returns cumulative core-busy time (for the energy model).
func (f *Firmware) BusyTime() sim.Duration { return f.cores.BusyTime() }

// FirmwareManaged wraps any mem.Device so that every read and write first
// pays the firmware processing cost on the embedded cores, and requests
// are serialized through the firmware's dispatch queue. This is the
// "DRAM-less (firmware)" configuration: the same PRAM subsystem, but
// managed by traditional SSD firmware instead of hardware automation.
type FirmwareManaged struct {
	fw    *Firmware
	inner mem.Device
}

var _ mem.Device = (*FirmwareManaged)(nil)

// NewFirmwareManaged wraps inner behind firmware cfg.
func NewFirmwareManaged(cfg FirmwareConfig, inner mem.Device) (*FirmwareManaged, error) {
	fw, err := NewFirmware(cfg)
	if err != nil {
		return nil, err
	}
	if inner == nil {
		return nil, fmt.Errorf("ssd: firmware wrapper needs a device")
	}
	return &FirmwareManaged{fw: fw, inner: inner}, nil
}

// Size implements mem.Device.
func (f *FirmwareManaged) Size() uint64 { return f.inner.Size() }

// ReadInto implements mem.Device by charging the firmware cost and
// passing the caller's buffer down to the inner device.
func (f *FirmwareManaged) ReadInto(at sim.Time, addr uint64, dst []byte) (sim.Time, error) {
	start := f.fw.Process(at)
	return f.inner.ReadInto(start, addr, dst)
}

// Write implements mem.Device.
func (f *FirmwareManaged) Write(at sim.Time, addr uint64, data []byte) (sim.Time, error) {
	start := f.fw.Process(at)
	return f.inner.Write(start, addr, data)
}

// Drain implements mem.Drainer.
func (f *FirmwareManaged) Drain() sim.Time {
	return mem.DrainOf(f.inner, f.fw.cores.FreeAt())
}

// Firmware exposes the embedded cores for energy accounting.
func (f *FirmwareManaged) Firmware() *Firmware { return f.fw }
