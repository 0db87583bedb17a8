// Package noc models the crossbar network that links the accelerator's
// PEs, the server's MCU, the FPGA memory controllers and the PCIe module
// (Figure 6a). Each port pair owns an independent path (crossbar, not a
// bus), so transfers contend only at their endpoints.
package noc

import (
	"fmt"

	"dramless/internal/sim"
)

// Config describes the crossbar.
type Config struct {
	Ports int
	// BytesPerSec is the per-port bandwidth: the 256-bit connection at
	// the 1 GHz core clock gives 32 GB/s.
	BytesPerSec float64
	// HopLatency is the arbitration + traversal latency per transfer.
	HopLatency sim.Duration
}

// Default returns the paper platform's crossbar: 10 ports (8 PEs, FPGA
// controller pair, PCIe module), 32 GB/s per port, 10 ns hop.
func Default() Config {
	return Config{Ports: 10, BytesPerSec: 32e9, HopLatency: sim.Nanoseconds(10)}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Ports <= 1 || c.BytesPerSec <= 0 || c.HopLatency < 0 {
		return fmt.Errorf("noc: invalid config %+v", c)
	}
	return nil
}

// Crossbar is the switch fabric.
type Crossbar struct {
	cfg Config
	// in/out model each port's master and slave side independently
	// ("connected to the crossbar network via a master port and a slave
	// port").
	in  []*sim.Resource
	out []*sim.Resource
}

// New builds a crossbar.
func New(cfg Config) (*Crossbar, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	x := &Crossbar{cfg: cfg}
	for p := 0; p < cfg.Ports; p++ {
		x.in = append(x.in, sim.NewResource(fmt.Sprintf("noc.in%d", p)))
		x.out = append(x.out, sim.NewResource(fmt.Sprintf("noc.out%d", p)))
	}
	return x, nil
}

// Transfer moves n bytes from port src to port dst starting no earlier
// than at and returns arrival time. Source egress and destination
// ingress both reserve the wire time; different port pairs proceed in
// parallel.
func (x *Crossbar) Transfer(at sim.Time, src, dst int, n int64) (done sim.Time, err error) {
	if src < 0 || src >= x.cfg.Ports || dst < 0 || dst >= x.cfg.Ports {
		return 0, fmt.Errorf("noc: ports %d->%d outside 0..%d", src, dst, x.cfg.Ports-1)
	}
	if src == dst {
		return at, nil // local: no fabric traversal
	}
	wire := sim.Duration(float64(n) / x.cfg.BytesPerSec * float64(sim.Second))
	start := x.in[src].Acquire(at, wire)
	end := x.out[dst].AcquireUntil(start, wire)
	return end + x.cfg.HopLatency, nil
}
