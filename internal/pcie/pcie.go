// Package pcie models the PCIe interconnect of the evaluated systems: a
// bandwidth-limited link with per-transaction latency, a DMA engine with
// descriptor/doorbell setup costs, and the peer-to-peer DMA path that the
// Heterodirect configurations use to move data between an SSD and the
// accelerator without bouncing through host DRAM.
package pcie

import (
	"fmt"

	"dramless/internal/obs"
	"dramless/internal/sim"
)

// LinkConfig describes one PCIe endpoint link.
type LinkConfig struct {
	Name string
	// BytesPerSec is the sustained payload bandwidth. A Gen3 x8 slot
	// delivers ~7.9 GB/s raw; ~6.5 GB/s of payload after TLP overheads.
	BytesPerSec float64
	// Latency is the one-way transaction latency (flight + switch).
	Latency sim.Duration
	// DMASetup is the driver-visible cost of one DMA: building the
	// descriptor, ringing the doorbell, and the completion interrupt at
	// the device end.
	DMASetup sim.Duration
	// MaxPayload splits large DMAs into chunks (descriptor ring limit).
	MaxPayload int
}

// Gen3x8 returns the slot configuration both the accelerator and the SSD
// use in the paper's testbed.
func Gen3x8(name string) LinkConfig {
	return LinkConfig{
		Name:        name,
		BytesPerSec: 6.5e9,
		Latency:     sim.Nanoseconds(500),
		DMASetup:    sim.Microseconds(1),
		MaxPayload:  128 << 10,
	}
}

// Validate reports configuration errors.
func (c LinkConfig) Validate() error {
	if c.BytesPerSec <= 0 || c.Latency < 0 || c.DMASetup < 0 || c.MaxPayload <= 0 {
		return fmt.Errorf("pcie %s: invalid link config %+v", c.Name, c)
	}
	return nil
}

// Link is one PCIe link with an attached DMA engine.
type Link struct {
	cfg  LinkConfig
	wire *sim.Pipe

	dmas       int64
	bytesMoved int64
}

// NewLink builds a link from cfg.
func NewLink(cfg LinkConfig) (*Link, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Link{cfg: cfg, wire: sim.NewPipe(cfg.Name, cfg.BytesPerSec, cfg.Latency)}, nil
}

// DMA moves n bytes across the link starting no earlier than at and
// returns when the final completion lands. Large transfers split into
// MaxPayload descriptors that pipeline on the wire; the setup cost is
// paid once per DMA.
func (l *Link) DMA(at sim.Time, n int64) (done sim.Time) {
	if n <= 0 {
		return at
	}
	done = at + l.cfg.DMASetup
	for moved := int64(0); moved < n; {
		chunk := int64(l.cfg.MaxPayload)
		if chunk > n-moved {
			chunk = n - moved
		}
		done = l.wire.Transfer(done, chunk)
		moved += chunk
	}
	l.dmas++
	l.bytesMoved += n
	return done
}

// Message sends a short control message (a PCIe interrupt or doorbell,
// e.g. the host kicking the DRAM-less server) and returns its arrival.
func (l *Link) Message(at sim.Time) sim.Time {
	return l.wire.Transfer(at, 64) // one TLP worth of payload
}

// Stats returns (DMA count, payload bytes moved).
func (l *Link) Stats() (dmas, bytes int64) { return l.dmas, l.bytesMoved }

// CountersInto writes the link's activity into the registry under the
// link's configured name ("pcie.accel.dmas", ...).
func (l *Link) CountersInto(c *obs.Counters) {
	if c == nil {
		return
	}
	p := l.cfg.Name + "."
	c.Add(p+"dmas", l.dmas)
	c.Add(p+"bytes", l.bytesMoved)
	c.Add(p+"busy_ps", int64(l.BusyTime()))
}

// BusyTime returns cumulative wire occupancy, for energy accounting.
func (l *Link) BusyTime() sim.Duration { return l.wire.BusyTime() }

// P2P is the peer-to-peer DMA fabric of the Heterodirect configurations:
// data flows SSD -> switch -> accelerator, crossing both endpoint links
// but never touching host DRAM and never waking the host CPU beyond the
// initial submission.
type P2P struct {
	src, dst *Link
}

// NewP2P connects two endpoint links through a switch.
func NewP2P(src, dst *Link) *P2P { return &P2P{src: src, dst: dst} }

// Transfer moves n bytes from the src endpoint to the dst endpoint. The
// transfer occupies both wires (store-and-forward at the switch is
// pipelined per MaxPayload chunk, approximated by charging the slower
// leg after the faster).
func (p *P2P) Transfer(at sim.Time, n int64) (done sim.Time) {
	mid := p.src.DMA(at, n)
	// The downstream leg starts once the first chunk is through; with
	// chunked pipelining the end-to-end finish is one chunk behind the
	// upstream finish plus the downstream wire time of the last chunk.
	lastChunk := int64(p.dst.cfg.MaxPayload)
	if lastChunk > n {
		lastChunk = n
	}
	start := mid - p.dst.wire.TransferTime(n-lastChunk)
	if start < at {
		start = at
	}
	return p.dst.DMA(start, n)
}
