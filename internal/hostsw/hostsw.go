// Package hostsw models the host-side software stack whose overheads
// motivate DRAM-less (Figures 1 and 5a): system calls, user/kernel mode
// switches, the filesystem and block layer, interrupt handling, memory
// copies through host DRAM, and object deserialization. The conventional
// accelerated systems pay these costs on every byte moved between the
// SSD and the accelerator; DRAM-less pays them only to deliver a kernel
// image.
package hostsw

import (
	"fmt"

	"dramless/internal/sim"
)

// Costs parametrizes the host software path. The defaults are
// representative of a tuned Linux NVMe stack on the paper's testbed era
// hardware; the experiment shapes depend on their order of magnitude,
// not their exact values.
type Costs struct {
	// Syscall is one user->kernel->user round trip.
	Syscall sim.Duration
	// ContextSwitch is a blocking-I/O reschedule.
	ContextSwitch sim.Duration
	// Interrupt is the device-completion IRQ plus softirq work.
	Interrupt sim.Duration
	// FSPerOp is the filesystem + block layer + driver submission work
	// per I/O request.
	FSPerOp sim.Duration
	// IOBytes is the request granularity of buffered file I/O.
	IOBytes int
	// MemcpyBytesPerSec is host-DRAM copy bandwidth (one core).
	MemcpyBytesPerSec float64
	// DeserializeBytesPerSec is the rate of turning file bytes into
	// in-memory objects the accelerator can consume (Figure 5a's
	// "deserialize" step).
	DeserializeBytesPerSec float64
}

// DefaultCosts returns the model defaults.
func DefaultCosts() Costs {
	return Costs{
		Syscall:                sim.Microseconds(1.5),
		ContextSwitch:          sim.Microseconds(3),
		Interrupt:              sim.Microseconds(1),
		FSPerOp:                sim.Microseconds(4),
		IOBytes:                128 << 10,
		MemcpyBytesPerSec:      10e9,
		DeserializeBytesPerSec: 2e9,
	}
}

// Validate reports configuration errors.
func (c Costs) Validate() error {
	if c.Syscall < 0 || c.ContextSwitch < 0 || c.Interrupt < 0 || c.FSPerOp < 0 {
		return fmt.Errorf("hostsw: negative cost in %+v", c)
	}
	if c.IOBytes <= 0 || c.MemcpyBytesPerSec <= 0 || c.DeserializeBytesPerSec <= 0 {
		return fmt.Errorf("hostsw: non-positive rate in %+v", c)
	}
	return nil
}

// Host models the host CPU executing the storage stack. A single
// timeline serializes stack work (the paper's observation that "SSD
// accesses consume most CPU cycles" is this resource saturating).
type Host struct {
	costs Costs
	cpu   *sim.Resource
	mem   *sim.Pipe
}

// New returns a host with the given cost model.
func New(costs Costs) (*Host, error) {
	if err := costs.Validate(); err != nil {
		return nil, err
	}
	return &Host{
		costs: costs,
		cpu:   sim.NewResource("host.cpu"),
		mem:   sim.NewPipe("host.dram", costs.MemcpyBytesPerSec, 0),
	}, nil
}

// CPUBusy returns cumulative host CPU time consumed by stack work; the
// energy model charges host power for it.
func (h *Host) CPUBusy() sim.Duration { return h.cpu.BusyTime() }

// BytesCopied returns the bytes the host copied between kernel and user
// buffers; the energy model charges host DRAM traffic for them.
func (h *Host) BytesCopied() int64 { return h.mem.BytesMoved() }

// IOOps returns how many I/O requests n bytes of buffered file I/O issue.
func (h *Host) IOOps(n int64) int64 {
	ops := (n + int64(h.costs.IOBytes) - 1) / int64(h.costs.IOBytes)
	if ops < 1 {
		ops = 1
	}
	return ops
}

// FileIO charges the software path of moving n bytes between a file and a
// user buffer: per-request syscall + filesystem/block work + completion
// interrupt + context switch, plus the kernel->user copy. The device time
// itself is the caller's business (it knows which SSD is attached); this
// returns when the CPU-side work for submission s done and the total
// per-request overhead the caller should interleave with device time.
func (h *Host) FileIO(at sim.Time, n int64) (done sim.Time, perOp sim.Duration, ops int64) {
	ops = h.IOOps(n)
	perOp = h.costs.Syscall + h.costs.FSPerOp + h.costs.Interrupt + h.costs.ContextSwitch
	done = h.cpu.AcquireUntil(at, sim.Duration(ops)*perOp)
	done = h.mem.Transfer(done, n) // kernel buffer -> user pages
	return done, perOp, ops
}

// Deserialize charges turning n file bytes into accelerator-ready
// objects.
func (h *Host) Deserialize(at sim.Time, n int64) sim.Time {
	d := sim.Duration(float64(n) / h.costs.DeserializeBytesPerSec * float64(sim.Second))
	return h.cpu.AcquireUntil(at, d)
}

// Submit charges one asynchronous command submission (a doorbell write
// plus driver work, no data movement): how a host kicks a P2P DMA or
// offloads a kernel.
func (h *Host) Submit(at sim.Time) sim.Time {
	return h.cpu.AcquireUntil(at, h.costs.Syscall+h.costs.FSPerOp/2)
}

// Completion charges handling one completion interrupt.
func (h *Host) Completion(at sim.Time) sim.Time {
	return h.cpu.AcquireUntil(at, h.costs.Interrupt+h.costs.ContextSwitch)
}
