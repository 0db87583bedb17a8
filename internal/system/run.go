package system

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"dramless/internal/accel"
	"dramless/internal/energy"
	"dramless/internal/flash"
	"dramless/internal/hostsw"
	"dramless/internal/kernel"
	"dramless/internal/mem"
	"dramless/internal/memctrl"
	"dramless/internal/obs"
	"dramless/internal/pcie"
	"dramless/internal/sim"
	"dramless/internal/ssd"
	"dramless/internal/workload"
)

// Time-breakdown components (the Figure 16 stack).
const (
	TimeLoad    = "load"     // staging input into the accelerator
	TimeCompute = "compute"  // PE execution (arithmetic)
	TimeStall   = "mem-wait" // PE cycles waiting on memory/storage
	TimeStore   = "store"    // persisting outputs
)

// Result is one system x workload run.
type Result struct {
	Kind     Kind
	Workload string

	// Phase walls.
	Load   sim.Duration
	Kernel sim.Duration
	Store  sim.Duration
	Total  sim.Duration

	// Energy is the Figure 17 decomposition.
	Energy *energy.Account

	// Blame is the exact simulated-time account (DESIGN.md §15):
	// phase/component/cause shares that sum to each phase wall to the
	// picosecond. Always populated, like Counters.
	Blame *obs.Blame

	// Report is the kernel-phase execution report (IPC series, per-agent
	// totals). Its per-op active spans are dropped once priced.
	Report *accel.Report

	// Counters is the run's observability registry: every subsystem's
	// activity snapshot, collected at end of run in fixed order. Always
	// populated (collection has no hot-path cost), so identical runs
	// yield identical registries whether or not an Observer is attached.
	Counters obs.Counters

	// Footprint is the processed data volume.
	Footprint int64
}

// BandwidthMBps returns data-processing throughput (footprint over total
// time), the Figure 13/15 metric.
func (r *Result) BandwidthMBps() float64 {
	if r.Total <= 0 {
		return 0
	}
	return float64(r.Footprint) / r.Total.Seconds() / 1e6
}

// TimePart is one component of the Figure 16 decomposition.
type TimePart struct {
	Name    string // TimeLoad, TimeCompute, TimeStall or TimeStore
	Seconds float64
}

// TimeParts returns the Figure 16 decomposition in order load, compute,
// mem-wait, store. Compute and mem-wait split the kernel phase by the
// agents' aggregate activity; a kernel phase without any is all compute,
// with no mem-wait part.
func (r *Result) TimeParts() []TimePart {
	kw := r.Kernel.Seconds()
	act := r.Report.Compute.Seconds()
	stl := r.Report.Stall.Seconds()
	parts := []TimePart{{TimeLoad, r.Load.Seconds()}}
	if act+stl > 0 {
		parts = append(parts, TimePart{TimeCompute, kw * act / (act + stl)}, TimePart{TimeStall, kw * stl / (act + stl)})
	} else {
		parts = append(parts, TimePart{TimeCompute, kw})
	}
	return append(parts, TimePart{TimeStore, r.Store.Seconds()})
}

// imageBytes is the kernel image size shipped during offload.
const imageBytes = 64 << 10

// build holds the instantiated components of one system.
type build struct {
	cfg Config

	backend mem.Device // what the accelerator computes against
	acc     *accel.Accelerator

	host    *hostsw.Host
	accLink *pcie.Link
	ssdLink *pcie.Link
	p2p     *pcie.P2P

	extSSD *ssd.SSD // heterogeneous external storage
	intSSD *ssd.SSD // integrated / page-buffer storage backend
	sub    *memctrl.Subsystem
	fwWrap *ssd.FirmwareManaged
	nor    *flash.NOR
	dram   *mem.Flat // accelerator-internal DRAM (hetero / ideal)

	// scratch is the read-destination buffer the load/store phases reuse
	// for bulk traffic whose bytes are discarded; zeros is the write
	// source for synthetic staging writes and is never modified, so the
	// bytes landing in the devices stay all-zero as before.
	scratch []byte
	zeros   []byte
}

// bufPool recycles staging buffers across runs. Zeros buffers are never
// written through, so pooled entries keep the all-zero invariant; scratch
// buffers hold discarded read bytes and may return dirty.
var bufPool = struct {
	mu      sync.Mutex
	scratch [][]byte
	zeros   [][]byte
}{}

// pooledBuf pops a pooled buffer of at least n bytes, or nil.
func pooledBuf(list *[][]byte, n int) []byte {
	bufPool.mu.Lock()
	defer bufPool.mu.Unlock()
	for i, buf := range *list {
		if len(buf) >= n {
			last := len(*list) - 1
			(*list)[i] = (*list)[last]
			(*list)[last] = nil
			*list = (*list)[:last]
			return buf
		}
	}
	return nil
}

// stagingBuf returns a reusable n-byte read destination.
func (b *build) stagingBuf(n int) []byte {
	if len(b.scratch) < n {
		if buf := pooledBuf(&bufPool.scratch, n); buf != nil {
			b.scratch = buf
		} else {
			b.scratch = make([]byte, n)
		}
	}
	return b.scratch[:n]
}

// zeroBuf returns n zero bytes for synthetic staging writes.
func (b *build) zeroBuf(n int) []byte {
	if len(b.zeros) < n {
		if buf := pooledBuf(&bufPool.zeros, n); buf != nil {
			b.zeros = buf
		} else {
			b.zeros = make([]byte, n)
		}
	}
	return b.zeros[:n]
}

// stageRead streams total bytes out of dev at addr in step-sized reads
// (buf must hold at least step bytes, or total when smaller); the bytes
// are discarded.
func stageRead(dev mem.Device, at sim.Time, addr uint64, total, step int64, buf []byte) (sim.Time, error) {
	t := at
	if full := total / step; full > 0 {
		res, err := mem.ReadRunLoop(dev, t, mem.Run{Addr: addr, Stride: step, Size: int(step), Count: int(full)}, buf)
		if err != nil {
			return 0, err
		}
		t = res.Now
	}
	if tail := total % step; tail > 0 {
		d, err := dev.ReadInto(t, uint64(int64(addr)+total-tail), buf[:tail])
		if err != nil {
			return 0, err
		}
		if d < t {
			d = t
		}
		t = d
	}
	return t, nil
}

// stageWrite is stageRead for stores: every access stores the leading
// bytes of src.
func stageWrite(dev mem.Device, at sim.Time, addr uint64, total, step int64, src []byte) (sim.Time, error) {
	t := at
	if full := total / step; full > 0 {
		res, err := mem.WriteRunLoop(dev, t, mem.Run{Addr: addr, Stride: step, Size: int(step), Count: int(full)}, src)
		if err != nil {
			return 0, err
		}
		t = res.Now
	}
	if tail := total % step; tail > 0 {
		d, err := dev.Write(t, uint64(int64(addr)+total-tail), src[:tail])
		if err != nil {
			return 0, err
		}
		if d < t {
			d = t
		}
		t = d
	}
	return t, nil
}

// newBuild constructs the system of cfg.Kind.
func newBuild(cfg Config) (*build, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := &build{cfg: cfg}
	var err error
	if b.host, err = hostsw.New(cfg.Host); err != nil {
		return nil, err
	}
	accLinkCfg := cfg.Link
	accLinkCfg.Name = "pcie.accel"
	if b.accLink, err = pcie.NewLink(accLinkCfg); err != nil {
		return nil, err
	}
	ssdLinkCfg := cfg.Link
	ssdLinkCfg.Name = "pcie.ssd"
	if b.ssdLink, err = pcie.NewLink(ssdLinkCfg); err != nil {
		return nil, err
	}
	b.p2p = pcie.NewP2P(b.ssdLink, b.accLink)

	mkSub := func(p memctrl.Policy) (*memctrl.Subsystem, error) {
		mcCfg := memctrl.DefaultPolicyConfig(p)
		mcCfg.Geometry.RowsPerModule = cfg.PRAMRowsPerModule
		mcCfg.Wear = cfg.Wear
		mcCfg.Obs = cfg.Obs
		return memctrl.New(mcCfg)
	}
	mkSSD := func(media flash.Profile, integrated bool, fw ssd.FirmwareConfig) (*ssd.SSD, error) {
		sc := ssd.DefaultConfig(media, cfg.SSDCapacity)
		sc.Firmware = fw
		sc.Integrated = integrated
		// The paper's 1 GB device buffers hold a similar fraction of its
		// >10x-scaled volumes; scale them with the footprint so buffer
		// pressure (and therefore media latency) is preserved.
		sc.BufferBytes = cfg.bufferBytes()
		sc.Obs = cfg.Obs
		return ssd.New(sc)
	}

	switch cfg.Kind {
	case Hetero, Heterodirect:
		if b.extSSD, err = mkSSD(flash.MLC(), false, cfg.Firmware); err != nil {
			return nil, err
		}
		b.dram = mem.NewFlat("accel.dram", 1<<30, sim.Nanoseconds(100), 12.8e9)
		b.backend = b.dram
	case HeteroPRAM, HeterodirectPRAM:
		if b.extSSD, err = mkSSD(flash.PRAMMedia(), false, cfg.Firmware); err != nil {
			return nil, err
		}
		b.dram = mem.NewFlat("accel.dram", 1<<30, sim.Nanoseconds(100), 12.8e9)
		b.backend = b.dram
	case NORIntf:
		b.nor = flash.NewNOR(1 << 30)
		b.backend = b.nor
	case IntegratedSLC, IntegratedMLC, IntegratedTLC:
		media := flash.SLC()
		if cfg.Kind == IntegratedMLC {
			media = flash.MLC()
		} else if cfg.Kind == IntegratedTLC {
			media = flash.TLC()
		}
		if b.intSSD, err = mkSSD(media, true, cfg.Firmware); err != nil {
			return nil, err
		}
		b.backend = b.intSSD
	case PageBuffer:
		// The page interface is managed by lightweight embedded logic,
		// not a full storage firmware.
		fw := cfg.Firmware
		fw.RequestCycles = 250
		if b.intSSD, err = mkSSD(flash.PageBufferPRAM(), true, fw); err != nil {
			return nil, err
		}
		b.backend = b.intSSD
	case DRAMLess:
		pol, perr := cfg.schedulerPolicy()
		if perr != nil {
			return nil, perr
		}
		if b.sub, err = mkSub(pol); err != nil {
			return nil, err
		}
		b.backend = b.sub
	case DRAMLessFirmware:
		// Same PRAM subsystem, but every request is dispatched by
		// traditional SSD firmware and the hardware schedulers are gone.
		if b.sub, err = mkSub(memctrl.BareMetal); err != nil {
			return nil, err
		}
		if b.fwWrap, err = ssd.NewFirmwareManaged(cfg.Firmware, b.sub); err != nil {
			return nil, err
		}
		b.backend = b.fwWrap
	case Ideal:
		b.dram = mem.NewFlat("accel.dram", 1<<30, sim.Nanoseconds(100), 12.8e9)
		b.backend = b.dram
	default:
		return nil, fmt.Errorf("system: unhandled kind %v", cfg.Kind)
	}

	acfg := cfg.Accel
	acfg.SampleInterval = cfg.SampleInterval
	acfg.Obs = cfg.Obs
	if b.acc, err = accel.New(acfg, b.backend); err != nil {
		return nil, err
	}
	return b, nil
}

// countersHint is, per system kind, the most counters a run of that
// kind registered so far: runs size their registry by it, so after the
// first run of a kind the registry is allocated once instead of grown
// by doubling. The entries do not depend on it, only the capacity.
var countersHint [numKinds]atomic.Int32

// collectCounters snapshots every built component into one registry, in
// fixed code order so identical runs register identical entry sequences.
func (b *build) collectCounters(rep *accel.Report, c *obs.Counters) {
	rep.CountersInto(c)
	b.acc.CountersInto(c)
	if b.sub != nil {
		b.sub.CountersInto(c)
	}
	if b.extSSD != nil {
		b.extSSD.CountersInto(c, "ssd.ext.")
	}
	if b.intSSD != nil {
		b.intSSD.CountersInto(c, "ssd.int.")
	}
	if b.dram != nil {
		reads, writes, bytesIn, bytesOut := b.dram.Traffic()
		c.Add("dram.reads", reads)
		c.Add("dram.writes", writes)
		c.Add("dram.bytes_written", bytesIn)
		c.Add("dram.bytes_read", bytesOut)
	}
	b.accLink.CountersInto(c)
	b.ssdLink.CountersInto(c)
}

// populateBuf returns the shared initial-data pattern block. It is
// immutable after first use (devices copy write sources, never mutate
// them), so every run - including parallel experiment workers - stages
// from the same buffer instead of rebuilding 256 KiB per simulation.
func populateBuf() []byte {
	populateOnce.Do(func() {
		populatePattern = make([]byte, 256<<10)
		for i := range populatePattern {
			populatePattern[i] = byte(i*131 + 7)
		}
	})
	return populatePattern
}

var (
	populateOnce    sync.Once
	populatePattern []byte
)

// populate places kernel k's input data in the persistent store before
// measurement (offline, untimed where the device allows it) and returns
// the earliest measurable start time.
func (b *build) populate(k workload.Kernel, p workload.Params) (sim.Time, error) {
	// The input region gets its initial data; the output region gets
	// stale bytes from an earlier job - a long-running accelerator never
	// writes onto pristine cells, which is exactly the overwrite penalty
	// selective erasing attacks.
	total, base := k.InputBytes(p)+k.OutputBytes(p), p.BaseAddr
	buf := populateBuf()
	writeAll := func(dev mem.Device) (sim.Time, error) {
		return stageWrite(dev, 0, base, total, int64(len(buf)), buf)
	}
	switch b.cfg.Kind {
	case Hetero, Heterodirect, HeteroPRAM, HeterodirectPRAM:
		t, err := writeAll(b.extSSD)
		if err != nil {
			return 0, err
		}
		d, err := b.extSSD.Flush(t)
		if err != nil {
			return 0, err
		}
		b.extSSD.DropCaches() // measured run starts with a cold device cache
		return d, nil
	case IntegratedSLC, IntegratedMLC, IntegratedTLC, PageBuffer:
		t, err := writeAll(b.intSSD)
		if err != nil {
			return 0, err
		}
		d, err := b.intSSD.Flush(t)
		if err != nil {
			return 0, err
		}
		b.intSSD.DropCaches()
		return d, nil
	case NORIntf:
		return writeAll(b.nor)
	case DRAMLess, DRAMLessFirmware:
		// Boot the subsystem, then factory-load the input.
		d, err := b.sub.Boot(0)
		if err != nil {
			return 0, err
		}
		for off := int64(0); off < total; off += int64(len(buf)) {
			n := int64(len(buf))
			if n > total-off {
				n = total - off
			}
			if err := b.sub.Populate(base+uint64(off), buf[:n]); err != nil {
				return 0, err
			}
		}
		return d, nil
	case Ideal:
		return writeAll(b.dram)
	}
	return 0, fmt.Errorf("system: unhandled kind %v", b.cfg.Kind)
}

// Run executes kernel k on the system described by cfg and returns the
// full result. Every run builds its system fresh and simulates all four
// phases: populate, load, kernel and store.
func Run(cfg Config, k workload.Kernel) (*Result, error) {
	return run(cfg, k, CounterPrefixColdRuns)
}

// run is Run's body. prefixCounter names the entry point the run came
// through (Run or the deprecated RunForked); it lands at the tail of the
// registry, the only place the two entry points' results differ.
func run(cfg Config, k workload.Kernel, prefixCounter string) (*Result, error) {
	b, err := newBuild(cfg)
	if err != nil {
		return nil, err
	}
	p := workload.Params{Scale: cfg.Scale, Agents: cfg.Accel.NumPEs - 1}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	setupEnd, err := b.populate(k, p)
	if err != nil {
		return nil, err
	}
	runStart := setupEnd + sim.Microsecond
	// Blame snapshots bracket each phase.
	snap := b.snapshot()

	// ---- Load phase: deliver the kernel image, and for heterogeneous
	// systems stage the input into the accelerator DRAM. ----
	loadEnd, err := b.loadPhase(runStart, k, p)
	if err != nil {
		return nil, err
	}
	loadSnap := b.snapshot()

	// ---- Kernel phase. ----
	rep, err := b.acc.RunKernel(loadEnd, k, p)
	if err != nil {
		return nil, err
	}
	kernelEnd := rep.End
	kernSnap := b.snapshot()

	// ---- Store phase: persist outputs. ----
	storeEnd, err := b.storePhase(kernelEnd, k, p, k.OutputBytes(p))
	if err != nil {
		return nil, err
	}
	storeSnap := b.snapshot()

	res := &Result{
		Kind:      cfg.Kind,
		Workload:  k.Name,
		Load:      loadEnd - runStart,
		Kernel:    kernelEnd - loadEnd,
		Store:     storeEnd - kernelEnd,
		Total:     storeEnd - runStart,
		Report:    rep,
		Footprint: k.FootprintBytes(p),
	}

	res.Energy = b.accountEnergy(snap, rep, runStart, loadEnd, kernelEnd, storeEnd)
	rep.Spans = nil // per-op data: the energy account is its only reader
	res.Blame = b.accountBlame(rep, &snap, &loadSnap, &kernSnap, &storeSnap, runStart, loadEnd, kernelEnd, storeEnd)

	hint := &countersHint[cfg.Kind]
	res.Counters.Reserve(int(hint.Load()))
	b.collectCounters(rep, &res.Counters)
	res.Counters.Add(prefixCounter, 1)
	if n := int32(res.Counters.Len()); n > hint.Load() {
		hint.Store(n)
	}
	if hs := cfg.Obs.Histograms(); hs != nil {
		hs.Get(obs.HistSystemLoad).Record(int64(loadEnd - runStart))
		hs.Get(obs.HistSystemKernel).Record(int64(kernelEnd - loadEnd))
		hs.Get(obs.HistSystemStore).Record(int64(storeEnd - kernelEnd))
	}
	if tr := cfg.Obs.Tracer(); tr.Enabled() {
		tr.Span("system", "run", TimeLoad, runStart, loadEnd)
		tr.Span("system", "run", "kernel", loadEnd, kernelEnd)
		tr.Span("system", "run", TimeStore, kernelEnd, storeEnd)
		// Phase handoffs as causal flow edges (chrome://tracing arrows).
		tr.Flow("phase", "system", "run", "system", "run", loadEnd)
		tr.Flow("phase", "system", "run", "system", "run", kernelEnd)
	}
	cfg.Obs.Record(&res.Counters)
	cfg.Obs.RecordBlame(res.Blame)
	b.release()
	// A time series that ran past its window cap dropped samples.
	if err := errors.Join(res.Energy.Err(), cfg.Obs.Series().Err()); err != nil {
		return nil, err
	}
	return res, nil
}

// release returns pooled storage (PRAM row segments, SSD buffer entries,
// flash page frames, sparse memory pages, staging buffers) once the
// run's results are collected.
func (b *build) release() {
	bufPool.mu.Lock()
	if b.scratch != nil {
		bufPool.scratch = append(bufPool.scratch, b.scratch)
		b.scratch = nil
	}
	if b.zeros != nil {
		bufPool.zeros = append(bufPool.zeros, b.zeros)
		b.zeros = nil
	}
	bufPool.mu.Unlock()
	if b.sub != nil {
		b.sub.Release()
	}
	if b.extSSD != nil {
		b.extSSD.Release()
	}
	if b.intSSD != nil {
		b.intSSD.Release()
	}
	if b.nor != nil {
		b.nor.Release()
	}
	if b.dram != nil {
		b.dram.Release()
	}
}

// loadPhase stages kernel k's input and delivers the kernel image.
func (b *build) loadPhase(at sim.Time, k workload.Kernel, p workload.Params) (sim.Time, error) {
	cfg := b.cfg
	in, out, base := k.InputBytes(p), k.OutputBytes(p), p.BaseAddr
	// Kernel image delivery is common to every organization: the host
	// packs and pushes ~64 KiB over PCIe.
	t := b.host.Submit(at)
	t = b.accLink.DMA(t, imageBytes)

	switch cfg.Kind {
	case Hetero, HeteroPRAM:
		// files -> host DRAM -> deserialize -> DMA to accelerator DRAM.
		stackDone, _, _ := b.host.FileIO(at, in)
		step := int64(cfg.Host.IOBytes)
		devDone, err := stageRead(b.extSSD, at, base, in, step, b.stagingBuf(int(step)))
		if err != nil {
			return 0, err
		}
		t = sim.Max(t, sim.Max(stackDone, devDone))
		t = b.host.Deserialize(t, in)
		t = b.accLink.DMA(t, in)
		// Land the data in the accelerator DRAM.
		d, err := b.dram.Write(t, base, b.zeroBuf(int(minI64(in, 1<<20))))
		if err != nil {
			return 0, err
		}
		// Charge the remaining bandwidth time for large inputs.
		if in > 1<<20 {
			d += b.dramWriteTime(in - 1<<20)
		}
		return d, nil
	case Heterodirect, HeterodirectPRAM:
		// Peer-to-peer DMA: the host only submits; data flows
		// SSD -> switch -> accelerator.
		t = b.host.Submit(t)
		step := int64(cfg.Host.IOBytes)
		devDone, err := stageRead(b.extSSD, at, base, in, step, b.stagingBuf(int(step)))
		if err != nil {
			return 0, err
		}
		t = sim.Max(t, devDone)
		t = b.p2p.Transfer(t, in)
		t = b.host.Completion(t)
		d, err := b.dram.Write(t, base, b.zeroBuf(int(minI64(in, 1<<20))))
		if err != nil {
			return 0, err
		}
		if in > 1<<20 {
			d += b.dramWriteTime(in - 1<<20)
		}
		return d, nil
	case DRAMLess, DRAMLessFirmware:
		// Figure 9b: doorbell, image into the PRAM image space, server
		// unpack, and - with selective erasing - pre-RESET the declared
		// output region while the kernel loads.
		t = b.accLink.Message(t)
		img := &kernel.Image{
			SharedAddr: b.backend.Size() - 4*imageBytes,
			Shared:     make([]byte, 4<<10),
			Apps:       make([]kernel.App, 0, p.Agents),
		}
		for i := 0; i < p.Agents; i++ {
			img.Apps = append(img.Apps, kernel.App{
				BootAddr: b.backend.Size() - 3*imageBytes + uint64(i*4<<10),
				Code:     make([]byte, 2<<10),
			})
		}
		push := func(at sim.Time, dst uint64, data []byte) (sim.Time, error) {
			d := b.accLink.DMA(at, int64(len(data)))
			return b.backend.Write(d, dst, data)
		}
		_, t2, err := kernel.Offload(t, img, b.backend.Size()-2*imageBytes, push, b.backend)
		if err != nil {
			return 0, err
		}
		if b.sub != nil {
			outAddr := base + uint64(in)
			d, err := b.sub.PreErase(t2, outAddr, int(out))
			if err != nil {
				return 0, err
			}
			t2 = d
		}
		return sim.Max(t2, mem.DrainOf(b.backend, t2)), nil
	default:
		// Integrated systems, PAGE-buffer, NOR-intf and Ideal compute in
		// place; only the image delivery is on the critical path.
		return t, nil
	}
}

// storePhase persists the kernel outputs.
func (b *build) storePhase(at sim.Time, k workload.Kernel, p workload.Params, out int64) (sim.Time, error) {
	switch b.cfg.Kind {
	case Hetero, HeteroPRAM:
		// accel DRAM -> DMA -> host stack -> SSD.
		t, err := b.dram.ReadInto(at, k.OutputAddr(p), b.stagingBuf(int(minI64(out, 1<<20))))
		if err != nil {
			return 0, err
		}
		if out > 1<<20 {
			t += b.dramWriteTime(out - 1<<20)
		}
		t = b.accLink.DMA(t, out)
		stackDone, _, _ := b.host.FileIO(t, out)
		step := int64(b.cfg.Host.IOBytes)
		t, err = stageWrite(b.extSSD, stackDone, k.OutputAddr(p), out, step, b.zeroBuf(int(step)))
		if err != nil {
			return 0, err
		}
		return b.extSSD.Flush(t)
	case Heterodirect, HeterodirectPRAM:
		t, err := b.dram.ReadInto(at, k.OutputAddr(p), b.stagingBuf(int(minI64(out, 1<<20))))
		if err != nil {
			return 0, err
		}
		if out > 1<<20 {
			t += b.dramWriteTime(out - 1<<20)
		}
		t = b.host.Submit(t)
		t = b.p2p.Transfer(t, out)
		step := int64(b.cfg.Host.IOBytes)
		t, err = stageWrite(b.extSSD, t, k.OutputAddr(p), out, step, b.zeroBuf(int(step)))
		if err != nil {
			return 0, err
		}
		d, err := b.extSSD.Flush(t)
		if err != nil {
			return 0, err
		}
		return b.host.Completion(d), nil
	case IntegratedSLC, IntegratedMLC, IntegratedTLC, PageBuffer:
		// Dirty buffer pages must reach the medium.
		return b.intSSD.Flush(at)
	case DRAMLess, DRAMLessFirmware:
		// Cache flush happened in RunKernel; wait out the posted
		// programs and notify the host.
		t := mem.DrainOf(b.backend, at)
		return b.accLink.Message(t), nil
	case NORIntf:
		t := b.nor.Drain()
		return b.accLink.Message(sim.Max(at, t)), nil
	case Ideal:
		return at, nil
	}
	return 0, fmt.Errorf("system: unhandled kind %v", b.cfg.Kind)
}

// dramWriteTime returns pure bandwidth time on the accel DRAM for sizes
// beyond the functionally materialized first megabyte (keeps big staged
// volumes from allocating giant buffers).
func (b *build) dramWriteTime(n int64) sim.Duration {
	return sim.Duration(float64(n) / 12.8e9 * float64(sim.Second))
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
