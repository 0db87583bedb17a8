// Package accel composes the DRAM-less accelerator (Figure 6a): eight
// 1 GHz PEs with private L1/L2 caches on a crossbar, one of them acting
// as the server (MCU + power/sleep controller) that owns the memory
// backend, the rest as agents executing kernels. The backend is any
// mem.Device, which is how the Table I systems swap PRAM, flash, DRAM
// and host-attached storage under the same accelerator.
package accel

import (
	"fmt"

	"dramless/internal/cache"
	"dramless/internal/mem"
	"dramless/internal/noc"
	"dramless/internal/obs"
	"dramless/internal/pe"
	"dramless/internal/sim"
	"dramless/internal/stats"
	"dramless/internal/workload"
)

// Config describes the accelerator build.
type Config struct {
	// NumPEs is the total processor count (8); one is the server, the
	// rest are agents.
	NumPEs int
	PE     pe.Config
	L1     cache.Config
	L2     cache.Config
	NoC    noc.Config
	// MCULatency is the server-side request handling overhead per L2
	// miss the MCU takes over.
	MCULatency sim.Duration
	// LaunchOverhead is the PSC sleep -> boot-address store -> wake
	// sequence per agent (Figure 9b steps 3-6).
	LaunchOverhead sim.Duration
	// SampleInterval enables IPC/power series when positive.
	SampleInterval sim.Duration
	// Lanes must be zero, and only Validate reads it: the lane
	// executors it once selected were removed, and every kernel
	// interleaves on the serial min-scan loop (runAll). The field stays
	// only because the benchmark harness (perfbench/) still sets it to
	// 0; Validate rejects any other value.
	//
	// Deprecated: the lane executors were removed. Leave it 0; the
	// field goes once perfbench/ stops setting it.
	Lanes int
	// Obs attaches the observability layer: per-PE kernel/flush spans
	// when its tracer is on, and CountersInto snapshots. Nil disables
	// observation at zero cost.
	Obs *obs.Observer
}

// Default returns the paper's platform.
func Default() Config {
	return Config{
		NumPEs:         8,
		PE:             pe.Default(),
		L1:             cache.L1Data(),
		L2:             cache.L2(),
		NoC:            noc.Default(),
		MCULatency:     sim.Nanoseconds(40),
		LaunchOverhead: sim.Microseconds(5),
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.NumPEs < 2 {
		return fmt.Errorf("accel: need at least a server and one agent, got %d PEs", c.NumPEs)
	}
	if err := c.PE.Validate(); err != nil {
		return err
	}
	if err := c.L1.Validate(); err != nil {
		return err
	}
	if err := c.L2.Validate(); err != nil {
		return err
	}
	if err := c.NoC.Validate(); err != nil {
		return err
	}
	if c.NoC.Ports < c.NumPEs+1 {
		return fmt.Errorf("accel: crossbar needs %d ports for %d PEs plus the controller", c.NumPEs+1, c.NumPEs)
	}
	if c.MCULatency < 0 || c.LaunchOverhead < 0 {
		return fmt.Errorf("accel: negative overheads")
	}
	if c.Lanes != 0 {
		return fmt.Errorf("accel: Lanes = %d, but the lane executors were removed; leave it 0", c.Lanes)
	}
	return nil
}

// Accelerator is the assembled device.
type Accelerator struct {
	cfg     Config
	backend mem.Device
	xbar    *noc.Crossbar
	mcu     *sim.Resource
	psc     *PSC
	// writeGen invalidates MCU stream buffers on any write through the
	// accelerator, keeping aggregated fetches coherent.
	writeGen int64

	// Interleave steps accumulated over every runAll on this
	// accelerator, and the summed time job agents spent waiting for a
	// free PE (RunJobs FIFO queue).
	events    int64
	queueWait sim.Duration
}

// mcuFetchBytes is the server's aggregated request size: "512 bytes per
// channel" across the two channels, fetched into a per-agent stream
// buffer when the miss pattern is sequential.
const mcuFetchBytes = 1024

// New assembles an accelerator over backend.
func New(cfg Config, backend mem.Device) (*Accelerator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if backend == nil {
		return nil, fmt.Errorf("accel: nil backend")
	}
	xbar, err := noc.New(cfg.NoC)
	if err != nil {
		return nil, err
	}
	return &Accelerator{
		cfg:     cfg,
		backend: backend,
		xbar:    xbar,
		mcu:     sim.NewResource("mcu"),
		psc:     newPSC(cfg.NumPEs - 1),
	}, nil
}

// MustNew is New for known-good configurations.
func MustNew(cfg Config, backend mem.Device) *Accelerator {
	a, err := New(cfg, backend)
	if err != nil {
		panic(err)
	}
	return a
}

// Config returns the build configuration.
func (a *Accelerator) Config() Config { return a.cfg }

// Backend returns the memory backend.
func (a *Accelerator) Backend() mem.Device { return a.backend }

// Agents returns how many PEs execute kernels (all but the server).
func (a *Accelerator) Agents() int { return a.cfg.NumPEs - 1 }

// PSC exposes the power/sleep controller's state and residencies.
func (a *Accelerator) PSC() *PSC { return a.psc }

// QueueWait returns the cumulative job-queue wait across every RunJobs
// call on this device (blame attribution).
func (a *Accelerator) QueueWait() sim.Duration { return a.queueWait }

// serverPort is the crossbar port of the server PE (port 0); agent i uses
// port i+1; the FPGA controller bridge is the last port.
const serverPort = 0

// mcuPath routes an agent's L2 misses through the crossbar to the
// server's MCU and down to the backend ("the MCU takes over the L2 cache
// misses of an agent and administrates all the associated PRAM
// accesses").
type mcuPath struct {
	a    *Accelerator
	port int // the agent's crossbar port

	// Stream buffer: the server aggregates sequential misses into
	// mcuFetchBytes backend reads ("512 bytes per channel ... and tries
	// to prefetch data by using all RDBs across different banks"). buf is
	// allocated once per agent and reused across fetches; bufLen is the
	// number of valid bytes (0 = empty).
	bufAddr  uint64
	buf      []byte
	bufLen   int
	bufReady sim.Time
	bufGen   int64
	prevEnd  uint64 // end of the previous miss, for the sequential detector
}

var _ mem.Device = (*mcuPath)(nil)

func (m *mcuPath) Size() uint64 { return m.a.backend.Size() }

// ReadInto implements mem.Device; the whole miss path runs without
// allocating.
func (m *mcuPath) ReadInto(at sim.Time, addr uint64, dst []byte) (sim.Time, error) {
	n := len(dst)
	// Stream-buffer hit: the aggregated block already holds the line.
	if m.bufLen > 0 && m.bufGen == m.a.writeGen &&
		addr >= m.bufAddr && addr+uint64(n) <= m.bufAddr+uint64(m.bufLen) {
		t := sim.Max(at, m.bufReady)
		t, err := m.a.xbar.Transfer(t, serverPort, m.port, int64(n))
		if err != nil {
			return 0, err
		}
		copy(dst, m.buf[addr-m.bufAddr:])
		return t, nil
	}

	// Request message agent -> server, MCU handling, backend access,
	// data server -> agent.
	t, err := m.a.xbar.Transfer(at, m.port, serverPort, 32)
	if err != nil {
		return 0, err
	}
	t = m.a.mcu.AcquireUntil(t, m.a.cfg.MCULatency)

	sequential := addr == m.prevEnd
	m.prevEnd = addr + uint64(n)
	if !sequential {
		// Isolated miss: fetch exactly the request, straight into dst.
		if t, err = m.a.backend.ReadInto(t, addr, dst); err != nil {
			return 0, err
		}
		return m.a.xbar.Transfer(t, serverPort, m.port, int64(n))
	}

	// Aggregate: fetch the aligned block and keep it for the next misses
	// of this agent's stream.
	base := addr / mcuFetchBytes * mcuFetchBytes
	fetch := mcuFetchBytes
	if base+uint64(fetch) > m.a.backend.Size() {
		fetch = int(m.a.backend.Size() - base)
	}
	if cap(m.buf) < fetch {
		m.buf = make([]byte, mcuFetchBytes)
	}
	buf := m.buf[:fetch]
	m.bufLen = 0 // empty while the fetch is in flight
	if t, err = m.a.backend.ReadInto(t, base, buf); err != nil {
		return 0, err
	}
	m.bufAddr, m.bufLen, m.bufReady, m.bufGen = base, fetch, t, m.a.writeGen
	t, err = m.a.xbar.Transfer(t, serverPort, m.port, int64(n))
	if err != nil {
		return 0, err
	}
	copy(dst, buf[addr-base:int(addr-base)+n])
	return t, nil
}

func (m *mcuPath) Write(at sim.Time, addr uint64, data []byte) (sim.Time, error) {
	m.a.writeGen++ // writes invalidate every agent's stream buffer
	t, err := m.a.xbar.Transfer(at, m.port, serverPort, int64(len(data))+32)
	if err != nil {
		return 0, err
	}
	t = m.a.mcu.AcquireUntil(t, m.a.cfg.MCULatency)
	return m.a.backend.Write(t, addr, data)
}

func (m *mcuPath) Drain() sim.Time { return mem.DrainOf(m.a.backend, 0) }

// AgentRun is the per-agent outcome of a kernel execution.
type AgentRun struct {
	Instructions int64
	Compute      sim.Duration
	Stall        sim.Duration
	Finished     sim.Time
	L1           cache.Stats
	L2           cache.Stats
}

// Report summarizes a kernel execution.
type Report struct {
	Start  sim.Time
	End    sim.Time // last agent finished, caches flushed, backend drained
	Agents []AgentRun
	IPC    *stats.Series // aggregate instructions per bucket (nil unless sampled)
	// Spans holds each agent's active intervals, indexed like Agents
	// (sampled reports only). The energy model reads them through
	// EachSpan and then drops them.
	Spans   []*pe.Spans
	Instrs  int64
	Compute sim.Duration // summed over agents
	Stall   sim.Duration
	// Events counts interleave steps dispatched for this run (RunKernel
	// reports only); with the batched front-end one step covers a whole
	// coalesced run, so the count shrinking is the coalescer working.
	Events int64
}

// ExecTime returns the wall-clock duration of the run.
func (r *Report) ExecTime() sim.Duration { return r.End - r.Start }

// CountersInto writes the run's activity into the registry: per-PE busy
// (compute) and stall time, instruction counts and L1/L2 cache activity,
// plus aggregate totals and interleave step counts.
func (r *Report) CountersInto(c *obs.Counters) {
	if c == nil {
		return
	}
	for i := range r.Agents {
		ag := &r.Agents[i]
		p := fmt.Sprintf("accel.pe%d.", i)
		c.Add(p+"instructions", ag.Instructions)
		c.Add(p+"busy_ps", int64(ag.Compute))
		c.Add(p+"stall_ps", int64(ag.Stall))
		ag.L1.CountersInto(c, p+"l1.")
		ag.L2.CountersInto(c, p+"l2.")
	}
	c.Add("accel.instructions", r.Instrs)
	c.Add("accel.busy_ps", int64(r.Compute))
	c.Add("accel.stall_ps", int64(r.Stall))
	c.Add("sim.events_dispatched", r.Events)
	// Always 0: no event engine recycles anything any more. The name
	// stays registered so counter exports keep their shape.
	c.Add("sim.events_recycled", 0)
}

// CountersInto writes the accelerator's lifetime activity into the
// registry: PSC reboots and transitions, job queue wait, MCU occupancy
// and interleave step totals across every run on this device.
func (a *Accelerator) CountersInto(c *obs.Counters) {
	if c == nil {
		return
	}
	c.Add("accel.psc.boots", a.psc.Boots())
	c.Add("accel.psc.transitions", int64(a.psc.Transitions()))
	c.Add("accel.job_queue_wait_ps", int64(a.queueWait))
	c.Add("accel.mcu_busy_ps", int64(a.mcu.BusyTime()))
	c.Add("accel.events_dispatched", a.events)
	c.Add("accel.events_recycled", 0) // always 0, as sim.events_recycled
}

// TotalIPC returns aggregate retired instructions per core cycle across
// agents (the Figure 18/19 metric), using a 1 GHz reference clock.
func (r *Report) TotalIPC(clockHz float64) float64 {
	if r.End <= r.Start {
		return 0
	}
	cycles := r.ExecTime().Seconds() * clockHz
	return float64(r.Instrs) / cycles
}

// EachSpan calls fn on every agent's active spans merged by (T0, core
// ID). That is the order in which the op-at-a-time execution starts
// them: runAll steps the core with the least (local time, ID), a
// stepped core's clock never goes back, so the keys of successive steps
// never decrease; a span starts at its op's step time, and one core
// never starts two spans at the same time. The merge therefore feeds
// the energy model the same float additions in the same order whether
// or not the runs were folded.
func (r *Report) EachSpan(fn func(pe.Span)) {
	next := make([]int, len(r.Spans))
	for {
		best := -1
		var bestT sim.Time
		for i, s := range r.Spans {
			if next[i] < s.Len() {
				if t := s.At(next[i]).T0; best < 0 || t < bestT {
					best, bestT = i, t
				}
			}
		}
		if best < 0 {
			return
		}
		fn(r.Spans[best].At(next[best]))
		next[best]++
	}
}

// runAll interleaves the runners' PEs in simulated-time order: every
// iteration steps the core with the smallest local clock, so shared
// resources (MCU, crossbar, backend) see requests in a globally causal
// arrival order. Equal clocks break by core ID - an explicit rule rather
// than event-schedule order, because the batched front-end covers a
// variable number of ops per step and schedule-order ties would make the
// interleave (and therefore shared-path timing) depend on whether runs
// were folded. With the tie-break pinned, the batched and unbatched
// executions are time-identical.
func runAll(runners []runner) (processed int64, err error) {
	active := make([]*pe.PE, len(runners))
	for i, r := range runners {
		active[i] = r.core
	}
	for len(active) > 0 {
		best := 0
		for i := 1; i < len(active); i++ {
			if active[i].Now() < active[best].Now() ||
				(active[i].Now() == active[best].Now() && active[i].ID < active[best].ID) {
				best = i
			}
		}
		core := active[best]
		ok, err := core.Step()
		processed++
		if err != nil {
			return processed, err
		}
		if !ok {
			active[best] = active[len(active)-1]
			active = active[:len(active)-1]
		}
	}
	return processed, nil
}

// RunKernel executes kernel k with params p across the agents, starting
// at `start`. Each agent gets its stream share; the run interleaves agent
// steps in time order so shared resources (MCU, crossbar, backend) see a
// realistic arrival pattern. Returns the execution report.
func (a *Accelerator) RunKernel(start sim.Time, k workload.Kernel, p workload.Params) (*Report, error) {
	ids := make([]int, a.Agents())
	for i := range ids {
		ids[i] = i
	}
	// Agents start staggered by the server's serial launch work.
	runners, err := a.launch(k, p, ids, func(i int) sim.Time {
		return start + sim.Duration(i)*a.cfg.LaunchOverhead
	})
	if err != nil {
		return nil, err
	}
	processed, err := runAll(runners)
	if err != nil {
		return nil, err
	}
	a.events += processed
	rep, err := a.collect(runners)
	if err != nil {
		return nil, err
	}
	// The kernel ends once the flushed results have drained into the
	// backend's posted work.
	rep.Start, rep.End, rep.Events = start, mem.DrainOf(a.backend, rep.End), processed
	return rep, nil
}

// runner is one agent PE's execution context for one kernel: the core
// and its private caches.
type runner struct {
	core   *pe.PE
	l1, l2 *cache.Cache
}

// launch builds one runner per physical agent in ids, running stream
// share i of kernel k on agent ids[i]. Each agent goes through the PSC
// launch: the server sleeps it, stores the boot address, and wakes it
// (Figure 9b), starting that sequence at bootAt(i).
func (a *Accelerator) launch(k workload.Kernel, p workload.Params, ids []int, bootAt func(i int) sim.Time) ([]runner, error) {
	p.Agents = len(ids)
	if err := p.Validate(); err != nil {
		return nil, err
	}
	runners := make([]runner, 0, len(ids))
	for i, id := range ids {
		stream, err := workload.NewStream(k, p, i)
		if err != nil {
			return nil, err
		}
		l2cfg := a.cfg.L2
		l2cfg.Name = fmt.Sprintf("L2.%d", id)
		l2cfg.Obs = a.cfg.Obs
		l2, err := cache.New(l2cfg, &mcuPath{a: a, port: id + 1})
		if err != nil {
			return nil, err
		}
		l1cfg := a.cfg.L1
		l1cfg.Name = fmt.Sprintf("L1.%d", id)
		l1cfg.Obs = a.cfg.Obs
		l1, err := cache.New(l1cfg, l2)
		if err != nil {
			return nil, err
		}
		booted, err := a.psc.Boot(bootAt(i), id, a.cfg.LaunchOverhead)
		if err != nil {
			return nil, err
		}
		core, err := pe.New(id, a.cfg.PE, l1, stream, booted)
		if err != nil {
			return nil, err
		}
		if a.cfg.SampleInterval > 0 {
			core.SampleIPC(a.cfg.SampleInterval)
			core.RecordSpans()
		}
		if ss := a.cfg.Obs.Series(); ss != nil {
			core.ObserveSeries(ss.Get(obs.SeriesPEBusy), ss.Get(obs.SeriesPEStall))
		}
		runners = append(runners, runner{core: core, l1: l1, l2: l2})
	}
	return runners, nil
}

// collect flushes each finished runner's caches so its results persist
// in the backend, puts the agent back to sleep and assembles the
// report. Start is the earliest kernel start and End the last flush;
// posted backend work is not drained.
func (a *Accelerator) collect(runners []runner) (*Report, error) {
	rep := &Report{Start: 1<<62 - 1}
	sampled := a.cfg.SampleInterval > 0
	if sampled {
		rep.IPC = stats.NewSeries(a.cfg.SampleInterval)
	}
	tr := a.cfg.Obs.Tracer()
	var hKernel, hFlush *obs.Histogram
	if hs := a.cfg.Obs.Histograms(); hs != nil {
		hKernel = hs.Get(obs.HistAccelKernel)
		hFlush = hs.Get(obs.HistAccelFlush)
	}
	for _, r := range runners {
		core := r.core
		fin := core.Now()
		d, err := r.l1.Flush(fin)
		if err != nil {
			return nil, err
		}
		if d, err = r.l2.Flush(d); err != nil {
			return nil, err
		}
		kStart := fin - core.ComputeTime() - core.StallTime()
		hKernel.Record(int64(fin - kStart))
		hFlush.Record(int64(d - fin))
		if tr.Enabled() {
			track := fmt.Sprintf("pe%d", core.ID)
			tr.Span("accel", track, "kernel", kStart, fin)
			tr.Span("accel", track, "flush", fin, d)
			// Causal flow edges at the handoff points: the system's load
			// phase dispatches each agent, and each agent's flush drains
			// back into the system's store phase.
			tr.Flow("dispatch", "system", "run", "accel", track, kStart)
			tr.Flow("drain", "accel", track, "system", "run", d)
		}
		run := AgentRun{
			Instructions: core.Instructions(),
			Compute:      core.ComputeTime(),
			Stall:        core.StallTime(),
			Finished:     d,
			L1:           r.l1.Stats(),
			L2:           r.l2.Stats(),
		}
		rep.Agents = append(rep.Agents, run)
		rep.Instrs += run.Instructions
		rep.Compute += run.Compute
		rep.Stall += run.Stall
		if err := a.psc.Sleep(d, core.ID); err != nil {
			return nil, err
		}
		if sampled {
			ipc := core.IPCSeries()
			for b := 0; b < ipc.Len(); b++ {
				rep.IPC.Accumulate(ipc.BucketStart(b), ipc.At(b))
			}
			rep.Spans = append(rep.Spans, core.ActiveSpans())
		}
		// Stats are snapshotted; recycle the line storage for the next
		// kernel's cache build.
		r.l1.Release()
		r.l2.Release()
		rep.Start = min(rep.Start, kStart)
		rep.End = sim.Max(rep.End, d)
	}
	return rep, nil
}
