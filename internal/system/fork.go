package system

import (
	"dramless/internal/obs"
	"dramless/internal/sim"
	"dramless/internal/workload"
)

// Prefix-origin counters: every Result carries exactly one of these, at
// the tail of its registry, recording whether its populate/load prefix
// was simulated from scratch or forked from a shared checkpoint.
const (
	CounterPrefixForks    = "system.prefix_forks"
	CounterPrefixColdRuns = "system.prefix_cold_runs"
)

// Prefix identifies one populate/load prefix. Runs whose Prefix compares
// equal traverse a byte- and picosecond-identical simulation up to the
// end of the load phase: the prefix touches the kernel only through its
// input/output byte counts, base address and agent count, and the Config
// only through fields that shape the timed simulation. Observability
// attachments (Obs, SampleInterval) record the timeline without
// perturbing it, so they are normalized away.
//
// Prefix is a comparable value; it keys the benchmark harness's arena
// checkpoints (perfbench/arena.go). The experiment engine runs every
// cell cold and takes no checkpoints.
type Prefix struct {
	Cfg    Config
	In     int64
	Out    int64
	Base   uint64
	Agents int
}

// PrefixOf returns the checkpoint key for running kernel k under cfg.
func PrefixOf(cfg Config, k workload.Kernel) Prefix {
	p := workload.Params{Scale: cfg.Scale, Agents: cfg.Accel.NumPEs - 1}
	norm := cfg
	norm.Obs = nil
	norm.SampleInterval = 0
	// Scheduler policy: only the DRAM-less kind reads Policy (the
	// firmware-managed build forces bare-metal, every other kind has no
	// PRAM controller), and every spelling of one policy ("", "final",
	// "FINAL") builds the identical controller, so the key holds the
	// canonical name. The policy does shape the prefix itself for
	// DRAM-less (the load phase's PreErase intent declaration), so the
	// name stays in the key there.
	if norm.Kind == DRAMLess {
		if p, err := norm.schedulerPolicy(); err == nil {
			norm.Policy = p.Name()
		}
	} else {
		norm.Policy = ""
	}
	return Prefix{
		Cfg:    norm,
		In:     k.InputBytes(p),
		Out:    k.OutputBytes(p),
		Base:   p.BaseAddr,
		Agents: p.Agents,
	}
}

// Checkpoint is a captured populate/load prefix: a fully built system
// frozen at the end of its load phase, plus everything a forked run
// needs to continue as if it had simulated the prefix itself — the phase
// timestamps, the post-populate energy baseline, and the histogram and
// series samples the prefix emitted.
//
// After capture the template build is only ever read (CopyFrom sources,
// WriteJSON-style exports never touch it), so any number of forks may
// proceed concurrently from one Checkpoint.
type Checkpoint struct {
	tmpl     *build // frozen at loadEnd; never mutated again
	runStart sim.Time
	loadEnd  sim.Time
	snap     snapshot
	hists    *obs.HistogramSet
	series   *obs.SeriesSet
}

// CapturePrefix simulates the populate and load phases for pr once and
// freezes the result. The capture runs against a private Observer so the
// prefix's histogram and series samples can be replayed into each forked
// run's own Observer later.
func CapturePrefix(pr Prefix) (*Checkpoint, error) {
	cfg := pr.Cfg
	cfg.Obs = obs.New()
	b, err := newBuild(cfg)
	if err != nil {
		return nil, err
	}
	setupEnd, err := b.populate(pr.In+pr.Out, pr.Base)
	if err != nil {
		return nil, err
	}
	runStart := setupEnd + sim.Microsecond
	snap := b.snapshot()
	loadEnd, err := b.loadPhase(runStart, pr.In, pr.Out, pr.Base, pr.Agents)
	if err != nil {
		return nil, err
	}
	b.releaseBufs()
	return &Checkpoint{
		tmpl:     b,
		runStart: runStart,
		loadEnd:  loadEnd,
		snap:     snap,
		hists:    cfg.Obs.Histograms(),
		series:   cfg.Obs.Series(),
	}, nil
}

// Release returns the checkpoint's frozen template storage (row segments,
// flash page frames, SSD buffer entries, sparse pages) to the package
// pools. The checkpoint is unusable afterwards: call only once no further
// forks will be taken from it. Safe on nil and idempotent.
func (cp *Checkpoint) Release() {
	if cp == nil || cp.tmpl == nil {
		return
	}
	cp.tmpl.release()
	cp.tmpl = nil
}

// RunForked executes kernel k under cfg, forking the populate/load
// prefix from cp instead of simulating it. The result is byte- and
// picosecond-identical to Run(cfg, k) — phase walls, energy, counters,
// histograms and series all match — provided PrefixOf(cfg, k) equals
// the prefix cp was captured for. Runs that trace spans fall back to a cold Run (the prefix
// spans cannot be replayed into a foreign tracer), and so do runs whose
// Observer's series window is not the capture's default (the prefix
// samples were bucketed over the default window).
func RunForked(cfg Config, k workload.Kernel, cp *Checkpoint) (*Result, error) {
	ss := cfg.Obs.Series()
	if cp == nil || cp.tmpl == nil || cfg.Obs.Tracer().Enabled() || (ss != nil && ss.Window() != cp.series.Window()) {
		return Run(cfg, k)
	}
	b, err := newBuild(cfg)
	if err != nil {
		return nil, err
	}
	p := workload.Params{Scale: cfg.Scale, Agents: cfg.Accel.NumPEs - 1}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	b.copyFrom(cp.tmpl)
	// Replay the prefix's observability samples before the kernel phase
	// records anything new: the capture set's registration order is the
	// cold run's, so names land in the same sequence either way.
	cfg.Obs.Histograms().Merge(cp.hists)
	if err := ss.Merge(cp.series); err != nil {
		return nil, err
	}
	return b.finish(k, p, cp.runStart, cp.loadEnd, cp.snap, CounterPrefixForks)
}

// copyFrom clones the template's mutable component state into b. Both
// builds come from newBuild with Prefix-equal configs, so the component
// sets match exactly. The accelerator is untouched during the prefix
// (fresh equals frozen-at-loadEnd) and the P2P fabric is stateless.
func (b *build) copyFrom(t *build) {
	b.host.CopyFrom(t.host)
	b.accLink.CopyFrom(t.accLink)
	b.ssdLink.CopyFrom(t.ssdLink)
	if b.extSSD != nil {
		b.extSSD.CopyFrom(t.extSSD)
	}
	if b.intSSD != nil {
		b.intSSD.CopyFrom(t.intSSD)
	}
	if b.sub != nil {
		b.sub.CopyFrom(t.sub)
	}
	if b.fwWrap != nil {
		b.fwWrap.CopyFrom(t.fwWrap)
	}
	if b.nor != nil {
		b.nor.CopyFrom(t.nor)
	}
	if b.dram != nil {
		b.dram.CopyFrom(t.dram)
	}
}
