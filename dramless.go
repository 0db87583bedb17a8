// Package dramless is a simulation library reproducing "DRAM-less:
// Hardware Acceleration of Data Processing with New Memory" (Zhang et
// al., HPCA 2020): a multi-core accelerator whose internal DRAM is
// replaced by a hardware-automated multi-partition PRAM subsystem, plus
// every baseline system the paper compares against.
//
// The public API has three layers:
//
//   - Device level: NewPRAM builds the hardware-automated PRAM subsystem
//     (FPGA controller, LPDDR2-NVM three-phase addressing, interleaving
//     and selective-erasing schedulers) as a byte-addressable Memory.
//   - Accelerator level: NewAccelerator assembles the 8-PE platform over
//     any Memory and executes kernels near the data; OffloadImage drives
//     the paper's packData/pushData/unpackData programming model.
//   - System level: RunSystem executes a workload end to end on any of
//     the Table I organizations (Hetero, Heterodirect, Integrated-*,
//     PAGE-buffer, NOR-intf, DRAM-less, ...), returning time and energy
//     decompositions; NewExperimentEngine regenerates any of the paper's
//     tables and figures.
//
// All simulation is deterministic: identical inputs produce identical
// schedules, timings and energies.
package dramless

import (
	"io"

	"dramless/internal/accel"
	"dramless/internal/experiments"
	"dramless/internal/kernel"
	"dramless/internal/mem"
	"dramless/internal/memctrl"
	"dramless/internal/obs"
	"dramless/internal/runner"
	"dramless/internal/sim"
	"dramless/internal/system"
	"dramless/internal/workload"
)

// Time is a simulated instant (picoseconds since simulation start).
type Time = sim.Time

// Duration is a simulated time span.
type Duration = sim.Duration

// Common duration units re-exported for callers.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Memory is a timed, functional byte-addressable device: ReadInto fills
// a caller-owned buffer with previously written bytes, and every
// operation reports its simulated completion time.
type Memory = mem.Device

// The paper's four controller scheduling policies (Figure 13), for
// WithPolicy.
var (
	BareMetal        SchedulerPolicy = memctrl.BareMetal
	Interleaving     SchedulerPolicy = memctrl.Interleaving
	SelectiveErasing SchedulerPolicy = memctrl.SelectiveErasing
	Final            SchedulerPolicy = memctrl.Final
)

// PRAM is the hardware-automated PRAM subsystem: two LPDDR2-NVM channels
// of sixteen multi-partition PRAM packages behind the FPGA controller.
type PRAM = memctrl.Subsystem

// Observability ------------------------------------------------------

// Observer collects hardware counters - and, with tracing enabled,
// a simulated-time span timeline - from every layer it is attached to
// via WithObserver. A nil *Observer is the disabled state: every
// instrumented path degrades to one nil check, and all PR 2
// zero-allocation pins stay at zero.
//
// An Observer accumulates across the runs it observes but is not safe
// for concurrent use; attach it to runs that execute one at a time.
type Observer = obs.Observer

// ObserverOption customizes NewObserver.
type ObserverOption = obs.Option

// Counters is an ordered registry of named counters and gauges
// ("memctrl.rdb_hits", "accel.pe0.busy_ps", ...). SystemResult.Counters
// carries one per run; identical runs produce identical registries.
type Counters = obs.Counters

// Tracer records simulated-time spans and exports them as Chrome
// chrome://tracing JSON (Tracer.WriteChromeJSON / Observer.WriteTrace).
type Tracer = obs.Tracer

// TraceEvent is one completed simulated-time span.
type TraceEvent = obs.TraceEvent

// Histogram is one latency distribution: int64 picosecond samples in
// fixed log-linear buckets (see DESIGN.md §11). Obtain handles from
// Observer.Histograms(); a nil *Histogram records as a no-op.
type Histogram = obs.Histogram

// HistogramSet is an Observer's ordered registry of latency histograms;
// it exports deterministically as JSON or CSV.
type HistogramSet = obs.HistogramSet

// HistogramBucket is one non-empty bucket of an exported Histogram.
type HistogramBucket = obs.Bucket

// Series is one per-simulated-time-window accumulation (bytes moved, PE
// busy picoseconds, ... per window). Obtain handles from
// Observer.Series().
type Series = obs.Series[int64]

// SeriesSet is an Observer's ordered registry of time series.
type SeriesSet = obs.SeriesSet

// Blame is a hierarchical exact-integer simulated-time account
// (phase/component/cause). SystemResult.Blame carries one per run; for
// every phase its accounts sum to the phase wall to the picosecond.
type Blame = obs.Blame

// BlameEntry is one blame account: slash-separated name + picoseconds.
type BlameEntry = obs.BlameEntry

// BlameShare is one ranked blame account with its share of the ranked
// scope in parts per thousand.
type BlameShare = obs.BlameShare

// PathSeg is one segment of a Tracer.CriticalPath extraction: the
// latest-started span covering a stretch of simulated time, or an idle
// gap (empty Proc). Segments tile the queried window exactly.
type PathSeg = obs.PathSeg

// FlowEdge is one causal handoff recorded by a traced run.
type FlowEdge = obs.FlowEdge

// NewObserver builds an Observer; pass WithTracing to record timelines.
func NewObserver(opts ...ObserverOption) *Observer { return obs.New(opts...) }

// WithTracing enables span recording on a NewObserver.
func WithTracing() ObserverOption { return obs.WithTracing() }

// WithSeriesWindow sets the simulated-time window the observer's series
// accumulate over (default 10 µs). Must be positive.
func WithSeriesWindow(window Duration) ObserverOption { return obs.WithSeriesWindow(window) }

// ReadHistograms parses a HistogramSet.WriteJSON export (the `dramless
// run -hist` output) back into a set for reporting and comparison.
func ReadHistograms(r io.Reader) (*HistogramSet, error) { return obs.ReadHistogramsJSON(r) }

// ReadBlame parses a Blame.WriteJSON export (the `dramless blame
// -json` output) back into an account set for reporting and diffing.
func ReadBlame(r io.Reader) (*Blame, error) { return obs.ReadBlameJSON(r) }

// Construction options ------------------------------------------------
//
// All three build layers configure the same way: functional options with
// one interface per layer (PRAMOption, AcceleratorOption, SystemOption).
// Options meaningful at every layer - WithObserver today - implement all
// three interfaces (CommonOption), so one value threads the whole stack:
//
//	o := dramless.NewObserver(dramless.WithTracing())
//	cfg := dramless.NewSystemConfig(dramless.DRAMLess, dramless.WithObserver(o))

// PRAMOption customizes NewPRAM.
type PRAMOption interface{ applyPRAM(*memctrl.Config) }

// AcceleratorOption customizes NewAccelerator.
type AcceleratorOption interface{ applyAccel(*accel.Config) }

// SystemOption customizes NewSystemConfig.
type SystemOption interface{ applySystem(*system.Config) }

// CommonOption is an option valid at every construction layer.
type CommonOption interface {
	PRAMOption
	AcceleratorOption
	SystemOption
}

// pramOptionFunc adapts a function to PRAMOption (the pre-redesign
// option shape; every With* PRAM option wraps one).
type pramOptionFunc func(*memctrl.Config)

func (f pramOptionFunc) applyPRAM(c *memctrl.Config) { f(c) }

// observerOption is WithObserver's implementation: the one option that
// applies at every layer.
type observerOption struct{ o *obs.Observer }

func (w observerOption) applyPRAM(c *memctrl.Config) { c.Obs = w.o }
func (w observerOption) applyAccel(c *accel.Config)  { c.Obs = w.o }
func (w observerOption) applySystem(c *system.Config) {
	c.Obs = w.o
}

// WithObserver attaches an Observer to the layer under construction: on
// a PRAM it instruments the controller's channels, on an accelerator the
// PEs and PSC, and on a SystemConfig the whole build (the run's counters
// merge into the observer and every subsystem records trace spans).
func WithObserver(o *Observer) CommonOption { return observerOption{o: o} }

// SchedulerPolicy is a pluggable controller scheduling policy: a named
// capability vector the channel machinery resolves at construction
// (memctrl.Policy). Besides the paper's four (BareMetal, Interleaving,
// SelectiveErasing, Final) the registry carries "palp", "pause-aware"
// and "wear-aware".
type SchedulerPolicy = memctrl.Policy

// SchedulerPolicies returns every registered scheduling policy in
// registration order.
func SchedulerPolicies() []SchedulerPolicy { return memctrl.Policies() }

// SchedulerPolicyNames returns the registered policy names in
// registration order.
func SchedulerPolicyNames() []string { return memctrl.PolicyNames() }

// PolicyByName resolves a scheduling policy by registry name,
// case-insensitively. Unknown names error with the registered list.
func PolicyByName(name string) (SchedulerPolicy, error) { return memctrl.PolicyByName(name) }

// WithPolicy selects the controller scheduling policy (default Final).
func WithPolicy(p SchedulerPolicy) PRAMOption {
	return pramOptionFunc(func(c *memctrl.Config) { c.Policy = p })
}

// WithCapacityRows sets rows per module (capacity = rows x 32 B x 32
// modules, minus the overlay windows). Must be a power of two.
func WithCapacityRows(rows uint64) PRAMOption {
	return pramOptionFunc(func(c *memctrl.Config) { c.Geometry.RowsPerModule = rows })
}

// WithoutPhaseSkipping disables RAB/RDB-aware phase skipping (ablation).
func WithoutPhaseSkipping() PRAMOption {
	return pramOptionFunc(func(c *memctrl.Config) { c.PhaseSkipping = false })
}

// WithoutPrefetch disables sequential RDB prefetch (ablation).
func WithoutPrefetch() PRAMOption {
	return pramOptionFunc(func(c *memctrl.Config) { c.Prefetch = false })
}

// WithWearLeveling enables start-gap wear leveling in the controller
// (Section VII: "DRAM-less can integrate traditional wear levellers in
// our PRAM controller, such as start-gap"). Every gapWritePeriod row
// programs per region move that region's gap one row; regionRows sets the
// leveling region size (capacity overhead 1/regionRows). Pass 0,0 for the
// conventional psi=100, 512-row-region configuration.
func WithWearLeveling(gapWritePeriod, regionRows int) PRAMOption {
	return pramOptionFunc(func(c *memctrl.Config) {
		w := memctrl.DefaultWear()
		if gapWritePeriod > 0 {
			w.GapWritePeriod = gapWritePeriod
		}
		if regionRows > 0 {
			w.RegionRows = regionRows
		}
		c.Wear = w
	})
}

// WearStats is the controller's endurance picture under wear leveling.
type WearStats = memctrl.WearStats

// WithWritePausing enables device-level write pause/resume: reads preempt
// in-flight programs at the cost of stretching them - the Related Work
// alternative the paper compares its interleaving against.
func WithWritePausing() PRAMOption {
	return pramOptionFunc(func(c *memctrl.Config) { c.WritePausing = true })
}

// NewPRAM builds a booted DRAM-less PRAM subsystem. The returned Memory
// is ready for traffic at the returned time.
func NewPRAM(opts ...PRAMOption) (*PRAM, Time, error) {
	cfg := memctrl.DefaultPolicyConfig(memctrl.Final)
	cfg.Geometry.RowsPerModule = 1 << 18 // 256 MiB usable by default
	for _, o := range opts {
		o.applyPRAM(&cfg)
	}
	sub, err := memctrl.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	ready, err := sub.Boot(0)
	if err != nil {
		return nil, 0, err
	}
	return sub, ready, nil
}

// Accelerator is the 8-PE near-data processing platform (Figure 6).
type Accelerator = accel.Accelerator

// Report is a kernel execution report.
type Report = accel.Report

// NewAccelerator assembles the paper's accelerator over any Memory
// backend (the DRAM-less composition uses a *PRAM). Options customize
// the build; pre-redesign zero-option call sites are unchanged.
func NewAccelerator(backend Memory, opts ...AcceleratorOption) (*Accelerator, error) {
	cfg := accel.Default()
	for _, o := range opts {
		o.applyAccel(&cfg)
	}
	return accel.New(cfg, backend)
}

// Job is one kernel execution request for the server's multi-kernel
// scheduler (Section IV); run batches with Accelerator.RunJobs.
type Job = accel.Job

// JobResult pairs a scheduled job with its execution report.
type JobResult = accel.JobResult

// Workload is one Polybench kernel model.
type Workload = workload.Kernel

// WorkloadParams scales and places a workload.
type WorkloadParams = workload.Params

// Workloads returns the 16-kernel evaluation suite (Table III).
func Workloads() []Workload { return workload.Suite() }

// WorkloadByName returns the named kernel.
func WorkloadByName(name string) (Workload, error) { return workload.ByName(name) }

// KernelImage is a packed multi-app kernel image (Figure 10).
type KernelImage = kernel.Image

// KernelApp is one application inside an image.
type KernelApp = kernel.App

// PackImage serializes an image (the host-side packData interface).
func PackImage(img *KernelImage) ([]byte, error) { return kernel.Pack(img) }

// UnpackImage parses a packed image (the server-side unpackData).
func UnpackImage(data []byte) (*KernelImage, error) { return kernel.Unpack(data) }

// OffloadImage performs the Figure 9b flow: ship the packed image into
// the device at imageAddr, unpack it server-side and load the code
// segments to their boot addresses. push delivers host bytes into device
// memory (e.g. a PCIe DMA); it may be nil to use plain device writes.
func OffloadImage(at Time, img *KernelImage, imageAddr uint64, dev Memory,
	push func(at Time, dst uint64, data []byte) (Time, error)) (*KernelImage, Time, error) {
	p := kernel.Pusher(push)
	if push == nil {
		p = dev.Write
	}
	return kernel.Offload(at, img, imageAddr, p, dev)
}

// SystemKind identifies one Table I organization.
type SystemKind = system.Kind

// The evaluated system organizations.
const (
	Hetero           = system.Hetero
	Heterodirect     = system.Heterodirect
	HeteroPRAM       = system.HeteroPRAM
	HeterodirectPRAM = system.HeterodirectPRAM
	NORIntf          = system.NORIntf
	IntegratedSLC    = system.IntegratedSLC
	IntegratedMLC    = system.IntegratedMLC
	IntegratedTLC    = system.IntegratedTLC
	PageBuffer       = system.PageBuffer
	DRAMLess         = system.DRAMLess
	DRAMLessFirmware = system.DRAMLessFirmware
	Ideal            = system.Ideal
)

// SystemKinds returns every organization; Figure15Kinds the ten compared
// in the headline figure.
func SystemKinds() []SystemKind   { return system.Kinds() }
func Figure15Kinds() []SystemKind { return system.Fig15Kinds() }

// SystemConfig parametrizes a full-system run.
type SystemConfig = system.Config

// SystemResult is an end-to-end run outcome with time and energy
// decompositions.
type SystemResult = system.Result

// NewSystemConfig returns a runnable configuration of the given kind.
// Options customize it at construction - WithObserver(o) attaches the
// observability layer to the whole build; pre-redesign zero-option call
// sites are unchanged. The returned value stays a plain struct whose
// fields remain settable afterwards.
func NewSystemConfig(kind SystemKind, opts ...SystemOption) SystemConfig {
	cfg := system.DefaultConfig(kind)
	for _, o := range opts {
		o.applySystem(&cfg)
	}
	return cfg
}

// RunSystem executes the workload on the configured system end to end:
// input staging, kernel offload, near-data execution, result persistence.
func RunSystem(cfg SystemConfig, w Workload) (*SystemResult, error) {
	return system.Run(cfg, w)
}

// ExperimentTable is a printable experiment result.
type ExperimentTable = experiments.Table

// ExperimentOptions scales the experiment harness. Parallelism bounds
// the run engine's worker pool (0 = GOMAXPROCS, 1 = serial); rendered
// tables are byte-identical at any setting. Validate reports unknown
// kernel names and a negative Parallelism, which the engine also
// returns from every table request.
type ExperimentOptions = experiments.Options

// ExperimentEngine is the parallel experiment run engine: one shared,
// deduplicating simulation cache over a bounded worker pool. Every
// distinct (system configuration, kernel) simulation executes exactly
// once per engine no matter how many experiments need it; distinct
// simulations run on up to ExperimentOptions.Parallelism goroutines,
// while each simulation stays single-goroutine and deterministic. Every
// cell runs cold (populate and load phases included); the result cache
// is the engine's only cache. Its Release and PrefixStats methods and
// ExperimentCellTiming.PrefixHit are deprecated no-ops kept for the
// benchmark harness.
type ExperimentEngine = experiments.Engine

// ExperimentRunStats is the engine's cache and pool accounting
// (simulations run, cache hits, coalesced requests, worker bound).
type ExperimentRunStats = runner.Stats

// ExperimentCellTiming is the host wall-clock accounting of one
// simulation cell, as returned by ExperimentEngine.SlowestCells.
type ExperimentCellTiming = experiments.CellTiming

// NewExperimentEngine builds a run engine. Experiments regenerated
// through the same engine (Table, Tables) share its result cache.
func NewExperimentEngine(o ExperimentOptions) *ExperimentEngine {
	return experiments.NewEngine(o)
}

// ExperimentIDs lists every reproducible table and figure.
func ExperimentIDs() []string {
	all := experiments.Registry()
	out := make([]string, 0, len(all))
	for _, e := range all {
		out = append(out, e.ID)
	}
	return out
}

// FastExperiments returns options sized for quick runs; FullExperiments
// options sized closer to the paper's volumes.
func FastExperiments() ExperimentOptions { return experiments.Fast() }
func FullExperiments() ExperimentOptions { return experiments.Full() }
