package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dramless/internal/runner"
	"dramless/internal/system"
	"dramless/internal/workload"
)

// runKey identifies one simulation cell: the full system configuration
// plus the kernel name. system.Config is a comparable value type, so two
// experiments that need the same cell - fig15, fig16 and fig17 all walk
// the same ten systems - share one cached system.Run result.
type runKey struct {
	cfg    system.Config
	kernel string
}

// Engine is the parallel run engine behind the experiment harness. It
// owns a single cross-experiment result cache over a bounded worker
// pool: every distinct (config, kernel) simulation executes exactly once
// per engine, concurrent requests for the same cell coalesce, and
// distinct cells run on up to Options.Parallelism goroutines. Every
// cell runs cold: system.Run simulates its populate and load phases
// itself, so the result cache is the engine's only cache.
//
// Parallelism is across simulations only. Each simulation runs on its
// own single goroutine, so results - and therefore every rendered
// table - are byte-identical to a serial run at any worker count.
type Engine struct {
	o   Options
	err error // o.Validate(), reported by every table request
	r   *runner.Runner[runKey, *system.Result]

	mu      sync.Mutex
	timings []CellTiming

	// events totals the kernel-phase simulation events dispatched by
	// the cells this engine actually ran (cache hits re-dispatch
	// nothing) — the numerator of the benchmark harness's events/sec
	// dispatch-throughput metric.
	events atomic.Int64
}

// CellTiming is the host-side wall-clock accounting of one simulation
// cell, for the engine's -slowest report.
type CellTiming struct {
	Kind   system.Kind
	Kernel string
	Wall   time.Duration
	// PrefixHit is always false: every cell runs cold. The field stays
	// only because the benchmark harness (perfbench/suite.go) still
	// reads it.
	//
	// Deprecated: the engine's checkpoint cache was removed. The field
	// goes once perfbench/ stops reading it.
	PrefixHit bool
	// Blame summary from the run's always-on time account: the largest
	// kernel-phase account (phase prefix stripped) and its share of the
	// kernel wall in parts per thousand.
	BlameTop      string
	BlameTopMille int64
}

// NewEngine builds an engine for one experiment invocation. Experiments
// regenerated through the same engine share its result cache. Invalid
// options (Options.Validate) make every Table, Tables and Arena call
// return the validation error.
func NewEngine(o Options) *Engine {
	e := &Engine{o: o, err: o.Validate()}
	e.r = runner.New(o.Parallelism, func(k runKey) (*system.Result, error) {
		start := time.Now()
		res, err := system.Run(k.cfg, workload.MustByName(k.kernel))
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", k.cfg.Kind, k.kernel, err)
		}
		if res.Report != nil {
			e.events.Add(res.Report.Events)
		}
		ct := CellTiming{Kind: k.cfg.Kind, Kernel: k.kernel, Wall: time.Since(start)}
		if top := res.Blame.TopShares("kernel/", 1); len(top) == 1 {
			ct.BlameTop = strings.TrimPrefix(top[0].Name, "kernel/")
			ct.BlameTopMille = top[0].Permille
		}
		e.mu.Lock()
		e.timings = append(e.timings, ct)
		e.mu.Unlock()
		return res, nil
	})
	return e
}

// Options returns the engine's scaling options.
func (e *Engine) Options() Options { return e.o }

// Release does nothing: every cell runs cold, so the engine holds no
// checkpoint storage to return. It stays only because the benchmark
// harness (perfbench/suite.go) still calls it.
//
// Deprecated: the engine's checkpoint cache was removed. The method
// goes once perfbench/ stops calling it.
func (e *Engine) Release() {}

// Stats reports the engine's cache and pool accounting.
func (e *Engine) Stats() runner.Stats { return e.r.Stats() }

// PrefixStats returns a zero runner.Stats: the engine captures no
// checkpoints. It stays only because the benchmark harness
// (perfbench/suite.go) still reads it.
//
// Deprecated: the engine's checkpoint cache was removed. The method
// goes once perfbench/ stops calling it.
func (e *Engine) PrefixStats() runner.Stats { return runner.Stats{} }

// Events returns the total kernel-phase simulation events dispatched by
// the cells this engine ran. Dividing by host wall-clock gives the
// dispatch throughput (events/sec) the benchmark harness reports, which
// attributes suite speedups to the simulation rather than to caching.
func (e *Engine) Events() int64 { return e.events.Load() }

// SlowestCells returns the n largest simulation cells by host
// wall-clock, slowest first.
func (e *Engine) SlowestCells(n int) []CellTiming {
	e.mu.Lock()
	out := make([]CellTiming, len(e.timings))
	copy(out, e.timings)
	e.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Wall != out[j].Wall {
			return out[i].Wall > out[j].Wall
		}
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Kernel < out[j].Kernel
	})
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// get returns the default-config cell for kind x kernel, running it if
// no experiment has needed it yet.
func (e *Engine) get(kind system.Kind, k workload.Kernel) (*system.Result, error) {
	return e.getCfg(e.o.config(kind), k)
}

// getCfg is get for a custom configuration (scheduler sweeps, sampling
// time series, shrunk footprints).
func (e *Engine) getCfg(cfg system.Config, k workload.Kernel) (*system.Result, error) {
	return e.r.Get(runKey{cfg: cfg, kernel: k.Name})
}

// prefetch enqueues the kinds x kernels product on the worker pool so
// the serial assembly loop that follows finds its cells finished or in
// flight. Cells another experiment already ran are skipped.
func (e *Engine) prefetch(kinds []system.Kind, kernels []workload.Kernel) {
	keys := make([]runKey, 0, len(kinds)*len(kernels))
	for _, kind := range kinds {
		cfg := e.o.config(kind)
		for _, k := range kernels {
			keys = append(keys, runKey{cfg: cfg, kernel: k.Name})
		}
	}
	e.r.Prefetch(keys...)
}

// prefetchCfg enqueues custom-configuration cells.
func (e *Engine) prefetchCfg(cfg system.Config, kernels ...workload.Kernel) {
	keys := make([]runKey, 0, len(kernels))
	for _, k := range kernels {
		keys = append(keys, runKey{cfg: cfg, kernel: k.Name})
	}
	e.r.Prefetch(keys...)
}

// Table regenerates one experiment by id through the shared cache.
func (e *Engine) Table(id string) (*Table, error) {
	if e.err != nil {
		return nil, e.err
	}
	for _, x := range Registry() {
		if x.ID == id {
			return x.Gen(e)
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q", id)
}

// Tables regenerates the identified experiments - all of them, in paper
// order, when ids is empty - and returns the tables in request order.
//
// With one worker the experiments run serially in order. Otherwise each
// experiment runs on its own goroutine over the shared pool-bounded
// cache; assembly order is fixed by the ids slice, so the output is
// byte-identical to the serial run. The first error in request order is
// returned; a panicking generator re-panics on the calling goroutine,
// matching serial behaviour.
func (e *Engine) Tables(ids ...string) ([]*Table, error) {
	if e.err != nil {
		return nil, e.err
	}
	if len(ids) == 0 {
		for _, x := range Registry() {
			ids = append(ids, x.ID)
		}
	}
	tabs := make([]*Table, len(ids))
	if e.r.Workers() == 1 {
		for i, id := range ids {
			t, err := e.Table(id)
			if err != nil {
				return nil, err
			}
			tabs[i] = t
		}
		return tabs, nil
	}
	errs := make([]error, len(ids))
	panics := make([]any, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			defer func() { panics[i] = recover() }()
			tabs[i], errs[i] = e.Table(id)
		}(i, id)
	}
	wg.Wait()
	for i := range ids {
		if panics[i] != nil {
			panic(panics[i])
		}
		if errs[i] != nil {
			return nil, errs[i]
		}
	}
	return tabs, nil
}
