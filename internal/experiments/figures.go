package experiments

import (
	"fmt"

	"dramless/internal/energy"
	"dramless/internal/memctrl"
	"dramless/internal/sim"
	"dramless/internal/stats"
	"dramless/internal/system"
	"dramless/internal/workload"
)

// The figure generators run as methods on a shared *Engine so every
// system x kernel simulation is computed once per invocation no matter
// how many figures need it, and so distinct cells execute on the
// engine's worker pool. Each generator first prefetches the cells it
// will read, then assembles its rows in a fixed serial order - the
// rendered tables are byte-identical at any parallelism. The package
// also keeps an Options-level function per figure (Fig01, Fig15, ...)
// that runs on a private engine, for one-off use. Those functions and
// Engine.Table/Tables/Arena report invalid Options as errors; the
// generator methods assume options they already validated.

// Fig01 reproduces the motivation study: application performance and
// energy of a real accelerated system (Hetero) normalized to an ideal
// system whose accelerator memory already holds all data. The paper
// reports up to 74% performance degradation and ~9x energy.
func Fig01(o Options) (*Table, error) { return NewEngine(o).Table("fig01") }

// Fig01 generates Figure 1 through the engine's shared cache.
func (e *Engine) Fig01() (*Table, error) {
	o := e.o
	t := &Table{ID: "fig01", Title: "accelerated system vs ideal (normalized)"}
	e.prefetch([]system.Kind{system.Hetero, system.Ideal}, o.kernels())
	var perf, en []float64
	for _, k := range o.kernels() {
		real, err := e.get(system.Hetero, k)
		if err != nil {
			return nil, err
		}
		ideal, err := e.get(system.Ideal, k)
		if err != nil {
			return nil, err
		}
		r := newRow(k.Name)
		p := ideal.Total.Seconds() / real.Total.Seconds() // normalized perf
		e2 := real.Energy.Total() / ideal.Energy.Total()  // normalized energy
		r.set("norm-perf", p)
		r.set("norm-energy", e2)
		t.Rows = append(t.Rows, r)
		perf = append(perf, p)
		en = append(en, e2)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("mean normalized performance %.2f (degradation %.0f%%), mean normalized energy %.1fx (paper: up to 74%% degradation, ~9x energy)",
			stats.Mean(perf), (1-stats.Mean(perf))*100, stats.Mean(en)))
	return t, nil
}

// Fig07 reproduces the firmware study: performance degradation of
// managing the PRAM subsystem with traditional SSD firmware versus the
// oracle hardware-automated controller (the paper reports up to 80%).
func Fig07(o Options) (*Table, error) { return NewEngine(o).Table("fig07") }

// Fig07 generates Figure 7 through the engine's shared cache.
func (e *Engine) Fig07() (*Table, error) {
	o := e.o
	t := &Table{ID: "fig07", Title: "firmware-managed PRAM vs oracle controller"}
	e.prefetch([]system.Kind{system.DRAMLessFirmware, system.DRAMLess}, o.kernels())
	var degr []float64
	for _, k := range o.kernels() {
		fw, err := e.get(system.DRAMLessFirmware, k)
		if err != nil {
			return nil, err
		}
		oracle, err := e.get(system.DRAMLess, k)
		if err != nil {
			return nil, err
		}
		r := newRow(k.Name)
		d := 1 - oracle.Total.Seconds()/fw.Total.Seconds()
		r.set("degradation", d)
		t.Rows = append(t.Rows, r)
		degr = append(degr, d)
	}
	t.Notes = append(t.Notes, fmt.Sprintf("mean degradation %.0f%%, max %.0f%% (paper: up to 80%%)",
		stats.Mean(degr)*100, stats.Percentile(degr, 1)*100))
	return t, nil
}

// Fig12 reproduces the multi-resource-aware interleaving timing diagram
// as a measurement: two requests to different partitions of the same
// chip, bare-metal versus interleaved.
func Fig12(Options) (*Table, error) {
	t := &Table{ID: "fig12", Title: "two-request overlap on one chip (ns)"}
	elapsed := func(s memctrl.Scheduler) (sim.Duration, error) {
		cfg := memctrl.DefaultConfig(s)
		cfg.Geometry.RowsPerModule = 1 << 16
		cfg.Prefetch = false
		sub, err := memctrl.New(cfg)
		if err != nil {
			return 0, err
		}
		// Module-local rows 0 and 1 of (ch0, pkg0): partitions 0 and 1,
		// queued together as the controller would see them.
		_, done, err := sub.ReadScatter(0, []uint64{0, 1024}, 32)
		return done, err
	}
	serial, err := elapsed(memctrl.Noop)
	if err != nil {
		return nil, err
	}
	over, err := elapsed(memctrl.Interleave)
	if err != nil {
		return nil, err
	}
	r := newRow("req0+req1")
	r.set("bare-metal-ns", serial.Nanos())
	r.set("interleaved-ns", over.Nanos())
	r.set("hidden-frac", 1-float64(over)/float64(serial))
	t.Rows = append(t.Rows, r)
	t.Notes = append(t.Notes, "paper: interleaving hides array access behind transfer, ~40% of the memory access latency")
	return t, nil
}

// Fig13 reproduces the scheduler study: data-processing bandwidth of the
// DRAM-less subsystem under Bare-metal / Interleaving / Selective-erasing
// / Final, plus each workload's write ratio (the circles).
func Fig13(o Options) (*Table, error) { return NewEngine(o).Table("fig13") }

// Fig13 generates Figure 13 through the engine's shared cache.
func (e *Engine) Fig13() (*Table, error) {
	o := e.o
	t := &Table{ID: "fig13", Title: "scheduler bandwidth, normalized to Bare-metal"}
	scheds := []memctrl.Scheduler{memctrl.Noop, memctrl.Interleave, memctrl.SelErase, memctrl.Final}
	cfgs := make(map[memctrl.Scheduler]system.Config, len(scheds))
	for _, s := range scheds {
		cfg := o.config(system.DRAMLess)
		cfg.Scheduler = s
		cfgs[s] = cfg
		e.prefetchCfg(cfg, o.kernels()...)
	}
	gains := map[memctrl.Scheduler][]float64{}
	for _, k := range o.kernels() {
		row := newRow(k.Name)
		var base float64
		for _, s := range scheds {
			res, err := e.getCfg(cfgs[s], k)
			if err != nil {
				return nil, err
			}
			bw := res.BandwidthMBps()
			if s == memctrl.Noop {
				base = bw
			}
			norm := bw / base
			row.set(s.String(), norm)
			gains[s] = append(gains[s], norm)
		}
		p := workload.Params{Scale: o.Scale, Agents: 7}
		row.set("write-ratio", k.WriteRatio(p))
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"mean gain over Bare-metal: Interleaving %.0f%%, Selective-erasing %.0f%%, Final %.0f%% (paper: 54%% max / 57%% / 77%%)",
		(stats.Mean(gains[memctrl.Interleave])-1)*100,
		(stats.Mean(gains[memctrl.SelErase])-1)*100,
		(stats.Mean(gains[memctrl.Final])-1)*100))
	return t, nil
}

// Fig15 reproduces the headline throughput comparison: the ten systems'
// data-processing bandwidth normalized to Hetero.
func Fig15(o Options) (*Table, error) { return NewEngine(o).Table("fig15") }

// Fig15 generates Figure 15 through the engine's shared cache.
func (e *Engine) Fig15() (*Table, error) {
	o := e.o
	t := &Table{ID: "fig15", Title: "throughput normalized to Hetero"}
	kinds := system.Fig15Kinds()
	e.prefetch(kinds, o.kernels())
	norm := map[system.Kind][]float64{}
	for _, k := range o.kernels() {
		base, err := e.get(system.Hetero, k)
		if err != nil {
			return nil, err
		}
		row := newRow(k.Name)
		for _, kind := range kinds {
			res, err := e.get(kind, k)
			if err != nil {
				return nil, err
			}
			v := res.BandwidthMBps() / base.BandwidthMBps()
			row.set(kind.String(), v)
			norm[kind] = append(norm[kind], v)
		}
		t.Rows = append(t.Rows, row)
	}
	dl := stats.Mean(norm[system.DRAMLess])
	hd := stats.Mean(norm[system.Heterodirect])
	t.Notes = append(t.Notes, fmt.Sprintf(
		"DRAM-less vs Hetero %.0f%%, vs Heterodirect %.0f%% (paper: +93%% and +47%%)",
		(dl-1)*100, (dl/hd-1)*100))
	return t, nil
}

// Fig16 reproduces the execution-time decomposition.
func Fig16(o Options) (*Table, error) { return NewEngine(o).Table("fig16") }

// Fig16 generates Figure 16 through the engine's shared cache.
func (e *Engine) Fig16() (*Table, error) {
	o := e.o
	t := &Table{ID: "fig16", Title: "execution time decomposition (fraction of total)"}
	e.prefetch(system.Fig15Kinds(), o.kernels())
	comps := []string{system.TimeLoad, system.TimeCompute, system.TimeStall, system.TimeStore}
	for _, kind := range system.Fig15Kinds() {
		agg := stats.NewBreakdown()
		for _, k := range o.kernels() {
			res, err := e.get(kind, k)
			if err != nil {
				return nil, err
			}
			agg.AddAll(res.Time)
		}
		row := newRow(kind.String())
		for _, c := range comps {
			row.set(c, agg.Share(c))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, "paper: heterogeneous systems spend most time in data movement; DRAM-less spends it computing")
	return t, nil
}

// Fig17 reproduces the energy decomposition, normalized to Hetero.
func Fig17(o Options) (*Table, error) { return NewEngine(o).Table("fig17") }

// Fig17 generates Figure 17 through the engine's shared cache.
func (e *Engine) Fig17() (*Table, error) {
	o := e.o
	t := &Table{ID: "fig17", Title: "energy decomposition (J, plus total normalized to Hetero)"}
	e.prefetch(system.Fig15Kinds(), o.kernels())
	comps := []string{
		energy.CompHost, energy.CompHostDRAM, energy.CompPCIe, energy.CompSSD,
		energy.CompCore, energy.CompCache, energy.CompDRAM, energy.CompFlash,
		energy.CompPRAM, energy.CompFirmware,
	}
	baseTotals := map[string]float64{}
	for _, k := range o.kernels() {
		res, err := e.get(system.Hetero, k)
		if err != nil {
			return nil, err
		}
		baseTotals[k.Name] = res.Energy.Total()
	}
	var dlNorm, hdNorm []float64
	for _, kind := range system.Fig15Kinds() {
		row := newRow(kind.String())
		agg := stats.NewBreakdown()
		var norms []float64
		for _, k := range o.kernels() {
			res, err := e.get(kind, k)
			if err != nil {
				return nil, err
			}
			agg.AddAll(res.Energy.Breakdown())
			norms = append(norms, res.Energy.Total()/baseTotals[k.Name])
		}
		for _, c := range comps {
			row.set(c, agg.Get(c))
		}
		row.set("norm-total", stats.Mean(norms))
		t.Rows = append(t.Rows, row)
		if kind == system.DRAMLess {
			dlNorm = norms
		}
		if kind == system.Heterodirect {
			hdNorm = norms
		}
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"DRAM-less energy = %.0f%% of Hetero, %.0f%% of Heterodirect (paper: 19%% of the advanced accelerated systems)",
		stats.Mean(dlNorm)*100, stats.Mean(dlNorm)/stats.Mean(hdNorm)*100))
	return t, nil
}

// timeSeriesKinds are the systems shown in the Figure 18-21 time series.
func timeSeriesKinds() []system.Kind {
	return []system.Kind{
		system.IntegratedSLC, system.IntegratedMLC, system.IntegratedTLC,
		system.PageBuffer, system.NORIntf, system.DRAMLess,
	}
}

// ipcConfig is the sampling configuration of the Figure 18/19 series.
func (e *Engine) ipcConfig(kind system.Kind) system.Config {
	cfg := e.o.config(kind)
	cfg.SampleInterval = 50 * sim.Microsecond
	return cfg
}

// figIPC builds an IPC time-series table for one workload.
func (e *Engine) figIPC(id, kname string) (*Table, error) {
	t := &Table{ID: id, Title: "total IPC over time, " + kname}
	k := workload.MustByName(kname)
	for _, kind := range timeSeriesKinds() {
		e.prefetchCfg(e.ipcConfig(kind), k)
	}
	for _, kind := range timeSeriesKinds() {
		cfg := e.ipcConfig(kind)
		res, err := e.getCfg(cfg, k)
		if err != nil {
			return nil, err
		}
		row := newRow(kind.String())
		// Mean IPC, sustained (p50) and the stall fraction (zero-IPC buckets).
		cycles := cfg.SampleInterval.Seconds() * 1e9
		vals := res.Report.IPC.Values()
		ipc := make([]float64, len(vals))
		zero := 0
		for i, v := range vals {
			ipc[i] = v / cycles
			if ipc[i] < 0.05 {
				zero++
			}
		}
		row.set("mean-ipc", stats.Mean(ipc))
		row.set("p50-ipc", stats.Percentile(ipc, 0.5))
		row.set("idle-frac", float64(zero)/float64(max(1, len(ipc))))
		row.set("samples", float64(len(ipc)))
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"paper: page-granule systems stall on storage (zero-IPC periods); DRAM-less sustains ~2 total IPC")
	return t, nil
}

// Fig18 reproduces the read-intensive IPC time series (gemver).
func Fig18(o Options) (*Table, error) { return NewEngine(o).Table("fig18") }

// Fig18 generates Figure 18 through the engine's shared cache.
func (e *Engine) Fig18() (*Table, error) { return e.figIPC("fig18", "gemver") }

// Fig19 reproduces the write-intensive IPC time series (doitg).
func Fig19(o Options) (*Table, error) { return NewEngine(o).Table("fig19") }

// Fig19 generates Figure 19 through the engine's shared cache.
func (e *Engine) Fig19() (*Table, error) { return e.figIPC("fig19", "doitg") }

// powerConfig is the capture configuration of the Figure 20/21 series:
// the paper captures the first 16 KB of processing.
func (e *Engine) powerConfig(kind system.Kind) system.Config {
	cfg := e.o.config(kind)
	cfg.Scale = 16 << 10
	cfg.SampleInterval = 10 * sim.Microsecond
	return cfg
}

// figPower builds the power / cumulative-energy capture for one workload
// over a small (16 KiB-class) footprint, as in Figures 20/21.
func (e *Engine) figPower(id, kname string) (*Table, error) {
	t := &Table{ID: id, Title: "core power and total energy, " + kname + " (16KB-class capture)"}
	k := workload.MustByName(kname)
	for _, kind := range timeSeriesKinds() {
		e.prefetchCfg(e.powerConfig(kind), k)
	}
	for _, kind := range timeSeriesKinds() {
		res, err := e.getCfg(e.powerConfig(kind), k)
		if err != nil {
			return nil, err
		}
		row := newRow(kind.String())
		ps := res.Energy.PowerSeries()
		row.set("mean-power-w", stats.Mean(ps))
		row.set("peak-power-w", stats.Percentile(ps, 1))
		row.set("total-energy-uj", res.Energy.Total()*1e6)
		row.set("completion-us", res.Total.Micros())
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"paper: NOR-intf draws the least power but burns more energy via longer runtime; DRAM-less completes 50-88% sooner")
	return t, nil
}

// Fig20 reproduces the read-intensive power/energy capture (gemver).
func Fig20(o Options) (*Table, error) { return NewEngine(o).Table("fig20") }

// Fig20 generates Figure 20 through the engine's shared cache.
func (e *Engine) Fig20() (*Table, error) { return e.figPower("fig20", "gemver") }

// Fig21 reproduces the write-intensive power/energy capture (doitg).
func Fig21(o Options) (*Table, error) { return NewEngine(o).Table("fig21") }

// Fig21 generates Figure 21 through the engine's shared cache.
func (e *Engine) Fig21() (*Table, error) { return e.figPower("fig21", "doitg") }

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
