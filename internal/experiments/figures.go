package experiments

import (
	"fmt"
	"slices"

	"dramless/internal/energy"
	"dramless/internal/memctrl"
	"dramless/internal/sim"
	"dramless/internal/system"
	"dramless/internal/workload"
)

// The figure generators run as methods on a shared *Engine so every
// system x kernel simulation is computed once per invocation no matter
// how many figures need it, and so distinct cells execute on the
// engine's worker pool. Each generator first prefetches the cells it
// will read, then assembles its rows in a fixed serial order - the
// rendered tables are byte-identical at any parallelism. Run one through
// Engine.Table (Registry lists the ids): Engine.Table/Tables/Arena report
// invalid Options as errors; the generator methods assume options they
// already validated.

// Fig01 reproduces the motivation study: application performance and
// energy of a real accelerated system (Hetero) normalized to an ideal
// system whose accelerator memory already holds all data. The paper
// reports up to 74% performance degradation and ~9x energy.
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
			mean(perf), (1-mean(perf))*100, mean(en)))
	return t, nil
}

// Fig07 reproduces the firmware study: performance degradation of
// managing the PRAM subsystem with traditional SSD firmware versus the
// oracle hardware-automated controller (the paper reports up to 80%).
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
		mean(degr)*100, percentile(degr, 1)*100))
	return t, nil
}

// Fig12 reproduces the multi-resource-aware interleaving timing diagram
// as a measurement: two requests to different partitions of the same
// chip, bare-metal versus interleaved.
func Fig12(Options) (*Table, error) {
	t := &Table{ID: "fig12", Title: "two-request overlap on one chip (ns)"}
	elapsed := func(p memctrl.Policy) (sim.Duration, error) {
		cfg := memctrl.DefaultPolicyConfig(p)
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
	serial, err := elapsed(memctrl.BareMetal)
	if err != nil {
		return nil, err
	}
	over, err := elapsed(memctrl.Interleaving)
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
// / Final, plus each workload's write ratio (the circles). Each column
// sets its own policy, so Options.Policy does not apply.
func (e *Engine) Fig13() (*Table, error) {
	o := e.o
	t := &Table{ID: "fig13", Title: "scheduler bandwidth, normalized to Bare-metal"}
	scheds := []struct {
		label  string
		policy memctrl.Policy
	}{
		{"Bare-metal", memctrl.BareMetal},
		{"Interleaving", memctrl.Interleaving},
		{"Selective-erasing", memctrl.SelectiveErasing},
		{"Final", memctrl.Final},
	}
	cfgs := make([]system.Config, len(scheds))
	for i, s := range scheds {
		cfgs[i] = o.config(system.DRAMLess)
		cfgs[i].Policy = s.policy.Name()
		e.prefetchCfg(cfgs[i], o.kernels()...)
	}
	gains := make([][]float64, len(scheds))
	for _, k := range o.kernels() {
		row := newRow(k.Name)
		var base float64
		for i, s := range scheds {
			res, err := e.getCfg(cfgs[i], k)
			if err != nil {
				return nil, err
			}
			bw := res.BandwidthMBps()
			if i == 0 {
				base = bw
			}
			norm := bw / base
			row.set(s.label, norm)
			gains[i] = append(gains[i], norm)
		}
		p := workload.Params{Scale: o.Scale, Agents: 7}
		row.set("write-ratio", k.WriteRatio(p))
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"mean gain over Bare-metal: Interleaving %.0f%%, Selective-erasing %.0f%%, Final %.0f%% (paper: 54%% max / 57%% / 77%%)",
		(mean(gains[1])-1)*100,
		(mean(gains[2])-1)*100,
		(mean(gains[3])-1)*100))
	return t, nil
}

// Fig15 reproduces the headline throughput comparison: the ten systems'
// data-processing bandwidth normalized to Hetero.
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
	dl := mean(norm[system.DRAMLess])
	hd := mean(norm[system.Heterodirect])
	t.Notes = append(t.Notes, fmt.Sprintf(
		"DRAM-less vs Hetero %.0f%%, vs Heterodirect %.0f%% (paper: +93%% and +47%%)",
		(dl-1)*100, (dl/hd-1)*100))
	return t, nil
}

// Fig16 reproduces the execution-time decomposition.
func (e *Engine) Fig16() (*Table, error) {
	o := e.o
	t := &Table{ID: "fig16", Title: "execution time decomposition (fraction of total)"}
	e.prefetch(system.Fig15Kinds(), o.kernels())
	comps := []string{system.TimeLoad, system.TimeCompute, system.TimeStall, system.TimeStore}
	for _, kind := range system.Fig15Kinds() {
		sums := make([]float64, len(comps))
		for _, k := range o.kernels() {
			res, err := e.get(kind, k)
			if err != nil {
				return nil, err
			}
			for _, p := range res.TimeParts() {
				sums[slices.Index(comps, p.Name)] += p.Seconds
			}
		}
		var total float64
		for _, v := range sums {
			total += v
		}
		row := newRow(kind.String())
		for i, c := range comps {
			if total == 0 {
				row.set(c, 0)
			} else {
				row.set(c, sums[i]/total)
			}
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, "paper: heterogeneous systems spend most time in data movement; DRAM-less spends it computing")
	return t, nil
}

// Fig17 reproduces the energy decomposition, normalized to Hetero.
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
		sums := make([]float64, len(comps))
		var norms []float64
		for _, k := range o.kernels() {
			res, err := e.get(kind, k)
			if err != nil {
				return nil, err
			}
			for i, c := range comps {
				sums[i] += res.Energy.Breakdown().Get(c)
			}
			norms = append(norms, res.Energy.Total()/baseTotals[k.Name])
		}
		for i, c := range comps {
			row.set(c, sums[i])
		}
		row.set("norm-total", mean(norms))
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
		mean(dlNorm)*100, mean(dlNorm)/mean(hdNorm)*100))
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
		ipc := make([]float64, res.Report.IPC.Len())
		zero := 0
		for i := range ipc {
			ipc[i] = res.Report.IPC.At(i) / cycles
			if ipc[i] < 0.05 {
				zero++
			}
		}
		row.set("mean-ipc", mean(ipc))
		row.set("p50-ipc", percentile(ipc, 0.5))
		row.set("idle-frac", float64(zero)/float64(max(1, len(ipc))))
		row.set("samples", float64(len(ipc)))
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"paper: page-granule systems stall on storage (zero-IPC periods); DRAM-less sustains ~2 total IPC")
	return t, nil
}

// Fig18 reproduces the read-intensive IPC time series (gemver).
func (e *Engine) Fig18() (*Table, error) { return e.figIPC("fig18", "gemver") }

// Fig19 reproduces the write-intensive IPC time series (doitg).
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
		row.set("mean-power-w", mean(ps))
		row.set("peak-power-w", percentile(ps, 1))
		row.set("total-energy-uj", res.Energy.Total()*1e6)
		row.set("completion-us", res.Total.Micros())
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"paper: NOR-intf draws the least power but burns more energy via longer runtime; DRAM-less completes 50-88% sooner")
	return t, nil
}

// Fig20 reproduces the read-intensive power/energy capture (gemver).
func (e *Engine) Fig20() (*Table, error) { return e.figPower("fig20", "gemver") }

// Fig21 reproduces the write-intensive power/energy capture (doitg).
func (e *Engine) Fig21() (*Table, error) { return e.figPower("fig21", "doitg") }

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
