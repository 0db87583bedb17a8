package experiments

import (
	"fmt"

	"dramless/internal/lpddr"
	"dramless/internal/memctrl"
	"dramless/internal/pram"
	"dramless/internal/sim"
	"dramless/internal/system"
	"dramless/internal/workload"
)

// Table1 renders Table I: the important configuration parameters of all
// evaluated accelerated systems, straight from the catalog the builders
// use.
func Table1(Options) (*Table, error) {
	t := &Table{ID: "table1", Title: "configuration parameters of the evaluated systems"}
	for _, row := range system.Catalog() {
		r := newRow(row.Kind.String())
		r.set("heterogeneous", b2f(row.Heterogeneous))
		r.set("internal-dram", b2f(row.InternalDRAM))
		r.set("nvm-read-us", row.NVMReadUS)
		r.set("nvm-erase-us", row.NVMEraseUS)
		t.Rows = append(t.Rows, r)
	}
	t.Notes = append(t.Notes, "nvm-write: PRAM rows are 10/18 us (fresh/overwrite); flash rows per Table I")
	return t, nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Table2 renders the characterized PRAM parameters and self-checks the
// derived latencies against the paper's headline numbers (~100 ns reads,
// 10-18 us writes).
func Table2(Options) (*Table, error) {
	t := &Table{ID: "table2", Title: "characterized PRAM parameters"}
	p := lpddr.Default()
	r := newRow("value")
	r.set("RL-cycles", float64(p.RLCycles))
	r.set("WL-cycles", float64(p.WLCycles))
	r.set("tCK-ns", p.TCK.Nanos())
	r.set("tRP-cycles", float64(p.TRPCycles))
	r.set("tRCD-ns", p.TRCD.Nanos())
	r.set("tDQSCK-ns", p.TDQSCK.Nanos())
	r.set("tDQSS-ns", p.TDQSS.Nanos())
	r.set("tWRA-ns", p.TWRA.Nanos())
	r.set("burst", float64(p.BurstLen))
	r.set("RAB", float64(p.NumRAB))
	r.set("RDB-bytes", float64(p.RDBBytes))
	r.set("channels", float64(p.Channels))
	r.set("packages", float64(p.Packages))
	r.set("partitions", float64(p.Partitions))
	t.Rows = append(t.Rows, r)

	read := p.RowReadLatency()
	wFresh := p.ProgramTime(lpddr.CellFresh)
	wOver := p.ProgramTime(lpddr.CellProgrammed)
	if read > sim.Nanoseconds(150) {
		return nil, fmt.Errorf("table2 self-check: read latency %v not ~100ns", read)
	}
	if wFresh != sim.Microseconds(10) || wOver != sim.Microseconds(18) {
		return nil, fmt.Errorf("table2 self-check: writes %v/%v not 10/18us", wFresh, wOver)
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"derived: three-phase read %.0fns, write %v fresh / %v overwrite, erase %v",
		read.Nanos(), wFresh, wOver, p.CellErase))
	return t, nil
}

// Table3 renders the workload characteristics: write intensity (output
// per input volume), data volume and class for every kernel.
func Table3(o Options) (*Table, error) { return NewEngine(o).Table("table3") }

// Table3 generates Table III from the engine's options.
func (e *Engine) Table3() (*Table, error) {
	o := e.o
	t := &Table{ID: "table3", Title: "workload characteristics"}
	p := workload.Params{Scale: o.Scale, Agents: 7}
	for _, k := range o.kernels() {
		r := newRow(k.Name)
		r.set("write-intensity", k.WriteIntensity())
		r.set("write-ratio", k.WriteRatio(p))
		r.set("volume-KiB", float64(k.FootprintBytes(p))/1024)
		r.set("instructions", float64(k.Instructions(p)))
		r.set("class", float64(k.Class))
		t.Rows = append(t.Rows, r)
	}
	t.Notes = append(t.Notes, "class: 0=read-intensive 1=write-intensive 2=compute-intensive 3=memory-intensive")
	return t, nil
}

// Sec5Interleave measures the Section V claim that multi-resource-aware
// interleaving hides memory access latency behind transfer time (~40%)
// on a streaming 512 B channel read.
func Sec5Interleave(Options) (*Table, error) {
	t := &Table{ID: "sec5-interleave", Title: "interleaving latency hiding on a 512B channel read"}
	elapsed := func(s memctrl.Scheduler) (sim.Duration, error) {
		cfg := memctrl.DefaultConfig(s)
		cfg.Geometry.RowsPerModule = 1 << 16
		cfg.Prefetch = false
		sub, err := memctrl.New(cfg)
		if err != nil {
			return 0, err
		}
		_, done, err := sub.Read(0, 0, 512)
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
	r := newRow("512B read")
	r.set("bare-metal-ns", serial.Nanos())
	r.set("interleaved-ns", over.Nanos())
	hidden := 1 - float64(over)/float64(serial)
	r.set("hidden-frac", hidden)
	t.Rows = append(t.Rows, r)
	if hidden < 0.40 {
		return nil, fmt.Errorf("sec5 self-check: interleaving hides only %.0f%%, paper claims ~40%%", hidden*100)
	}
	t.Notes = append(t.Notes, "paper: hides the memory access latency behind data transfer time by 40%")
	return t, nil
}

// Sec5SelErase measures the selective-erasing overwrite reduction on the
// PRAM module (paper: 44-55%).
func Sec5SelErase(Options) (*Table, error) {
	t := &Table{ID: "sec5-selerase", Title: "selective erasing overwrite latency"}
	geo := pram.DefaultGeometry()
	geo.RowsPerModule = 1 << 16
	m, err := pram.NewModule(geo, lpddr.Default())
	if err != nil {
		return nil, err
	}
	data := make([]byte, 32)
	for i := range data {
		data[i] = 0xA5
	}
	// Plain overwrite.
	d, err := m.ProgramRow(0, 0, 5, data)
	if err != nil {
		return nil, err
	}
	d = sim.Max(d, m.BusyUntil())
	execDone, err := m.ProgramRow(d, 0, 5, data)
	if err != nil {
		return nil, err
	}
	overwrite := m.BusyUntil() - execDone

	// Selectively erased overwrite.
	d = sim.Max(d, m.BusyUntil())
	zero := make([]byte, 32)
	if d, err = m.ProgramRow(d, 0, 5, zero); err != nil {
		return nil, err
	}
	d = sim.Max(d, m.BusyUntil())
	execDone, err = m.ProgramRow(d, 0, 5, data)
	if err != nil {
		return nil, err
	}
	erased := m.BusyUntil() - execDone

	r := newRow("32B overwrite")
	r.set("plain-us", overwrite.Micros())
	r.set("pre-erased-us", erased.Micros())
	red := 1 - float64(erased)/float64(overwrite)
	r.set("reduction", red)
	t.Rows = append(t.Rows, r)
	if red < 0.40 || red > 0.60 {
		return nil, fmt.Errorf("sec5 self-check: reduction %.0f%% outside the paper's 44-55%%", red*100)
	}
	t.Notes = append(t.Notes, "paper: selective erasing reduces overwrite latency by 44-55%")
	return t, nil
}

// optionsOnly adapts a generator that runs no full-system simulations
// (device-level measurements and static tables) to the engine registry.
func optionsOnly(gen func(Options) (*Table, error)) func(*Engine) (*Table, error) {
	return func(e *Engine) (*Table, error) { return gen(e.o) }
}

// Experiment pairs an experiment id with its generator over a shared
// engine.
type Experiment struct {
	ID  string
	Gen func(*Engine) (*Table, error)
}

// Registry returns every experiment in paper order. Generators that run
// full-system simulations share the engine's result cache and worker
// pool; the rest (device-level measurements, static tables) only read
// the engine's options.
func Registry() []Experiment {
	return []Experiment{
		{"fig01", (*Engine).Fig01},
		{"fig07", (*Engine).Fig07},
		{"fig12", optionsOnly(Fig12)},
		{"fig13", (*Engine).Fig13},
		{"fig15", (*Engine).Fig15},
		{"fig16", (*Engine).Fig16},
		{"fig17", (*Engine).Fig17},
		{"fig18", (*Engine).Fig18},
		{"fig19", (*Engine).Fig19},
		{"fig20", (*Engine).Fig20},
		{"fig21", (*Engine).Fig21},
		{"table1", optionsOnly(Table1)},
		{"table2", optionsOnly(Table2)},
		{"table3", (*Engine).Table3},
		{"sec5-interleave", optionsOnly(Sec5Interleave)},
		{"sec5-selerase", optionsOnly(Sec5SelErase)},
	}
}

// All returns every experiment generator keyed by id, in paper order.
// Each Gen call builds a private engine; share one engine (NewEngine +
// Table/Tables) to reuse simulations across experiments.
func All() []struct {
	ID  string
	Gen func(Options) (*Table, error)
} {
	reg := Registry()
	out := make([]struct {
		ID  string
		Gen func(Options) (*Table, error)
	}, 0, len(reg))
	for _, x := range reg {
		gen := x.Gen
		out = append(out, struct {
			ID  string
			Gen func(Options) (*Table, error)
		}{x.ID, func(o Options) (*Table, error) { return gen(NewEngine(o)) }})
	}
	return out
}
