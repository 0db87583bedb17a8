package experiments

import (
	"fmt"
	"math"
	"sort"

	"dramless/internal/memctrl"
	"dramless/internal/obs"
	"dramless/internal/system"
	"dramless/internal/workload"
)

// BaselinePolicy is the arena's ranking reference: the paper's Final
// scheduler (interleaving + selective erasing, the DRAM-less default).
const BaselinePolicy = "final"

// arenaCell is one tournament simulation: a policy on an organization
// running one kernel, with a private Observer so the cell's latency
// histograms can be read back independently of every other cell.
type arenaCell struct {
	policy string
	kind   system.Kind
	kern   workload.Kernel
	cfg    system.Config
	ob     *obs.Observer
	res    *system.Result
}

// readHist merges the cell's four demand-read latency instruments
// (full / RAB-hit / RDB-hit / paused) into dst: the policy's complete
// read latency distribution.
func (c *arenaCell) readHist(dst *obs.Histogram) {
	hs := c.ob.Histograms()
	dst.Merge(hs.Lookup(obs.HistMemReadFull))
	dst.Merge(hs.Lookup(obs.HistMemReadRABHit))
	dst.Merge(hs.Lookup(obs.HistMemReadRDBHit))
	dst.Merge(hs.Lookup(obs.HistMemReadPaused))
}

// Arena runs the scheduler tournament: every requested policy x every
// kernel on the requested organizations, rendered as one ranked table.
//
// Per-kernel columns are data-processing throughput normalized to the
// BaselinePolicy ("final") cell of the same organization and kernel
// (>1 is faster than the paper's scheduler). Rows are ranked by the
// geometric mean of those ratios; the mean / p99 / Δp99 columns come
// from the merged demand-read latency histograms of the row's cells.
//
// policies nil selects every registered policy (memctrl.PolicyNames
// order); kinds nil selects the PRAM-backed DRAM-less organization.
// The baseline policy always runs (it is the normalization reference)
// and is appended to the row set if absent from the request. Policy
// capabilities only reach the controller on PRAM-backed kinds, so
// non-PRAM organizations show no spread across rows.
//
// Every cell runs through the engine's shared result cache under its
// worker pool; assembly order is fixed, so the table is byte-identical
// at any parallelism.
func (e *Engine) Arena(policies []string, kinds []system.Kind) (*Table, error) {
	if e.err != nil {
		return nil, e.err
	}
	if len(policies) == 0 {
		policies = memctrl.PolicyNames()
	}
	canon := make([]string, 0, len(policies)+1)
	hasBase := false
	for _, name := range policies {
		p, err := memctrl.PolicyByName(name)
		if err != nil {
			return nil, err
		}
		canon = append(canon, p.Name())
		if p.Name() == BaselinePolicy {
			hasBase = true
		}
	}
	if !hasBase {
		canon = append(canon, BaselinePolicy)
	}
	if len(kinds) == 0 {
		kinds = []system.Kind{system.DRAMLess}
	}
	kernels := e.o.kernels()

	// Build every cell up front and enqueue it on the worker pool; the
	// serial assembly below then finds its cells finished or in flight.
	// Each cell gets a private Observer: distinct Obs pointers make
	// distinct cache keys, so arena cells are unique to this sweep.
	cells := make([]*arenaCell, 0, len(kinds)*len(canon)*len(kernels))
	for _, kind := range kinds {
		for _, pol := range canon {
			for _, k := range kernels {
				cfg := e.o.config(kind)
				cfg.Policy = pol
				ob := obs.New()
				cfg.Obs = ob
				cells = append(cells, &arenaCell{policy: pol, kind: kind, kern: k, cfg: cfg, ob: ob})
				e.prefetchCfg(cfg, k)
			}
		}
	}
	byCell := make(map[[3]string]*arenaCell, len(cells))
	for _, c := range cells {
		res, err := e.getCfg(c.cfg, c.kern)
		if err != nil {
			return nil, err
		}
		c.res = res
		byCell[[3]string{c.kind.String(), c.policy, c.kern.Name}] = c
	}

	// Scratch observer: its HistogramSet mints the merged per-row
	// distributions without exposing the unexported histogram
	// constructor. Memoized — Get returns the same named histogram, so
	// a second merge pass would double-count.
	scratch := obs.New().Histograms()
	merged := map[[2]string]*obs.Histogram{}
	mergedOf := func(kind system.Kind, pol string) *obs.Histogram {
		key := [2]string{kind.String(), pol}
		if h, ok := merged[key]; ok {
			return h
		}
		h := scratch.Get(fmt.Sprintf("arena.%s.%s", kind, pol))
		for _, k := range kernels {
			byCell[[3]string{kind.String(), pol, k.Name}].readHist(h)
		}
		merged[key] = h
		return h
	}

	type rowData struct {
		label   string
		geomean float64
		row     *Row
	}
	var rows []*rowData
	type bestCell struct {
		policy, kernel string
		kind           system.Kind
		gain           float64 // throughput ratio vs final
	}
	var best *bestCell
	paper := map[string]bool{"bare-metal": true, "interleaving": true, "selective-erasing": true, BaselinePolicy: true}

	for _, kind := range kinds {
		baseP99 := mergedOf(kind, BaselinePolicy).Percentile(99)
		for _, pol := range canon {
			label := pol
			if len(kinds) > 1 {
				label = fmt.Sprintf("%s @ %s", pol, kind)
			}
			r := newRow(label)
			logSum, n := 0.0, 0
			for _, k := range kernels {
				cell := byCell[[3]string{kind.String(), pol, k.Name}]
				base := byCell[[3]string{kind.String(), BaselinePolicy, k.Name}]
				norm := cell.res.BandwidthMBps() / base.res.BandwidthMBps()
				r.set(k.Name, norm)
				logSum += math.Log(norm)
				n++
				if !paper[pol] && (best == nil || norm > best.gain) {
					best = &bestCell{policy: pol, kernel: k.Name, kind: kind, gain: norm}
				}
			}
			gm := math.Exp(logSum / float64(n))
			dist := mergedOf(kind, pol)
			r.set("geomean-x", gm)
			r.set("mean-rd-ns", dist.Mean()/1e3)
			r.set("p99-rd-ns", float64(dist.Percentile(99))/1e3)
			r.set("d-p99-ns", float64(dist.Percentile(99)-baseP99)/1e3)
			rows = append(rows, &rowData{label: label, geomean: gm, row: r})
		}
	}

	// Rank: best geometric-mean speedup first, name breaking ties — a
	// deterministic order at any parallelism.
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].geomean != rows[j].geomean {
			return rows[i].geomean > rows[j].geomean
		}
		return rows[i].label < rows[j].label
	})

	tab := &Table{
		ID:    "arena",
		Title: "scheduler tournament: policy x kernel, ranked vs the final scheduler",
	}
	for _, rd := range rows {
		tab.Rows = append(tab.Rows, rd.row)
	}
	tab.Notes = append(tab.Notes, fmt.Sprintf(
		"throughput per kernel normalized to the %q policy on the same organization; ranked by geomean", BaselinePolicy))
	tab.Notes = append(tab.Notes,
		"mean/p99 from the merged demand-read latency histograms; d-p99 vs the same-organization baseline")
	if best != nil {
		verdict := "no new policy beat the baseline on throughput"
		if best.gain > 1 {
			verdict = fmt.Sprintf("best new-policy cell: %s on %s @ %s, %+.2f%% throughput vs %q",
				best.policy, best.kernel, best.kind, (best.gain-1)*100, BaselinePolicy)
		}
		tab.Notes = append(tab.Notes, verdict)
	}
	return tab, nil
}
