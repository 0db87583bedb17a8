// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VI) from the simulation models: the motivation
// study (Figure 1), the firmware-vs-oracle comparison (Figure 7), the
// controller scheduling studies (Figures 12 and 13, Section V claims),
// the ten-system bandwidth/time/energy comparisons (Figures 15-17), the
// IPC and power time series (Figures 18-21), and Tables I-III. Each
// experiment returns printable rows; the benchmark harness and the CLI
// both drive these entry points.
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"dramless/internal/stats"
	"dramless/internal/system"
	"dramless/internal/workload"
)

// Options scales the experiments.
type Options struct {
	// Scale is the workload base footprint (bytes).
	Scale int64
	// Kernels restricts the workload set (nil = full suite).
	Kernels []string
	// Parallelism bounds the run engine's worker pool: distinct
	// system x kernel simulations execute on up to this many goroutines.
	// 0 selects GOMAXPROCS; 1 forces serial execution. Rendered tables
	// are byte-identical at any setting.
	Parallelism int
	// Lanes is read only by Validate: the lane executors it once sized
	// were removed, and every simulation interleaves its PEs on one
	// serial loop. The field stays only because the benchmark harness
	// (perfbench/) still sets it to -1; Validate rejects positive
	// values.
	//
	// Deprecated: the lane executors were removed. Leave it 0; the
	// field goes once perfbench/ stops setting it.
	Lanes int
	// Policy overrides the DRAM-less PRAM scheduling policy by registry
	// name ("palp", "pause-aware", ...; see memctrl.PolicyNames).
	// Empty keeps the config default (the legacy Final scheduler). The
	// policy name is part of every cell's cache key, so engines with
	// different policies never share results.
	Policy string
}

// Fast returns options sized for quick benchmark runs.
func Fast() Options { return Options{Scale: 128 << 10} }

// Full returns options sized closer to the paper's volumes.
func Full() Options { return Options{Scale: 2 << 20} }

// Validate reports option errors: an unknown kernel name (the error
// lists the valid ones) or a positive Lanes.
func (o Options) Validate() error {
	for _, n := range o.Kernels {
		if _, err := workload.ByName(n); err != nil {
			return fmt.Errorf("experiments: %w", err)
		}
	}
	if o.Lanes > 0 {
		return fmt.Errorf("experiments: Lanes = %d, but the lane executors were removed; leave it 0", o.Lanes)
	}
	return nil
}

// kernels resolves the workload set of validated options.
func (o Options) kernels() []workload.Kernel {
	if len(o.Kernels) == 0 {
		return workload.Suite()
	}
	out := make([]workload.Kernel, 0, len(o.Kernels))
	for _, n := range o.Kernels {
		out = append(out, workload.MustByName(n))
	}
	return out
}

func (o Options) config(kind system.Kind) system.Config {
	cfg := system.DefaultConfig(kind)
	cfg.Scale = o.Scale
	cfg.SSDCapacity = 64 << 20
	for cfg.SSDCapacity < uint64(6*o.Scale) {
		cfg.SSDCapacity *= 2
	}
	cfg.Policy = o.Policy
	return cfg
}

// Row is one printable result row.
type Row struct {
	Label  string
	Values map[string]float64
	Order  []string
}

func newRow(label string) *Row {
	return &Row{Label: label, Values: map[string]float64{}}
}

func (r *Row) set(key string, v float64) {
	if _, ok := r.Values[key]; !ok {
		r.Order = append(r.Order, key)
	}
	r.Values[key] = v
}

// Table is a named experiment result.
type Table struct {
	ID    string // "fig15", "table2", ...
	Title string
	Rows  []*Row
	Notes []string
}

// Print renders the table.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	if len(t.Rows) > 0 {
		cols := t.Rows[0].Order
		fmt.Fprintf(w, "%-22s", "")
		for _, c := range cols {
			fmt.Fprintf(w, " %14s", c)
		}
		fmt.Fprintln(w)
		for _, r := range t.Rows {
			fmt.Fprintf(w, "%-22s", r.Label)
			for _, c := range cols {
				fmt.Fprintf(w, " %14.4g", r.Values[c])
			}
			fmt.Fprintln(w)
		}
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

// JSON renders the table as a stable machine-readable document: id,
// title, ordered column names, per-row label/value maps and the notes.
func (t *Table) JSON() ([]byte, error) {
	type jsonRow struct {
		Label  string             `json:"label"`
		Values map[string]float64 `json:"values"`
	}
	doc := struct {
		ID      string    `json:"id"`
		Title   string    `json:"title"`
		Columns []string  `json:"columns"`
		Rows    []jsonRow `json:"rows"`
		Notes   []string  `json:"notes,omitempty"`
	}{ID: t.ID, Title: t.Title, Notes: t.Notes}
	if len(t.Rows) > 0 {
		doc.Columns = t.Rows[0].Order
	}
	for _, r := range t.Rows {
		doc.Rows = append(doc.Rows, jsonRow{Label: r.Label, Values: r.Values})
	}
	return json.MarshalIndent(doc, "", "  ")
}

// Summary returns a one-line digest (means over rows of each column).
func (t *Table) Summary() string {
	if len(t.Rows) == 0 {
		return t.ID + ": empty"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s:", t.ID)
	for _, c := range t.Rows[0].Order {
		var vs []float64
		for _, r := range t.Rows {
			vs = append(vs, r.Values[c])
		}
		fmt.Fprintf(&sb, " %s=%.3g", c, stats.Mean(vs))
	}
	return sb.String()
}

// sortedKeys helps deterministic notes.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
