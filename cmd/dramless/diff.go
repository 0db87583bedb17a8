package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"dramless"
)

// cmdDiff compares two exports of one family - two `run -hist`
// histogram exports or two `blame -o` accounts - element by element,
// and with -fail-over gates B against A.
func cmdDiff(args []string) {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	top := fs.Int("top", 10, "rows in the ranked table (0 = all); -fail-over checks every row")
	failOver := fs.Float64("fail-over", -1, "exit 1 when a row's B exceeds A by more than this fraction of A, or a row with data in A has none in B (negative = no gate)")
	fs.Parse(args)

	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: dramless diff [-top N] [-fail-over F] <A.json> <B.json>")
		os.Exit(2)
	}
	paths := [2]string{fs.Arg(0), fs.Arg(1)}
	var ex [2]export
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if ex[i], err = readExport(data); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", p, err)
			os.Exit(1)
		}
	}
	ok, err := diff(os.Stdout, paths, ex, *top, *failOver)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// export is one parsed export file, tagged with its family by which
// reader accepted it. Each reader rejects the other family's fields, so
// only a file without them (an empty array, or entries that carry only
// names) holds both; it takes the family of the file it is compared
// with.
type export struct {
	hist  *dramless.HistogramSet
	blame *dramless.Blame
}

func readExport(data []byte) (export, error) {
	hist, herr := dramless.ReadHistograms(bytes.NewReader(data))
	blame, berr := dramless.ReadBlame(bytes.NewReader(data))
	if herr != nil && berr != nil {
		return export{}, fmt.Errorf("neither a histogram nor a blame export:\n  %v\n  %v", herr, berr)
	}
	return export{hist: hist, blame: blame}, nil
}

// elem is one side of a row. v is the family's scalar, the value rows
// are ranked and gated on: p99 for a histogram, ps for a blame account;
// p50 is shown for histograms only. data is false for a histogram
// without samples or a 0 ps account, and the zero elem is the side that
// does not register the name.
type elem struct {
	p50, v    int64
	has, data bool
}

// row is one name paired across the two exports.
type row struct {
	name string
	a, b elem
}

func (r row) delta() int64 { return r.b.v - r.a.v }

// pairRows pairs elements by name, in A's registration order and then
// the names only B has, drops the names neither side has data for, and
// ranks the rest by |B-A| of the scalar. The sort is stable, so ties
// keep the pairing order.
func pairRows(aNames, bNames []string, a, b map[string]elem) []row {
	var rows []row
	add := func(n string) {
		if r := (row{n, a[n], b[n]}); r.a.data || r.b.data {
			rows = append(rows, r)
		}
	}
	for _, n := range aNames {
		add(n)
	}
	for _, n := range bNames {
		if !a[n].has {
			add(n)
		}
	}
	mag := func(r row) int64 {
		if d := r.delta(); d > 0 {
			return d
		}
		return -r.delta()
	}
	sort.SliceStable(rows, func(i, j int) bool { return mag(rows[i]) > mag(rows[j]) })
	return rows
}

// diff writes the comparison of two exports of one family to w: a
// header (a blame diff adds each side's wall and load/kernel/store
// totals), then the top rows ranked by |B-A|. With failOver >= 0 it
// gates every row and reports whether the gate passed; without a gate
// it reports true.
func diff(w io.Writer, paths [2]string, ex [2]export, top int, failOver float64) (bool, error) {
	var names [2][]string
	elems := [2]map[string]elem{{}, {}}
	noun := "instrument"
	hist := ex[0].hist != nil && ex[1].hist != nil
	switch {
	case hist:
		for i, x := range ex {
			for _, h := range x.hist.All() {
				names[i] = append(names[i], h.Name())
				elems[i][h.Name()] = elem{h.Percentile(50), h.Percentile(99), true, h.Count() > 0}
			}
		}
		fmt.Fprintf(w, "A = %s\nB = %s\n\n", paths[0], paths[1])
		fmt.Fprintf(w, "%-34s %12s %12s %12s %12s %12s %10s\n",
			"instrument (by |Δp99|)", "A.p50", "B.p50", "A.p99", "B.p99", "Δp99", "Δ%")
	case ex[0].blame != nil && ex[1].blame != nil:
		noun = "account"
		for i, x := range ex {
			for _, e := range x.blame.Entries() {
				names[i] = append(names[i], e.Name)
				elems[i][e.Name] = elem{v: e.PS, has: true, data: e.PS != 0}
			}
		}
		a, b := ex[0].blame, ex[1].blame
		fmt.Fprintf(w, "A = %s (wall %s)\nB = %s (wall %s)\n\n",
			paths[0], fmtPS(blameWall(a)), paths[1], fmtPS(blameWall(b)))
		fmt.Fprintf(w, "%-34s %12s %12s %12s\n", "phase", "A", "B", "Δ")
		for _, ph := range []string{"load", "kernel", "store"} {
			av, bv := a.Sum(ph+"/"), b.Sum(ph+"/")
			fmt.Fprintf(w, "%-34s %12s %12s %12s\n", ph, fmtPS(av), fmtPS(bv), fmtDelta(bv-av))
		}
		fmt.Fprintf(w, "\n%-34s %12s %12s %12s %10s\n", "account (by |Δ|)", "A", "B", "Δ", "Δ%")
	default:
		return false, fmt.Errorf("%s and %s are exports of different families (histogram vs blame)", paths[0], paths[1])
	}

	rows := pairRows(names[0], names[1], elems[0], elems[1])
	shown := len(rows)
	if top > 0 && top < shown {
		shown = top
	}
	for _, r := range rows[:shown] {
		fmt.Fprintf(w, "%-34s", r.name)
		if hist {
			fmt.Fprintf(w, " %12s %12s", cell(r.a, r.a.p50), cell(r.b, r.b.p50))
		}
		fmt.Fprintf(w, " %12s %12s %12s %10s\n", cell(r.a, r.a.v), cell(r.b, r.b.v), fmtDelta(r.delta()), pct(r))
	}
	if shown < len(rows) {
		fmt.Fprintf(w, "(%d more %ss; rerun with -top 0 for all)\n", len(rows)-shown, noun)
	}
	if failOver < 0 {
		return true, nil
	}
	return gate(w, rows, noun, failOver), nil
}

// gate applies the -fail-over rule to every row, shown or not: B may
// exceed A by at most failOver of A, and a row with data in A must have
// data in B (an instrument that stopped recording is a regression, not
// a pass). It also fails when no row has data on both sides, since then
// nothing was compared. The simulator is deterministic, so any drift is
// a real behavioural change; the threshold only absorbs intended tuning.
func gate(w io.Writer, rows []row, noun string, failOver float64) bool {
	compared, failed := 0, 0
	for _, r := range rows {
		switch {
		case !r.a.data:
		case !r.b.data:
			fmt.Fprintf(w, "REGRESSION %s: missing or empty in B (A %s)\n", r.name, fmtPS(r.a.v))
			failed++
		default:
			compared++
			if r.a.v > 0 && float64(r.b.v)/float64(r.a.v)-1 > failOver {
				fmt.Fprintf(w, "REGRESSION %s: %s -> %s (%s over A)\n", r.name, fmtPS(r.a.v), fmtPS(r.b.v), pct(r))
				failed++
			}
		}
	}
	switch limit := 100 * failOver; {
	case compared == 0:
		fmt.Fprintf(w, "diff: no %ss with data in both A and B\n", noun)
	case failed > 0:
		fmt.Fprintf(w, "diff: %d %s(s) regressed or vanished (fail-over %.3g%%)\n", failed, noun, limit)
	default:
		fmt.Fprintf(w, "diff: %d %s(s) within %.3g%% of A\n", compared, noun, limit)
		return true
	}
	return false
}

// cell renders one side's value, or "-" for the side without the name.
func cell(e elem, v int64) string {
	if !e.has {
		return "-"
	}
	return fmtPS(v)
}

// pct renders a row's change relative to A, or which side it is only in.
func pct(r row) string {
	switch {
	case !r.a.has:
		return "only in B"
	case !r.b.has:
		return "only in A"
	case r.a.v == 0:
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*float64(r.delta())/float64(r.a.v))
}

// fmtDelta renders a picosecond difference with an explicit sign.
func fmtDelta(ps int64) string {
	if ps < 0 {
		return "-" + fmtPS(-ps)
	}
	return "+" + fmtPS(ps)
}
