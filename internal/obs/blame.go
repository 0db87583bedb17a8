package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
)

// Blame is a hierarchical exact-integer simulated-time account: an
// ordered registry of named picosecond totals whose names are
// slash-separated levels (phase/component/cause, e.g.
// "kernel/memctrl.ch0/pause_behind_program"). It follows the same
// contract as Counters: registration order is deterministic because
// every producer adds accounts in fixed code order, Add on a nil
// receiver is a no-op (the disabled handle model code holds when
// observation is off), and the JSON export is byte-deterministic.
//
// The system layer maintains the exactness invariant: for every phase
// P, the sum of all "P/..." accounts equals the phase wall to the
// picosecond (see internal/system/blame.go and DESIGN.md §15).
type Blame struct{ r registry[BlameEntry] }

func (b *Blame) reg() *registry[BlameEntry] {
	if b == nil {
		return nil
	}
	return &b.r
}

// BlameEntry is one account: a full slash-separated name and its
// picosecond total.
type BlameEntry struct {
	Name string `json:"name"`
	PS   int64  `json:"ps"`
}

func (e BlameEntry) key() string { return e.Name }

// fresh is the empty account a new name registers with.
func (e BlameEntry) fresh() BlameEntry { return BlameEntry{Name: e.Name} }

func (e BlameEntry) merge(o BlameEntry) BlameEntry {
	e.PS += o.PS
	return e
}

func (e BlameEntry) diff(o BlameEntry) string {
	if e.PS == o.PS {
		return ""
	}
	return fmt.Sprintf("  %s: %d != %d\n", e.Name, e.PS, o.PS)
}

// NewBlame returns an empty account set.
func NewBlame() *Blame { return &Blame{} }

// Add accumulates ps into the named account, registering it on first
// use. Nil-safe.
func (b *Blame) Add(name string, ps int64) {
	put(b.reg(), BlameEntry{Name: name, PS: ps}, BlameEntry.fresh)
}

// Get returns the named account's total (0 when absent). Nil-safe.
func (b *Blame) Get(name string) int64 {
	e, _ := b.reg().lookup(name)
	return e.PS
}

// Len returns how many accounts are registered.
func (b *Blame) Len() int { return b.reg().len() }

// Entries returns the accounts in registration order. The slice is
// shared; callers must not mutate it.
func (b *Blame) Entries() []BlameEntry { return b.reg().all() }

// Sum totals every account whose name starts with prefix (use
// "load/" for one phase's accounts). Nil-safe.
func (b *Blame) Sum(prefix string) int64 {
	if b == nil {
		return 0
	}
	var sum int64
	for _, e := range b.Entries() {
		if strings.HasPrefix(e.Name, prefix) {
			sum += e.PS
		}
	}
	return sum
}

// Merge accumulates other's accounts into b, registering new names at
// the tail in other's order. Nil-safe on both sides.
func (b *Blame) Merge(other *Blame) {
	merge(b.reg(), other.reg(), BlameEntry.fresh)
}

// Equal reports whether both sets hold the same accounts in the same
// order with identical totals.
func (b *Blame) Equal(other *Blame) bool { return b.reg().equal(other.reg()) }

// Diff returns a human-readable description of the first few account
// differences (for test failure messages); empty when Equal.
func (b *Blame) Diff(other *Blame) string { return b.reg().diff(other.reg()) }

// MarshalJSON renders the accounts as an ordered array. The export is
// byte-deterministic: order is registration order and every field is
// integer. BlameEntry is its own JSON shape, so the entries marshal as
// they are.
func (b *Blame) MarshalJSON() ([]byte, error) {
	if b.Len() == 0 {
		return []byte("[]"), nil
	}
	return json.Marshal(b.Entries())
}

// WriteJSON writes the accounts as indented JSON (ReadBlameJSON parses
// it back).
func (b *Blame) WriteJSON(w io.Writer) error { return writeIndented(w, b) }

// ReadBlameJSON parses a WriteJSON/MarshalJSON export back into a
// Blame (the blame and diff commands work from exported files, not
// live runs). Accounts hold simulated time, so a negative one - listed,
// or reached by summing a repeated name past the int64 range - is
// rejected. So is a field no account has: a histogram export is an
// error here, not a set of zero accounts.
func ReadBlameJSON(r io.Reader) (*Blame, error) {
	var in []BlameEntry
	if err := decodeStrict(r, &in); err != nil {
		return nil, fmt.Errorf("obs: parsing blame export: %w", err)
	}
	b := NewBlame()
	for _, e := range in {
		if e.PS < 0 {
			return nil, fmt.Errorf("obs: blame account %q is negative (%d ps)", e.Name, e.PS)
		}
		b.Add(e.Name, e.PS)
		if b.Get(e.Name) < 0 {
			return nil, fmt.Errorf("obs: blame account %q overflows int64", e.Name)
		}
	}
	return b, nil
}

// TopShares returns the n largest accounts under prefix by total,
// largest first (ties by registration order), each with its share of
// the prefix sum in parts per thousand.
func (b *Blame) TopShares(prefix string, n int) []BlameShare {
	if b == nil {
		return nil
	}
	total := b.Sum(prefix)
	var out []BlameShare
	for _, e := range b.Entries() {
		if strings.HasPrefix(e.Name, prefix) && e.PS != 0 {
			s := BlameShare{Name: e.Name, PS: e.PS}
			if total > 0 {
				s.Permille = e.PS * 1000 / total
			}
			out = append(out, s)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].PS > out[j].PS })
	if n > 0 && n < len(out) {
		out = out[:n]
	}
	return out
}

// BlameShare is one ranked account: its total and share of the ranked
// scope in parts per thousand.
type BlameShare struct {
	Name     string
	PS       int64
	Permille int64
}

// Exact-integer apportionment ----------------------------------------

// MulDiv returns floor(a*b/div) and the remainder a*b mod div using
// 128-bit intermediate arithmetic. All inputs must be non-negative and
// the quotient must fit int64 (guaranteed when a <= div and b < 2^63,
// the blame scaler's usage: the scaled share never exceeds the wall).
func MulDiv(a, b, div int64) (q, r int64) {
	if div <= 0 || a == 0 || b == 0 {
		return 0, 0
	}
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	qq, rr := bits.Div64(hi, lo, uint64(div))
	return int64(qq), int64(rr)
}

// Apportion splits total exactly over the given non-negative weights:
// each share is floor(w_i*total/sum(w)) plus at most one unit from the
// largest-remainder distribution, ties broken by lower index. The
// returned shares always sum to total exactly; a nil result means the
// weights sum to zero (nothing to attribute).
func Apportion(total int64, weights []int64) []int64 {
	var wsum int64
	for _, w := range weights {
		wsum += w
	}
	if wsum <= 0 || total <= 0 {
		return nil
	}
	shares := make([]int64, len(weights))
	rems := make([]int64, len(weights))
	var given int64
	for i, w := range weights {
		shares[i], rems[i] = MulDiv(w, total, wsum)
		given += shares[i]
	}
	// Distribute the floor slack to the largest remainders; slack is
	// < len(weights), so one pass over a sorted index list suffices.
	slack := total - given
	if slack > 0 {
		order := make([]int, len(weights))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, c int) bool { return rems[order[a]] > rems[order[c]] })
		for k := int64(0); k < slack; k++ {
			shares[order[k%int64(len(order))]]++
		}
	}
	return shares
}

// WriteTree renders the accounts as an indented two-space tree grouped
// by slash level, each line with the account's duration in picoseconds
// and its share of the root level. fmtPS formats a picosecond total
// for display (nil prints raw integers).
func (b *Blame) WriteTree(w io.Writer, fmtPS func(int64) string) error {
	if fmtPS == nil {
		fmtPS = func(ps int64) string { return fmt.Sprintf("%dps", ps) }
	}
	type node struct {
		name     string
		ps       int64
		children []*node
		index    map[string]*node
	}
	root := &node{index: map[string]*node{}}
	for _, e := range b.Entries() {
		parts := strings.Split(e.Name, "/")
		cur := root
		for _, p := range parts {
			child, ok := cur.index[p]
			if !ok {
				child = &node{name: p, index: map[string]*node{}}
				cur.index[p] = child
				cur.children = append(cur.children, child)
			}
			cur = child
		}
		cur.ps += e.PS
	}
	var sum func(n *node) int64
	sum = func(n *node) int64 {
		if len(n.children) == 0 {
			return n.ps
		}
		var s int64
		for _, c := range n.children {
			s += sum(c)
		}
		n.ps = s
		return s
	}
	sum(root)
	var write func(n *node, depth int, total int64) error
	write = func(n *node, depth int, total int64) error {
		if depth >= 0 {
			pct := ""
			if total > 0 {
				pct = fmt.Sprintf(" %5.1f%%", 100*float64(n.ps)/float64(total))
			}
			if _, err := fmt.Fprintf(w, "%s%-*s %12s%s\n",
				strings.Repeat("  ", depth), 28-2*depth, n.name, fmtPS(n.ps), pct); err != nil {
				return err
			}
		}
		for _, c := range n.children {
			if err := write(c, depth+1, total); err != nil {
				return err
			}
		}
		return nil
	}
	for _, top := range root.children {
		if err := write(top, 0, top.ps); err != nil {
			return err
		}
	}
	return nil
}
