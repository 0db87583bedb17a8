package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
)

// registry is the ordered named registry behind Counters, HistogramSet,
// SeriesSet and Blame: elements in registration order plus a
// name->position index. Registration order is deterministic because
// every producer registers in fixed code order, so the positional Equal,
// the Merge order and the JSON exports built on it are deterministic
// too. The zero value is ready to use, and a nil *registry reads as
// empty (each family hands out nil for its own nil receiver).
type registry[E element[E]] struct {
	idx  map[string]int
	list []E
}

// element is what a family's element type supplies to the shared code.
type element[E any] interface {
	// key is the element's registered name.
	key() string
	// diff describes how the element differs from o, as indented lines
	// naming it; empty exactly when the two are equal (the registry's
	// equal decides by it).
	diff(o E) string
}

// accumulating is an element that registries merge: a Counters or Blame
// entry.
type accumulating[E any] interface {
	element[E]
	// merge returns the element with o accumulated into it.
	merge(o E) E
}

// lookup returns the named element, the zero E when absent.
func (r *registry[E]) lookup(name string) (e E, ok bool) {
	if r != nil {
		var i int
		if i, ok = r.idx[name]; ok {
			e = r.list[i]
		}
	}
	return e, ok
}

// get returns the named element, registering mk(name) at the tail on
// first use (the zero E on a nil registry).
func (r *registry[E]) get(name string, mk func(string) E) E {
	if e, ok := r.lookup(name); ok || r == nil {
		return e
	}
	return r.list[r.add(mk(name))]
}

// put merges e into the element registered under e's name in r,
// registering adopt(e) at the tail first when the name is new. Nil-safe.
func put[E accumulating[E]](r *registry[E], e E, adopt func(E) E) {
	if r == nil {
		return
	}
	i, ok := r.idx[e.key()]
	if !ok {
		i = r.add(adopt(e))
	}
	r.list[i] = r.list[i].merge(e)
}

// reserve sizes an empty registry's index and list for n entries, so
// registering them does not grow either by doubling. A registry that
// holds entries is left as it is.
func (r *registry[E]) reserve(n int) {
	if r == nil || len(r.list) > 0 || n <= 0 {
		return
	}
	r.idx = make(map[string]int, n)
	r.list = make([]E, 0, n)
}

func (r *registry[E]) add(e E) int {
	if r.idx == nil {
		r.idx = make(map[string]int)
	}
	r.idx[e.key()] = len(r.list)
	r.list = append(r.list, e)
	return len(r.list) - 1
}

func (r *registry[E]) len() int { return len(r.all()) }

// all returns the elements in registration order. The slice is shared.
func (r *registry[E]) all() []E {
	if r == nil {
		return nil
	}
	return r.list
}

// names returns every registered name in registration order.
func (r *registry[E]) names() []string {
	if r == nil {
		return nil
	}
	out := make([]string, len(r.list))
	for i, e := range r.list {
		out[i] = e.key()
	}
	return out
}

// merge puts every element of o into r, in o's order; an empty r is
// sized for o's elements first. Nil-safe on both sides.
func merge[E accumulating[E]](r, o *registry[E], adopt func(E) E) {
	r.reserve(o.len())
	for _, e := range o.all() {
		put(r, e, adopt)
	}
}

// equal reports whether both registries hold equal elements under the
// same names in the same order.
func (r *registry[E]) equal(o *registry[E]) bool {
	if r.len() != o.len() {
		return false
	}
	for i, e := range r.all() {
		if e.key() != o.list[i].key() || e.diff(o.list[i]) != "" {
			return false
		}
	}
	return true
}

// diff describes the first few differences between two registries (for
// test failure messages); empty exactly when equal. Names are reported
// in sorted order, so the output does not depend on registration order;
// pure registration-order skew, which equal rejects even when every
// element matches, is reported at its first position.
func (r *registry[E]) diff(o *registry[E]) string {
	names := append(r.names(), o.names()...)
	slices.Sort(names)
	names = slices.Compact(names)
	var sb strings.Builder
	diffs := 0
	for _, n := range names {
		if diffs >= 8 {
			sb.WriteString("  ...\n")
			break
		}
		a, inR := r.lookup(n)
		b, inO := o.lookup(n)
		switch {
		case !inR:
			fmt.Fprintf(&sb, "  %s: missing left\n", n)
		case !inO:
			fmt.Fprintf(&sb, "  %s: missing right\n", n)
		default:
			d := a.diff(b)
			if d == "" {
				continue
			}
			sb.WriteString(d)
		}
		diffs++
	}
	if diffs == 0 { // same names, equal elements: only the order can differ
		for i, e := range r.all() {
			if on := o.list[i].key(); e.key() != on {
				fmt.Fprintf(&sb, "  position %d: %q != %q (registration order differs)\n", i, e.key(), on)
				break
			}
		}
	}
	return sb.String()
}

// exportJSON renders the elements as one JSON array of their export
// shapes, in registration order (an empty registry renders []).
func exportJSON[E, J any](list []E, shape func(E) J) ([]byte, error) {
	out := make([]J, 0, len(list))
	for _, e := range list {
		out = append(out, shape(e))
	}
	return json.Marshal(out)
}

// writeIndented writes m's export indented by two spaces plus a trailing
// newline: the bytes json.MarshalIndent produces for the same value.
func writeIndented(w io.Writer, m json.Marshaler) error {
	b, err := m.MarshalJSON()
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, b, "", "  "); err != nil {
		return err
	}
	buf.WriteByte('\n')
	_, err = buf.WriteTo(w)
	return err
}

// decodeStrict decodes the one JSON value r holds into v, rejecting
// fields v does not declare and anything after the value. The family
// readers use it so an export of another family, or a file with more
// than one export in it, is an error instead of a silently empty,
// zeroed or partial result.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("data after the export at offset %d", dec.InputOffset())
	}
	return nil
}
