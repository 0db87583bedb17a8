package main

import (
	"bufio"
	"encoding/json"
	"io"
	"runtime/metrics"
	"time"
)

// span is one host-time interval the benchmark recorded around its own
// call into a layer's public function.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span in its pass, -1 at top level
	Pass   int    `json:"pass"`
	Op     int    `json:"op"` // op id within the run
	Alloc  int64  `json:"alloc_bytes,omitempty"`

	allocs bool // Alloc is being measured
}

// tracer records spans in memory. A nil tracer records nothing, so the
// untraced path costs one nil check per call site.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int
	pass  int
	op    int
	// allocs reads the heap's cumulative allocated bytes without
	// stopping the world; only spans opened with beginAlloc pay for it.
	allocs []metrics.Sample
}

func newTracer(pass int) *tracer {
	return &tracer{
		epoch:  time.Now(),
		pass:   pass,
		allocs: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

// setOp tags the spans that follow with op id.
func (t *tracer) setOp(op int) {
	if t != nil {
		t.op = op
	}
}

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), Parent: parent, Pass: t.pass, Op: t.op})
	i := len(t.spans) - 1
	t.stack = append(t.stack, i)
	return i
}

// beginAlloc is begin for a span that also records the bytes allocated
// while it is open.
func (t *tracer) beginAlloc(name string) int {
	i := t.begin(name)
	if i >= 0 {
		t.spans[i].allocs = true
		t.spans[i].Alloc = -t.heapAllocs()
	}
	return i
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	s := &t.spans[i]
	s.End = int64(time.Since(t.epoch))
	if s.allocs {
		s.Alloc += t.heapAllocs()
	}
	t.stack = t.stack[:len(t.stack)-1]
}

func (t *tracer) heapAllocs() int64 {
	metrics.Read(t.allocs)
	return int64(t.allocs[0].Value.Uint64())
}

// writeSpans writes spans as one JSON object per line.
func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// spanTotals sums span durations (and allocated bytes) per name.
type spanTotals struct {
	n     map[string]int64
	dur   map[string]time.Duration
	self  map[string]time.Duration
	alloc map[string]int64
}

// summarize totals spans per name. A span's self time is its duration
// minus its direct children's durations; the tracer closes spans
// innermost first on one goroutine, so children are disjoint and lie
// inside their parent.
func summarize(spans []span) spanTotals {
	st := spanTotals{
		n:     map[string]int64{},
		dur:   map[string]time.Duration{},
		self:  map[string]time.Duration{},
		alloc: map[string]int64{},
	}
	for _, s := range spans {
		d := time.Duration(s.End - s.Start)
		st.n[s.Name]++
		st.dur[s.Name] += d
		st.self[s.Name] += d
		st.alloc[s.Name] += s.Alloc
		if s.Parent >= 0 {
			st.self[spans[s.Parent].Name] -= d
		}
	}
	return st
}
