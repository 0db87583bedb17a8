package sim

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestResourceSerializes(t *testing.T) {
	r := NewResource("bus")
	s1 := r.Acquire(0, 10)
	s2 := r.Acquire(0, 10) // contends: must wait for first
	s3 := r.Acquire(50, 5) // idle gap: starts at requested time
	if s1 != 0 || s2 != 10 || s3 != 50 {
		t.Fatalf("starts = %v %v %v, want 0 10 50", s1, s2, s3)
	}
	if r.BusyTime() != 25 {
		t.Fatalf("busy = %v, want 25", r.BusyTime())
	}
	if r.FreeAt() != 55 {
		t.Fatalf("free at = %v, want 55", r.FreeAt())
	}
}

func TestPoolParallelism(t *testing.T) {
	p := NewPool("cores", 3)
	// Three requests at time 0 run in parallel; the fourth waits.
	var starts []Time
	for i := 0; i < 4; i++ {
		starts = append(starts, p.Acquire(0, 100))
	}
	if starts[0] != 0 || starts[1] != 0 || starts[2] != 0 {
		t.Fatalf("first three starts = %v, want all 0", starts[:3])
	}
	if starts[3] != 100 {
		t.Fatalf("fourth start = %v, want 100", starts[3])
	}
}

func TestPoolPicksSoonestFreeUnit(t *testing.T) {
	p := NewPool("planes", 2)
	p.Acquire(0, 100) // unit A busy until 100
	p.Acquire(0, 10)  // unit B busy until 10
	if s := p.Acquire(0, 5); s != 10 {
		t.Fatalf("third request started at %v, want 10 (soonest-free unit)", s)
	}
}

func TestPipeBandwidthAndLatency(t *testing.T) {
	// 1 GB/s, 1 us fixed latency: 1000 bytes -> 1 us wire + 1 us latency.
	p := NewPipe("pcie", 1e9, Microseconds(1))
	done := p.Transfer(0, 1000)
	if want := Microseconds(2); done != want {
		t.Fatalf("done = %v, want %v", done, want)
	}
	// Second transfer queues behind the wire time but not the latency.
	done2 := p.Transfer(0, 1000)
	if want := Microseconds(3); done2 != want {
		t.Fatalf("done2 = %v, want %v", done2, want)
	}
	if p.BytesMoved() != 2000 {
		t.Fatalf("moved = %d, want 2000", p.BytesMoved())
	}
}

// Property: a resource never starts a reservation before the requested
// time nor before the previous reservation ends, regardless of request
// pattern.
func TestResourceCausalityProperty(t *testing.T) {
	f := func(reqs []struct {
		Earliest uint16
		Dur      uint8
	}) bool {
		r := NewResource("x")
		var prevEnd Time
		for _, q := range reqs {
			e, d := Time(q.Earliest), Duration(q.Dur)
			s := r.Acquire(e, d)
			if s < e || s < prevEnd {
				return false
			}
			prevEnd = s + d
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: pool busy time equals the sum of requested durations and no
// more than Units reservations ever overlap.
func TestPoolConservationProperty(t *testing.T) {
	f := func(durs []uint8, kRaw uint8) bool {
		k := int(kRaw%4) + 1
		p := NewPool("x", k)
		var sum Duration
		type span struct{ s, e Time }
		var spans []span
		for _, d := range durs {
			dur := Duration(d)
			s := p.Acquire(0, dur)
			spans = append(spans, span{s, s + dur})
			sum += dur
		}
		if p.BusyTime() != sum {
			return false
		}
		// Check overlap bound at every span start.
		for _, a := range spans {
			overlap := 0
			for _, b := range spans {
				if b.s <= a.s && a.s < b.e {
					overlap++
				}
			}
			// a zero-length span at a.s may not count itself
			if overlap > k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeDurationPanics(t *testing.T) {
	for _, acquire := range []func(){
		func() { NewResource("bus").Acquire(0, -1) },
		func() { NewPool("cores", 2).Acquire(0, -1) },
	} {
		func() {
			defer func() {
				err, ok := recover().(error)
				if !ok || !strings.HasPrefix(err.Error(), "sim: negative duration") {
					t.Errorf("recovered %v, want a negative-duration error", err)
				}
			}()
			acquire()
		}()
	}
}
