package freelist

import (
	"slices"
	"sync"
	"testing"
)

// TestListIsKeyedLIFO pins the reuse order the simulator's allocation
// profile depends on: per key, the item put last comes back first.
func TestListIsKeyedLIFO(t *testing.T) {
	var l List[int, string]
	if _, ok := l.Get(1); ok {
		t.Fatal("empty list must report no item")
	}
	l.Put(1, "a", "b")
	l.Put(2, "x")
	l.Put(1, "c")
	var got []string
	for v, ok := l.Get(1); ok; v, ok = l.Get(1) {
		got = append(got, v)
	}
	if want := []string{"c", "b", "a"}; !slices.Equal(got, want) {
		t.Errorf("key 1 pops %v, want %v", got, want)
	}
	if v, ok := l.Get(2); !ok || v != "x" {
		t.Errorf("key 2 pops %q, %v; want x", v, ok)
	}
}

func TestPutMapEmptiesTheMap(t *testing.T) {
	var l List[struct{}, int]
	m := map[string]int{"a": 1, "b": 2, "c": 3}
	PutMap(&l, struct{}{}, m)
	if len(m) != 0 {
		t.Fatalf("PutMap left %d entries in the map", len(m))
	}
	var got []int
	for v, ok := l.Get(struct{}{}); ok; v, ok = l.Get(struct{}{}) {
		got = append(got, v)
	}
	slices.Sort(got)
	if !slices.Equal(got, []int{1, 2, 3}) {
		t.Errorf("popped %v, want every map value once", got)
	}
}

// TestListConcurrent shares one list between goroutines, as the
// experiment engine's workers share the device pools: every item put is
// got back exactly once.
func TestListConcurrent(t *testing.T) {
	var l List[int, int]
	const workers, items = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < items; i++ {
				l.Put(i%3, w*items+i)
				if i%2 == 1 {
					v, _ := l.Get(i % 3)
					l.Put(i%3, v)
				}
			}
			PutMap(&l, w%3, map[int]int{-1 - w: -1 - w})
		}()
	}
	wg.Wait()
	seen := map[int]bool{}
	for k := 0; k < 3; k++ {
		for v, ok := l.Get(k); ok; v, ok = l.Get(k) {
			if seen[v] {
				t.Fatalf("item %d got twice", v)
			}
			seen[v] = true
		}
	}
	if len(seen) != workers*items+workers {
		t.Errorf("got %d items back, put %d", len(seen), workers*items+workers)
	}
}
