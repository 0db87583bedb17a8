// Package freelist recycles simulator storage across simulation runs:
// cache line arrays, sparse memory pages, PRAM row segments, SSD buffer
// entries, flash page frames and memory-controller scratch. The
// experiment engine rebuilds every device for each system x kernel cell
// (or forks it from a checkpoint), so without recycling each cell would
// re-allocate the storage the previous cell just dropped.
//
// A List is a mutex-guarded LIFO stack per key rather than a sync.Pool:
// which item a construction reuses then does not depend on the P its
// goroutine runs on or on collection timing, so a run's allocation
// profile is reproducible, and a list never grows beyond the most items
// alive at once. Items come back holding their previous contents; every
// caller clears or overwrites what it gets.
package freelist

import "sync"

// List holds released items in one LIFO stack per key: a shape, page
// size or geometry under which items are interchangeable (struct{} when
// all are). The zero value is ready to use and safe for concurrent use.
type List[K comparable, V any] struct {
	mu   sync.Mutex
	free map[K][]V
}

// Get pops the item put last under k; ok is false when there is none.
func (l *List[K, V]) Get(k K) (v V, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.free[k]
	if n := len(s); n > 0 {
		v, ok = s[n-1], true
		var zero V
		s[n-1] = zero // the stack must not keep a reference to a live item
		l.free[k] = s[:n-1]
	}
	return v, ok
}

// Put pushes vs under k in order, so the last one is the next Get.
func (l *List[K, V]) Put(k K, vs ...V) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ready()
	l.free[k] = append(l.free[k], vs...)
}

// PutMap pushes every value of m under k, in m's iteration order, and
// empties m.
func PutMap[K, MK comparable, V any](l *List[K, V], k K, m map[MK]V) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ready()
	s := l.free[k]
	for mk, v := range m {
		s = append(s, v)
		delete(m, mk)
	}
	l.free[k] = s
}

func (l *List[K, V]) ready() {
	if l.free == nil {
		l.free = make(map[K][]V)
	}
}
