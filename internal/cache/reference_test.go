package cache

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"dramless/internal/mem"
	"dramless/internal/sim"
)

// The differential test below drives the same fixed-seed access stream
// through a real L1 -> L2 -> mem.Flat stack and through refLevel, a
// deliberately plain map-based LRU model, and demands identical hit,
// miss, eviction and writeback counts plus the identical ordered
// sequence of writes each level sends below. It pins the cache's
// replacement tie-breaks (first invalid way, then the lowest way among
// equal stamps) and its set-major, way-minor flush order, whatever the
// cache's internal layout.

// lowerWrite is one Write call a level issued to the level below.
type lowerWrite struct {
	addr uint64
	data string
}

func (w lowerWrite) String() string { return fmt.Sprintf("write(%#x, %d B)", w.addr, len(w.data)) }

// recorder wraps a real device and logs every Write it receives.
type recorder struct {
	mem.Device
	log []lowerWrite
}

func (r *recorder) Write(at sim.Time, addr uint64, data []byte) (sim.Time, error) {
	r.log = append(r.log, lowerWrite{addr, string(data)})
	return r.Device.Write(at, addr, data)
}

// refDevice is the untimed interface the reference model stacks on.
type refDevice interface {
	read(addr uint64, dst []byte)
	write(addr uint64, src []byte)
}

// refMem is flat backing memory.
type refMem struct{ b []byte }

func (m *refMem) read(addr uint64, dst []byte)  { copy(dst, m.b[addr:]) }
func (m *refMem) write(addr uint64, src []byte) { copy(m.b[addr:], src) }

// refRecorder logs the writes passing through it.
type refRecorder struct {
	refDevice
	log []lowerWrite
}

func (r *refRecorder) write(addr uint64, src []byte) {
	r.log = append(r.log, lowerWrite{addr, string(src)})
	r.refDevice.write(addr, src)
}

type refWay struct {
	tag   uint64
	dirty bool
	use   int64
	data  []byte
}

// refLevel is a set-associative write-back, write-allocate LRU cache
// kept as a map from set index to that set's way slots (nil = invalid).
type refLevel struct {
	lineBytes, ways, sets int
	lower                 refDevice
	m                     map[int][]*refWay
	tick                  int64
	stats                 Stats
}

func newRef(cfg Config, lower refDevice) *refLevel {
	return &refLevel{
		lineBytes: cfg.LineBytes,
		ways:      cfg.Ways,
		sets:      cfg.SizeBytes / (cfg.LineBytes * cfg.Ways),
		lower:     lower,
		m:         map[int][]*refWay{},
	}
}

func (r *refLevel) base(set int, tag uint64) uint64 {
	return (tag*uint64(r.sets) + uint64(set)) * uint64(r.lineBytes)
}

// line returns the way holding addr's line, filling it on a miss.
func (r *refLevel) line(addr uint64) *refWay {
	lineAddr := addr / uint64(r.lineBytes)
	set, tag := int(lineAddr%uint64(r.sets)), lineAddr/uint64(r.sets)
	slots := r.m[set]
	if slots == nil {
		slots = make([]*refWay, r.ways)
		r.m[set] = slots
	}
	for _, w := range slots {
		if w != nil && w.tag == tag {
			r.stats.Hits++
			return w
		}
	}
	r.stats.Misses++
	v := -1
	for i, w := range slots {
		if w == nil {
			v = i
			break
		}
	}
	if v < 0 {
		v = 0
		for i, w := range slots {
			if w.use < slots[v].use {
				v = i
			}
		}
		old := slots[v]
		r.stats.Evictions++
		if old.dirty {
			r.stats.Writebacks++
			r.lower.write(r.base(set, old.tag), old.data)
		}
	}
	w := &refWay{tag: tag, data: make([]byte, r.lineBytes)}
	r.lower.read(r.base(set, tag), w.data)
	slots[v] = w
	return w
}

// access reads into or writes from buf at addr, line by line.
func (r *refLevel) access(addr uint64, buf []byte, write bool) {
	for off := 0; off < len(buf); {
		a := addr + uint64(off)
		lo := int(a % uint64(r.lineBytes))
		take := min(r.lineBytes-lo, len(buf)-off)
		w := r.line(a)
		r.tick++
		w.use = r.tick
		if write {
			copy(w.data[lo:], buf[off:off+take])
			w.dirty = true
		} else {
			copy(buf[off:off+take], w.data[lo:])
		}
		off += take
	}
}

func (r *refLevel) read(addr uint64, dst []byte)  { r.access(addr, dst, false) }
func (r *refLevel) write(addr uint64, src []byte) { r.access(addr, src, true) }

func (r *refLevel) flush() {
	for set := 0; set < r.sets; set++ {
		for _, w := range r.m[set] {
			if w != nil && w.dirty {
				r.stats.Writebacks++
				r.lower.write(r.base(set, w.tag), w.data)
			}
		}
	}
	clear(r.m)
}

// counts keeps the Stats fields the reference model tracks.
func counts(s Stats) [4]int64 { return [4]int64{s.Hits, s.Misses, s.Evictions, s.Writebacks} }

func sameWrites(t *testing.T, what string, got, want []lowerWrite) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d lower writes, reference %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: lower write %d is %v, reference %v", what, i, got[i], want[i])
		}
	}
}

func TestCacheMatchesReferenceLRU(t *testing.T) {
	l1cfg := Config{Name: "L1", SizeBytes: 1 << 10, LineBytes: 64, Ways: 2, HitLatency: sim.Nanoseconds(1)}
	l2cfg := Config{Name: "L2", SizeBytes: 4 << 10, LineBytes: 128, Ways: 4, HitLatency: sim.Nanoseconds(5)}
	const region = 24 << 10 // 6x the L2: plenty of conflict misses
	for _, tc := range []struct {
		name string
		// between records L1 -> L2 writes too; it also hides the L2 from
		// the L1's private-miss probe, so runs then stop at every miss.
		between bool
	}{{"private", false}, {"recorded", true}} {
		t.Run(tc.name, func(t *testing.T) {
			flatRec := &recorder{Device: mem.NewFlat("lower", 1<<20, sim.Nanoseconds(100), 1e9)}
			l2 := MustNew(l2cfg, flatRec)
			defer l2.Release()
			var l1Lower mem.Device = l2
			midRec := &recorder{Device: l2}
			if tc.between {
				l1Lower = midRec
			}
			l1 := MustNew(l1cfg, l1Lower)
			defer l1.Release()

			refFlat := &refRecorder{refDevice: &refMem{b: make([]byte, 1<<20)}}
			r2 := newRef(l2cfg, refFlat)
			refMid := &refRecorder{refDevice: r2}
			r1 := newRef(l1cfg, refMid)

			rng := rand.New(rand.NewSource(42))
			var now sim.Time
			check := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			buf, want := make([]byte, 256), make([]byte, 256)
			for op := 0; op < 6000; op++ {
				switch k := rng.Intn(100); {
				case k < 35: // scalar read, possibly spanning lines
					n := 1 + rng.Intn(200)
					addr := uint64(rng.Intn(region - n))
					done, err := l1.ReadInto(now, addr, buf[:n])
					check(err)
					now = done
					r1.read(addr, want[:n])
					if !bytes.Equal(buf[:n], want[:n]) {
						t.Fatalf("op %d: read %#x+%d differs from reference", op, addr, n)
					}
				case k < 65: // scalar write
					n := 1 + rng.Intn(200)
					addr := uint64(rng.Intn(region - n))
					rng.Read(buf[:n])
					done, err := l1.Write(now, addr, buf[:n])
					check(err)
					now = done
					r1.write(addr, buf[:n])
				case k < 98: // ReadRun / WriteRun, scalar op wherever a run stops
					strides := []int64{4, 8, 64, 72, 200, -8, -136}
					run := mem.Run{
						Stride: strides[rng.Intn(len(strides))],
						Size:   []int{4, 8}[rng.Intn(2)],
						Count:  1 + rng.Intn(40),
						Gap:    sim.Nanoseconds(2),
						Issue:  sim.Nanoseconds(1),
					}
					span := int64(run.Count-1) * run.Stride
					lo := max(0, -span)
					run.Addr = uint64(lo + rng.Int63n(region-int64(run.Size)-abs(span)))
					write := k >= 80
					src := buf[:run.Size]
					if write {
						rng.Read(src)
					}
					dst := make([]byte, run.Size)
					for run.Count > 0 {
						var res mem.RunResult
						var err error
						if write {
							res, err = l1.WriteRun(now, run, src)
						} else {
							res, err = l1.ReadRun(now, run, dst)
						}
						check(err)
						now = res.Now
						for i := 0; i < res.Done; i++ {
							a := uint64(int64(run.Addr) + int64(i)*run.Stride)
							if write {
								r1.write(a, src)
							} else {
								r1.read(a, want[:run.Size])
							}
						}
						if !write && res.Done > 0 && !bytes.Equal(dst, want[:run.Size]) {
							t.Fatalf("op %d: ReadRun bytes differ from reference", op)
						}
						// Resume past the op the run stopped before.
						if res.Done < run.Count {
							a := uint64(int64(run.Addr) + int64(res.Done)*run.Stride)
							var done sim.Time
							if write {
								done, err = l1.Write(now, a, src)
								r1.write(a, src)
							} else {
								done, err = l1.ReadInto(now, a, dst)
								r1.read(a, want[:run.Size])
							}
							check(err)
							now = done
							res.Done++
						}
						run.Addr = uint64(int64(run.Addr) + int64(res.Done)*run.Stride)
						run.Count -= res.Done
					}
				default:
					done, err := l1.Flush(now)
					check(err)
					done, err = l2.Flush(done)
					check(err)
					now = done
					r1.flush()
					r2.flush()
				}
				if counts(l1.Stats()) != counts(r1.stats) || counts(l2.Stats()) != counts(r2.stats) {
					t.Fatalf("op %d: stats L1 %v L2 %v, reference L1 %v L2 %v", op,
						counts(l1.Stats()), counts(l2.Stats()), counts(r1.stats), counts(r2.stats))
				}
			}
			done, err := l1.Flush(now)
			check(err)
			_, err = l2.Flush(done)
			check(err)
			r1.flush()
			r2.flush()
			if counts(l1.Stats()) != counts(r1.stats) || counts(l2.Stats()) != counts(r2.stats) {
				t.Fatalf("final stats L1 %v L2 %v, reference L1 %v L2 %v",
					counts(l1.Stats()), counts(l2.Stats()), counts(r1.stats), counts(r2.stats))
			}
			sameWrites(t, "L2 -> memory", flatRec.log, refFlat.log)
			if tc.between {
				sameWrites(t, "L1 -> L2", midRec.log, refMid.log)
			}
			s1, s2 := l1.Stats(), l2.Stats()
			if s1.Evictions == 0 || s1.Writebacks == 0 || s2.Evictions == 0 || s2.Writebacks == 0 {
				t.Fatalf("stream too tame: L1 %+v L2 %+v", s1, s2)
			}
			got, _, err := mem.Read(flatRec, 0, 0, region)
			check(err)
			if !bytes.Equal(got, refFlat.refDevice.(*refMem).b[:region]) {
				t.Fatal("memory after the final flush differs from reference")
			}
		})
	}
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
