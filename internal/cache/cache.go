// Package cache implements the set-associative write-back caches of the
// accelerator's PEs (64 KB L1 and 512 KB L2 in the TMS320C6678-like
// platform the paper evaluates). Caches are functional and timed: they
// store real line data, and misses propagate to the lower mem.Device with
// full timing, so a whole PE -> L1 -> L2 -> PRAM stack moves real bytes
// with realistic latency.
package cache

import (
	"fmt"
	"math/bits"
	"strings"

	"dramless/internal/freelist"
	"dramless/internal/mem"
	"dramless/internal/obs"
	"dramless/internal/sim"
)

// Config describes one cache level.
type Config struct {
	Name       string
	SizeBytes  int
	LineBytes  int
	Ways       int
	HitLatency sim.Duration
	// Obs attaches per-access hit/miss latency histograms
	// ("cache.l1.hit_ps", ...; the level is the Name's prefix before the
	// first dot, lowercased). Nil disables recording at one pointer
	// check per access.
	Obs *obs.Observer
}

// histLevel returns the instrument level slug of the cache ("l1", "l2").
func (c Config) histLevel() string {
	name := c.Name
	if i := strings.IndexByte(name, '.'); i >= 0 {
		name = name[:i]
	}
	return strings.ToLower(name)
}

// L1Data returns the paper platform's 64 KB 2-way L1 with 64 B lines
// (1 ns hit at the 1 GHz core clock).
func L1Data() Config {
	return Config{Name: "L1", SizeBytes: 64 << 10, LineBytes: 64, Ways: 2, HitLatency: sim.Nanoseconds(1)}
}

// L2 returns the platform's 512 KB 4-way L2 with 128 B lines (~5 ns hit).
// The paper's server-side MCU issues 512 B requests per channel by
// leveraging this cache.
func L2() Config {
	return Config{Name: "L2", SizeBytes: 512 << 10, LineBytes: 128, Ways: 4, HitLatency: sim.Nanoseconds(5)}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0:
		return fmt.Errorf("cache %s: size/line/ways must be positive", c.Name)
	case c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("cache %s: line size %d not a power of two", c.Name, c.LineBytes)
	case c.SizeBytes%(c.LineBytes*c.Ways) != 0:
		return fmt.Errorf("cache %s: size %d not divisible by ways*line", c.Name, c.SizeBytes)
	}
	sets := c.SizeBytes / (c.LineBytes * c.Ways)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: %d sets not a power of two", c.Name, sets)
	}
	return nil
}

// Stats counts cache activity.
type Stats struct {
	Hits       int64
	Misses     int64
	Evictions  int64
	Writebacks int64
	BytesBelow int64 // bytes moved to/from the lower level

	// Service-time accounts in picoseconds of simulated time,
	// accumulated always-on at the same sites as the hit/miss latency
	// histograms (blame attribution, DESIGN.md §15). HitPS is exclusive
	// to this level; MissPS includes the lower level's service time.
	HitPS  int64
	MissPS int64
}

// HitRate returns hits / accesses (0 when idle).
func (s Stats) HitRate() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Hits) / float64(t)
}

// CountersInto writes the snapshot into the registry under prefix (e.g.
// "accel.pe0.l1."), including a hit-rate gauge once the cache saw
// traffic.
func (s Stats) CountersInto(c *obs.Counters, prefix string) {
	c.Add(prefix+"hits", s.Hits)
	c.Add(prefix+"misses", s.Misses)
	c.Add(prefix+"evictions", s.Evictions)
	c.Add(prefix+"writebacks", s.Writebacks)
	c.Add(prefix+"bytes_below", s.BytesBelow)
	if s.Hits+s.Misses > 0 {
		c.SetGauge(prefix+"hit_rate", s.HitRate())
	}
}

// Line state lives in one flat set-major array indexed by i = set*Ways +
// way, with no pointers for the collector to scan: ways[i] holds the
// way's tag key and LRU stamp, and the line's bytes are
// slab[i<<lineShift:]. A probe reads a few contiguous words - one host
// cache line for a 4-way set - instead of a struct per way (DESIGN.md
// §8, host-cache layout).
type way struct {
	key   uint64 // (tag+1)<<1 | dirty; 0 is an invalid way
	stamp int64  // tick of the last access
}

// dirtyBit is the dirty flag of a way key.
const dirtyBit = 1

func tagKey(tag uint64) uint64 { return (tag + 1) << 1 }

// Cache is one set-associative write-back, write-allocate cache level in
// front of a lower mem.Device.
type Cache struct {
	cfg     Config
	errName string // "cache <name>", precomputed so range checks don't allocate
	lower   mem.Device
	storage
	tick  int64
	stats Stats

	// Address-decomposition constants: line size and set count are
	// validated powers of two, so index/lineBase run on shifts and masks
	// instead of hardware division (index sits on every access path).
	lineShift uint
	setShift  uint
	lineMask  uint64
	setMask   uint64

	// Per-access latency instruments, resolved once at construction
	// (nil when observation is off; the nil handles no-op).
	hHit  *obs.Histogram
	hMiss *obs.Histogram
}

// storage is a cache's construction-time storage, recycled across
// instances via Release: the experiment engine rebuilds every PE's L1/L2
// for each system x kernel cell, and allocating (and zeroing, and
// GC-scanning) megabytes of line arrays per cell dominated the suite's
// wall clock once the datapath itself stopped allocating.
type storage struct {
	ways []way
	slab []byte // one backing array for every line's data
}

// storagePool keeps released storage per cache shape (size, line, ways),
// so a reuse always fits exactly.
var storagePool freelist.List[[3]int, storage]

func shapeOf(cfg Config) [3]int { return [3]int{cfg.SizeBytes, cfg.LineBytes, cfg.Ways} }

var _ mem.Device = (*Cache)(nil)

// New builds a cache over lower. Line storage is two flat arrays,
// recycled across instances through Release: the experiment engine
// rebuilds every PE's L1/L2 for each system x kernel cell.
func New(cfg Config, lower mem.Device) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if lower == nil {
		return nil, fmt.Errorf("cache %s: nil lower level", cfg.Name)
	}
	nsets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	st, ok := storagePool.Get(shapeOf(cfg))
	if !ok {
		st = storage{
			ways: make([]way, nsets*cfg.Ways),
			slab: make([]byte, cfg.SizeBytes),
		}
	} else {
		// Recycled storage carries stale keys and stamps (stale slab
		// bytes are unobservable - every line is refilled from below
		// before its first copy-out).
		clear(st.ways)
	}
	c := &Cache{
		cfg:       cfg,
		errName:   "cache " + cfg.Name,
		lower:     lower,
		storage:   st,
		lineShift: uint(bits.TrailingZeros64(uint64(cfg.LineBytes))),
		lineMask:  uint64(cfg.LineBytes) - 1,
		setShift:  uint(bits.TrailingZeros64(uint64(nsets))),
		setMask:   uint64(nsets) - 1,
	}
	if hs := cfg.Obs.Histograms(); hs != nil {
		lvl := cfg.histLevel()
		c.hHit = hs.Get("cache." + lvl + ".hit_ps")
		c.hMiss = hs.Get("cache." + lvl + ".miss_ps")
	}
	return c, nil
}

// Release returns the cache's line storage to the construction pool. The
// cache must not be used afterwards; callers that rebuild cache
// hierarchies per run (the accelerator) call it once stats have been
// snapshotted.
func (c *Cache) Release() {
	if c.ways == nil {
		return
	}
	storagePool.Put(shapeOf(c.cfg), c.storage)
	c.storage = storage{}
}

// MustNew is New for known-good configurations.
func MustNew(cfg Config, lower mem.Device) *Cache {
	c, err := New(cfg, lower)
	if err != nil {
		panic(err)
	}
	return c
}

// Size implements mem.Device: the cache is transparent, exposing the
// lower device's space.
func (c *Cache) Size() uint64 { return c.lower.Size() }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) index(addr uint64) (set int, tag uint64, off int) {
	lineAddr := addr >> c.lineShift
	return int(lineAddr & c.setMask), lineAddr >> c.setShift, int(addr & c.lineMask)
}

func (c *Cache) lineBase(set int, tag uint64) uint64 {
	return (tag<<c.setShift | uint64(set)) << c.lineShift
}

// tagOf returns the tag held by a valid way key.
func tagOf(key uint64) uint64 { return key>>1 - 1 }

// data returns the bytes of line i.
func (c *Cache) data(i int) []byte {
	lo := i << c.lineShift
	return c.slab[lo : lo+c.cfg.LineBytes : lo+c.cfg.LineBytes]
}

// lookup returns the line index holding (set, tag) or -1.
func (c *Cache) lookup(set int, tag uint64) int {
	want := tagKey(tag) | dirtyBit
	base := set * c.cfg.Ways
	for w, wy := range c.ways[base : base+c.cfg.Ways] {
		if wy.key|dirtyBit == want {
			return base + w
		}
	}
	return -1
}

// victim returns the line index of the set's LRU way, preferring invalid
// ways (the lowest-numbered one) and, among equal stamps, the lowest way.
func (c *Cache) victim(set int) int {
	base := set * c.cfg.Ways
	best, bestUse := base, int64(1<<62)
	for w, wy := range c.ways[base : base+c.cfg.Ways] {
		if wy.key == 0 {
			return base + w
		}
		if wy.stamp < bestUse {
			best, bestUse = base+w, wy.stamp
		}
	}
	return best
}

// fill ensures (set, tag) is resident, returning its line index and the
// time the line is ready. Misses fetch from below, evicting (and writing
// back) the LRU victim first.
func (c *Cache) fill(at sim.Time, set int, tag uint64) (int, sim.Time, error) {
	if i := c.lookup(set, tag); i >= 0 {
		c.stats.Hits++
		c.stats.HitPS += int64(c.cfg.HitLatency)
		if c.hHit != nil {
			c.hHit.Record(int64(c.cfg.HitLatency))
		}
		return i, at + c.cfg.HitLatency, nil
	}
	c.stats.Misses++
	i := c.victim(set)
	t := at + c.cfg.HitLatency // tag check before going below
	if k := c.ways[i].key; k != 0 {
		c.stats.Evictions++
		if k&dirtyBit != 0 {
			c.stats.Writebacks++
			c.stats.BytesBelow += int64(c.cfg.LineBytes)
			done, err := c.lower.Write(t, c.lineBase(set, tagOf(k)), c.data(i))
			if err != nil {
				return 0, 0, fmt.Errorf("cache %s: writeback: %w", c.cfg.Name, err)
			}
			t = done
		}
	}
	// Fetch straight into the line's slab storage; invalidate first so an
	// error below cannot leave a half-filled line looking resident.
	c.ways[i].key = 0
	done, err := c.lower.ReadInto(t, c.lineBase(set, tag), c.data(i))
	if err != nil {
		return 0, 0, fmt.Errorf("cache %s: fill: %w", c.cfg.Name, err)
	}
	c.stats.BytesBelow += int64(c.cfg.LineBytes)
	c.ways[i].key = tagKey(tag)
	c.stats.MissPS += int64(done - at)
	if c.hMiss != nil {
		c.hMiss.Record(int64(done - at))
	}
	return i, done, nil
}

// ReadInto implements mem.Device. On resident lines it is the
// steady-state PE load path and performs zero allocations (pinned by
// TestCacheHitReadIntoAllocationFree in internal/mem).
func (c *Cache) ReadInto(at sim.Time, addr uint64, dst []byte) (sim.Time, error) {
	n := len(dst)
	if err := mem.CheckRange(c.errName, c.Size(), addr, n); err != nil {
		return 0, err
	}
	done := at
	for off := 0; off < n; {
		set, tag, lo := c.index(addr + uint64(off))
		take := c.cfg.LineBytes - lo
		if take > n-off {
			take = n - off
		}
		i, d, err := c.fill(at, set, tag)
		if err != nil {
			return 0, err
		}
		c.tick++
		c.ways[i].stamp = c.tick
		copy(dst[off:], c.data(i)[lo:lo+take])
		done = sim.Max(done, d)
		off += take
	}
	return done, nil
}

// Write implements mem.Device (write-allocate, write-back).
func (c *Cache) Write(at sim.Time, addr uint64, data []byte) (sim.Time, error) {
	if err := mem.CheckRange(c.errName, c.Size(), addr, len(data)); err != nil {
		return 0, err
	}
	done := at
	for off := 0; off < len(data); {
		set, tag, lo := c.index(addr + uint64(off))
		take := c.cfg.LineBytes - lo
		if take > len(data)-off {
			take = len(data) - off
		}
		i, d, err := c.fill(at, set, tag)
		if err != nil {
			return 0, err
		}
		c.tick++
		c.ways[i].stamp = c.tick
		copy(c.data(i)[lo:], data[off:off+take])
		c.ways[i].key |= dirtyBit
		done = sim.Max(done, d)
		off += take
	}
	return done, nil
}

// Flush writes every dirty line back to the lower level, in set-major
// then way order, and invalidates the cache; the accelerator does this
// when a kernel completes so results are persistent in PRAM. A failed
// writeback leaves that line and every later one untouched.
func (c *Cache) Flush(at sim.Time) (done sim.Time, err error) {
	done = at
	for i, wy := range c.ways {
		k := wy.key
		if k&dirtyBit == 0 {
			continue
		}
		c.stats.Writebacks++
		c.stats.BytesBelow += int64(c.cfg.LineBytes)
		d, err := c.lower.Write(done, c.lineBase(i/c.cfg.Ways, tagOf(k)), c.data(i))
		if err != nil {
			clear(c.ways[:i])
			return 0, err
		}
		done = d
	}
	clear(c.ways)
	return done, nil
}

// Drain implements mem.Drainer by delegating to the lower level.
func (c *Cache) Drain() sim.Time { return mem.DrainOf(c.lower, 0) }

var _ mem.Batcher = (*Cache)(nil)

// wouldHit reports whether [addr, addr+n) is resident within a single
// line right now, without touching LRU state or counters.
func (c *Cache) wouldHit(addr uint64, n int) bool {
	set, tag, off := c.index(addr)
	if off+n > c.cfg.LineBytes {
		return false
	}
	return c.lookup(set, tag) >= 0
}

// privateMiss reports whether a miss on (set, tag) would be serviced
// entirely by a lower private *Cache: both the fill and any dirty
// victim's writeback hit there. The probe is exact - hit-path execution
// in the lower cache never evicts, so residency observed here still
// holds when the miss runs - and conservatively false when the lower
// level is not a Cache (it may be a shared path whose call order across
// cores matters).
func (c *Cache) privateMiss(set int, tag uint64) bool {
	lower, ok := c.lower.(*Cache)
	if !ok {
		return false
	}
	if k := c.ways[c.victim(set)].key; k&dirtyBit != 0 {
		if !lower.wouldHit(c.lineBase(set, tagOf(k)), c.cfg.LineBytes) {
			return false
		}
	}
	return lower.wouldHit(c.lineBase(set, tag), c.cfg.LineBytes)
}

// ReadRun implements mem.Batcher: it services leading accesses of r
// while each one stays private - a single-line hit here, or a miss whose
// fill and writeback both hit in a lower private cache (privateMiss) -
// and stops before the first access that would reach a shared lower
// level, leaving it for the caller's scalar path. Stats, LRU state and
// timing advance exactly as the per-op loop would; the only shortcut is
// that hit accesses defer their copy-out, since dst only exposes the
// last completed access's bytes.
func (c *Cache) ReadRun(now sim.Time, r mem.Run, dst []byte) (mem.RunResult, error) {
	res := mem.RunResult{Now: now}
	addr := r.Addr
	var pend []byte // line bytes of the last hit, copy-out deferred
	// Same-line memo: runs whose stride is below the line size hit the
	// line they just resolved; skip the way scan. Hits never move lines,
	// so the memo stays exact until the next miss.
	memoI, memoSet, memoTag := -1, 0, uint64(0)
	for res.Done < r.Count {
		set, tag, lo := c.index(addr)
		if lo+r.Size > c.cfg.LineBytes {
			break
		}
		start := res.Now + r.Gap
		var done sim.Time
		i := memoI
		if i < 0 || set != memoSet || tag != memoTag {
			i = c.lookup(set, tag)
		}
		if i >= 0 {
			memoI, memoSet, memoTag = i, set, tag
			// Hit fast path: same stats/LRU/instrument effects as fill's
			// hit arm.
			c.stats.Hits++
			c.stats.HitPS += int64(c.cfg.HitLatency)
			if c.hHit != nil {
				c.hHit.Record(int64(c.cfg.HitLatency))
			}
			c.tick++
			c.ways[i].stamp = c.tick
			pend = c.data(i)[lo : lo+r.Size]
			done = start + c.cfg.HitLatency
		} else {
			if !c.privateMiss(set, tag) {
				break
			}
			memoI = -1 // the fill below may evict any way
			// A fill may overwrite the pending line's slab storage
			// (eviction reuses it); settle the deferred copy first.
			if pend != nil {
				copy(dst[:r.Size], pend)
				pend = nil
			}
			var err error
			done, err = c.ReadInto(start, addr, dst[:r.Size])
			if err != nil {
				return res, err
			}
		}
		if done < start {
			done = start
		}
		end := sim.Max(done, start+r.Issue)
		res.Stall += end - start
		res.Now = end
		res.Done++
		if r.OnOp != nil {
			r.OnOp(start, end)
		}
		addr = uint64(int64(addr) + r.Stride)
	}
	if pend != nil {
		copy(dst[:r.Size], pend)
	}
	return res, nil
}

// WriteRun implements mem.Batcher with the same private-prefix
// semantics as ReadRun (write-allocate shares the fill path); every
// store's bytes must land in its line, so nothing is deferred.
func (c *Cache) WriteRun(now sim.Time, r mem.Run, src []byte) (mem.RunResult, error) {
	res := mem.RunResult{Now: now}
	addr := r.Addr
	memoI, memoSet, memoTag := -1, 0, uint64(0) // same-line memo, as in ReadRun
	for res.Done < r.Count {
		set, tag, lo := c.index(addr)
		if lo+r.Size > c.cfg.LineBytes {
			break
		}
		start := res.Now + r.Gap
		var done sim.Time
		i := memoI
		if i < 0 || set != memoSet || tag != memoTag {
			i = c.lookup(set, tag)
		}
		if i >= 0 {
			memoI, memoSet, memoTag = i, set, tag
			c.stats.Hits++
			c.stats.HitPS += int64(c.cfg.HitLatency)
			if c.hHit != nil {
				c.hHit.Record(int64(c.cfg.HitLatency))
			}
			c.tick++
			c.ways[i].stamp = c.tick
			copy(c.data(i)[lo:lo+r.Size], src[:r.Size])
			c.ways[i].key |= dirtyBit
			done = start + c.cfg.HitLatency
		} else {
			if !c.privateMiss(set, tag) {
				break
			}
			memoI = -1 // the fill below may evict any way
			var err error
			done, err = c.Write(start, addr, src[:r.Size])
			if err != nil {
				return res, err
			}
		}
		if done < start {
			done = start
		}
		end := sim.Max(done, start+r.Issue)
		res.Stall += end - start
		res.Now = end
		res.Done++
		if r.OnOp != nil {
			r.OnOp(start, end)
		}
		addr = uint64(int64(addr) + r.Stride)
	}
	return res, nil
}
