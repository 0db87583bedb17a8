package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"

	"dramless/internal/experiments"
	"dramless/internal/system"
	"dramless/internal/workload"
)

// suiteWarmup is the table the set-up regenerates untimed. Fig 15 walks
// all ten organizations, so it fills every storage pool.
const suiteWarmup = "fig15"

// suiteStatic are the tables whose generators read only the engine's
// options, never its simulation cache (experiments.Registry wraps them
// in optionsOnly). Each takes under a millisecond, so they run and are
// checked in a run's first pass only, outside the latency percentiles:
// six near-zero samples of sixteen would put op_ms_p50 on the gap
// between them and the engine tables.
var suiteStatic = map[string]bool{
	"fig12": true, "table1": true, "table2": true, "table3": true,
	"sec5-interleave": true, "sec5-selerase": true,
}

// suite regenerates every table and figure through one
// experiments.Engine per pass at Fast scale with one worker; the seed
// permutes the table order.
type suite struct {
	seed int64
	ids  []string
	e    *experiments.Engine
}

func newSuite(seed int64) *suite {
	s := &suite{seed: seed}
	for _, x := range experiments.Registry() {
		s.ids = append(s.ids, x.ID)
	}
	return s
}

func suiteOptions() experiments.Options {
	o := experiments.Fast()
	o.Parallelism = workers
	o.Lanes = -1 // legacy serial interleave, the same engine as lanes = 0
	return o
}

func (s *suite) warmup() error {
	e := experiments.NewEngine(suiteOptions())
	_, err := e.Table(suiteWarmup)
	e.Release()
	return err
}

func (s *suite) ops(p int) []op {
	order := make([]string, len(s.ids))
	copy(order, s.ids)
	rng := rand.New(rand.NewPCG(uint64(s.seed), uint64(p)))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	var out []op
	for _, id := range order {
		if suiteStatic[id] && p > 0 {
			continue
		}
		out = append(out, op{key: id, untimed: suiteStatic[id], run: func(tr *tracer, _ *layerAcc) (string, error) {
			if s.e == nil {
				s.e = experiments.NewEngine(suiteOptions())
			}
			sp := tr.begin("experiments.table")
			t, err := s.e.Table(id)
			tr.end(sp)
			if err != nil {
				return "", fmt.Errorf("%s: %w", id, err)
			}
			js, err := t.JSON()
			if err != nil {
				return "", fmt.Errorf("%s: %w", id, err)
			}
			sum := sha256.Sum256(js)
			return hex.EncodeToString(sum[:]), nil
		}})
	}
	return out
}

// endPass records the engine's cache accounting and per-cell host
// timings, then releases its checkpoints to the storage pools.
func (s *suite) endPass(acc *layerAcc) {
	if s.e == nil {
		return
	}
	if acc != nil {
		st, ps := s.e.Stats(), s.e.PrefixStats()
		acc.set("experiments.sims", float64(st.Runs))
		acc.set("experiments.cache_hits", float64(st.Hits+st.Coalesced))
		acc.set("experiments.prefix_captures", float64(ps.Runs))
		acc.set("experiments.prefix_hits", float64(ps.Hits+ps.Coalesced))
		acc.events += s.e.Events()
		// Engine-measured cell walls: a cell whose prefix was new
		// includes its capture; the others are forks alone.
		for _, c := range s.e.SlowestCells(int(st.Runs)) {
			if c.PrefixHit {
				acc.forkWall += c.Wall
			} else {
				acc.captureWall += c.Wall
			}
		}
	}
	s.e.Release()
	s.e = nil
}

// cellConfig is experiments.Options.config for the benchmark's
// options: the engine's cell configuration of kind at scale, with the
// SSD sized to at least six times the footprint and Lanes -1 resolved
// to the legacy serial interleave.
func cellConfig(kind system.Kind, scale int64, policy string) system.Config {
	cfg := system.DefaultConfig(kind)
	cfg.Scale = scale
	cfg.SSDCapacity = 64 << 20
	for cfg.SSDCapacity < uint64(6*scale) {
		cfg.SSDCapacity *= 2
	}
	cfg.Accel.Lanes = lanes
	cfg.Policy = policy
	return cfg
}

// suiteDeviceCounts runs the suite's Fig 15 cell set (the ten
// organizations x 16 kernels at Fast scale) cold with system.Run,
// outside the engine, which hands out tables rather than results, and
// totals their counters into acc. The cells are the ones the engine
// simulates (forked) for fig15-fig17, and system's TestForkedMatchesCold
// pins forked runs byte-equal to cold ones, so the SSD, FTL and PCIe
// counts are the suite's own.
func suiteDeviceCounts(acc *layerAcc) error {
	o := suiteOptions()
	for _, kind := range system.Fig15Kinds() {
		cfg := cellConfig(kind, o.Scale, o.Policy)
		for _, k := range workload.Suite() {
			res, err := system.Run(cfg, k)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", kind, k.Name, err)
			}
			acc.counters.Merge(&res.Counters)
		}
	}
	return nil
}
