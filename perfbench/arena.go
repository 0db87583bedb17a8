package main

import (
	"fmt"
	"math/rand/v2"

	"dramless/internal/memctrl"
	"dramless/internal/obs"
	"dramless/internal/system"
	"dramless/internal/workload"
)

// arenaScale is the arena-1m footprint: 1 MiB, twice the 512 KiB L2, so
// the PRAM controller serves most of the kernel's traffic.
const arenaScale = 1 << 20

// arenaKernels is the fixed kernel subset, one per kernel class. lu,
// floyd and jaco1d share a footprint, so each policy captures two
// prefixes and forks the other two cells from a shared checkpoint.
var arenaKernels = []string{"durbin", "lu", "floyd", "jaco1d"}

// arenaCell is one policy x kernel simulation.
type arenaCell struct {
	policy string
	kernel workload.Kernel
}

func (c arenaCell) key() string { return c.policy + "/" + c.kernel.Name }

// arena drives every registered scheduler policy over the kernel subset
// on the DRAM-less organization, the way `dramless arena -scale 1048576`
// does, but cell by cell: PrefixOf, CapturePrefix on a prefix's first
// use in the pass, then RunForked. Each pass starts from an empty
// checkpoint cache and releases its checkpoints at the end, as one
// regeneration of the sweep would.
type arena struct {
	seed  int64
	cells []arenaCell
	cps   map[system.Prefix]*system.Checkpoint
}

func newArena(seed int64) *arena {
	a := &arena{seed: seed, cps: map[system.Prefix]*system.Checkpoint{}}
	for _, pol := range memctrl.PolicyNames() {
		for _, name := range arenaKernels {
			a.cells = append(a.cells, arenaCell{policy: pol, kernel: workload.MustByName(name)})
		}
	}
	return a
}

// arenaConfig is the configuration the experiment engine gives an
// arena cell at the arena scale.
func arenaConfig(policy string) system.Config {
	return cellConfig(system.DRAMLess, arenaScale, policy)
}

func (a *arena) warmup() error {
	_, err := a.runCell(arenaCell{policy: "final", kernel: workload.MustByName("lu")}, nil, nil)
	a.endPass(nil)
	return err
}

// ops returns pass p's cells in the order the seed and pass index pick.
func (a *arena) ops(p int) []op {
	order := make([]arenaCell, len(a.cells))
	copy(order, a.cells)
	rng := rand.New(rand.NewPCG(uint64(a.seed), uint64(p)))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	out := make([]op, len(order))
	for i, c := range order {
		out[i] = op{key: c.key(), run: func(tr *tracer, acc *layerAcc) (string, error) {
			return a.runCell(c, tr, acc)
		}}
	}
	return out
}

func (a *arena) runCell(c arenaCell, tr *tracer, acc *layerAcc) (string, error) {
	res, ob, err := a.simulate(c, tr)
	if err != nil {
		return "", err
	}
	acc.addResult(res)
	return cellDigest(res, ob)
}

// simulate runs one cell with a private Observer, capturing its prefix
// on first use in the pass and forking from the checkpoint.
func (a *arena) simulate(c arenaCell, tr *tracer) (*system.Result, *obs.Observer, error) {
	cfg := arenaConfig(c.policy)
	ob := obs.New()
	cfg.Obs = ob
	pr := system.PrefixOf(cfg, c.kernel)
	cp, ok := a.cps[pr]
	if !ok {
		s := tr.beginAlloc("system.capture")
		var err error
		cp, err = system.CapturePrefix(pr)
		tr.end(s)
		if err != nil {
			return nil, nil, fmt.Errorf("%s capture: %w", c.key(), err)
		}
		a.cps[pr] = cp
	}
	s := tr.beginAlloc("system.fork")
	res, err := system.RunForked(cfg, c.kernel, cp)
	tr.end(s)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", c.key(), err)
	}
	return res, ob, nil
}

func (a *arena) endPass(*layerAcc) {
	for pr, cp := range a.cps {
		cp.Release()
		delete(a.cps, pr)
	}
}
