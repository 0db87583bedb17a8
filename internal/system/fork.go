package system

import "dramless/internal/workload"

// Prefix-origin counters: every Result carries exactly one of these, at
// the tail of its registry. Run records system.prefix_cold_runs;
// RunForked records system.prefix_forks. Both paths simulate the
// populate/load prefix from scratch, so the counter only tells which
// entry point the run came through.
//
// Deprecated: kept with the RunForked shim below for the benchmark
// harness (perfbench), whose reference digests hash the counter; they
// go together.
const (
	CounterPrefixForks    = "system.prefix_forks"
	CounterPrefixColdRuns = "system.prefix_cold_runs"
)

// Prefix identifies one populate/load prefix: runs whose Prefix compares
// equal traverse an identical simulation up to the end of the load
// phase. The prefix touches the kernel only through its input/output
// byte counts, base address and agent count, and the Config only through
// fields that shape the timed simulation; observability attachments
// (Obs, SampleInterval) are normalized away.
//
// Deprecated: the checkpoint/fork layer is gone and every run is cold.
// Prefix, PrefixOf, Checkpoint, CapturePrefix and RunForked stay only
// because the benchmark harness's arena workload (perfbench/arena.go)
// calls them; they go with the harness's next revision.
type Prefix struct {
	Cfg    Config
	In     int64
	Out    int64
	Base   uint64
	Agents int
}

// PrefixOf returns the prefix key for running kernel k under cfg.
//
// Deprecated: see Prefix.
func PrefixOf(cfg Config, k workload.Kernel) Prefix {
	p := workload.Params{Scale: cfg.Scale, Agents: cfg.Accel.NumPEs - 1}
	norm := cfg
	norm.Obs = nil
	norm.SampleInterval = 0
	// Scheduler policy: only the DRAM-less kind reads Policy (the
	// firmware-managed build forces bare-metal, every other kind has no
	// PRAM controller), and every spelling of one policy ("", "final",
	// "FINAL") builds the identical controller, so the key holds the
	// canonical name. The policy does shape the prefix itself for
	// DRAM-less (the load phase's PreErase intent declaration), so the
	// name stays in the key there.
	if norm.Kind == DRAMLess {
		if p, err := norm.schedulerPolicy(); err == nil {
			norm.Policy = p.Name()
		}
	} else {
		norm.Policy = ""
	}
	return Prefix{
		Cfg:    norm,
		In:     k.InputBytes(p),
		Out:    k.OutputBytes(p),
		Base:   p.BaseAddr,
		Agents: p.Agents,
	}
}

// Checkpoint is an empty token: it holds no simulation state.
//
// Deprecated: see Prefix.
type Checkpoint struct{}

// CapturePrefix validates pr's config and returns an empty Checkpoint;
// it simulates nothing.
//
// Deprecated: see Prefix.
func CapturePrefix(pr Prefix) (*Checkpoint, error) {
	if err := pr.Cfg.Validate(); err != nil {
		return nil, err
	}
	return &Checkpoint{}, nil
}

// Release does nothing.
//
// Deprecated: see Prefix.
func (cp *Checkpoint) Release() {}

// RunForked is Run, cp ignored: it simulates the whole run, prefix
// included, and tags the result system.prefix_forks where Run tags
// system.prefix_cold_runs. Everything else is byte-identical to Run.
//
// Deprecated: see Prefix.
func RunForked(cfg Config, k workload.Kernel, cp *Checkpoint) (*Result, error) {
	return run(cfg, k, CounterPrefixForks)
}
