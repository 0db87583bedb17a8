package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"

	"dramless/internal/accel"
	"dramless/internal/mem"
	"dramless/internal/memctrl"
	"dramless/internal/obs"
	"dramless/internal/sim"
	"dramless/internal/workload"
)

const (
	jobScale      = 128 << 10 // per-job base footprint
	jobRegion     = 1 << 20   // address space reserved per job in a batch
	batchesPerMix = 8
	jobMaxAgents  = 3
	jobPolicy     = "final"
)

var (
	jobReadKernels  = []string{"durbin", "dynpro", "gemver", "trisolv"}
	jobWriteKernels = []string{"chol", "doitg", "lu", "seidel"}
)

// jobsMix runs FIFO batches through accel.RunJobs on a PRAM subsystem
// under the final policy. The seed deals one mix of batchesPerMix
// batches; every pass replays that mix, batch by batch, each on a fresh
// subsystem whose job regions hold stale data and whose storage returns
// to the pools when the batch ends.
type jobsMix struct {
	batches [][]accel.Job
	instrs  [][]int64 // each job's expected instruction count
}

// dealJobs generates the seed's batches. Every batch holds each read-
// and write-intensive kernel once, so every batch does the same work;
// the seed picks the order, which fixes which reads share a FIFO wave
// with which writes, and each job's agent count.
func dealJobs(seed int64) [][]accel.Job {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x6a6f6273))
	names := append(append([]string{}, jobReadKernels...), jobWriteKernels...)
	batches := make([][]accel.Job, batchesPerMix)
	for b := range batches {
		rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		for i, n := range names {
			batches[b] = append(batches[b], accel.Job{
				Kernel: workload.MustByName(n),
				Params: workload.Params{Scale: jobScale, BaseAddr: uint64(i) * jobRegion},
				Agents: 1 + rng.IntN(jobMaxAgents),
			})
		}
	}
	return batches
}

func newJobsMix(seed int64) (*jobsMix, error) {
	j := &jobsMix{batches: dealJobs(seed)}
	for _, jobs := range j.batches {
		want := make([]int64, len(jobs))
		for i, jb := range jobs {
			n, err := streamInstrs(jb)
			if err != nil {
				return nil, err
			}
			want[i] = n
		}
		j.instrs = append(j.instrs, want)
	}
	return j, nil
}

// streamInstrs counts the instructions of a job's agent streams: every
// op's compute plus one issue slot per memory reference.
func streamInstrs(jb accel.Job) (int64, error) {
	p := jb.Params
	p.Agents = jb.Agents
	var n int64
	for pe := 0; pe < p.Agents; pe++ {
		s, err := workload.NewStream(jb.Kernel, p, pe)
		if err != nil {
			return 0, err
		}
		for o, ok := s.Next(); ok; o, ok = s.Next() {
			n += o.Compute
			if o.Size > 0 {
				n++
			}
		}
	}
	return n, nil
}

func (j *jobsMix) warmup() error {
	w, err := newJobsMix(0)
	if err != nil {
		return err
	}
	_, err = runBatch(w.batches[0], w.instrs[0], nil, nil)
	return err
}

func (j *jobsMix) ops(int) []op {
	out := make([]op, len(j.batches))
	for b, jobs := range j.batches {
		key := fmt.Sprintf("batch%02d", b)
		out[b] = op{key: key, run: func(tr *tracer, acc *layerAcc) (string, error) {
			d, err := runBatch(jobs, j.instrs[b], tr, acc)
			if err != nil {
				return "", fmt.Errorf("%s: %w", key, err)
			}
			return d, nil
		}}
	}
	return out
}

func (j *jobsMix) endPass(*layerAcc) {}

// runBatch builds a subsystem and accelerator, pre-writes every job's
// region, runs the batch and checks its timing-independent properties.
// With a tracer the subsystem sits behind the timing decorator.
func runBatch(jobs []accel.Job, instrs []int64, tr *tracer, acc *layerAcc) (string, error) {
	pol, err := memctrl.PolicyByName(jobPolicy)
	if err != nil {
		return "", err
	}
	mcCfg := memctrl.DefaultPolicyConfig(pol)
	mcCfg.Geometry.RowsPerModule = 1 << 16
	sub, err := memctrl.New(mcCfg)
	if err != nil {
		return "", err
	}
	defer sub.Release() // return the row segments to the pool for the next batch
	booted, err := sub.Boot(0)
	if err != nil {
		return "", err
	}
	for _, jb := range jobs {
		total := jb.Kernel.FootprintBytes(jb.Params)
		if total > jobRegion {
			return "", fmt.Errorf("%s footprint %d exceeds its %d-byte region", jb.Kernel.Name, total, jobRegion)
		}
		for off := int64(0); off < total; off += int64(len(stale)) {
			n := min(int64(len(stale)), total-off)
			if err := sub.Populate(jb.Params.BaseAddr+uint64(off), stale[:n]); err != nil {
				return "", err
			}
		}
	}
	var backend mem.Device = sub
	if tr != nil {
		backend = &timedSub{sub: sub, tr: tr}
	}
	acfg := accel.Default()
	acfg.Lanes = lanes
	a, err := accel.New(acfg, backend)
	if err != nil {
		return "", err
	}
	s := tr.begin("accel.run_jobs")
	res, err := a.RunJobs(booted+sim.Microsecond, jobs)
	tr.end(s)
	if err != nil {
		return "", err
	}
	if err := checkJobs(jobs, instrs, res, a.Agents()); err != nil {
		return "", err
	}
	// The batch is done once the posted writes its jobs left have
	// retired.
	end := booted
	for _, r := range res {
		end = max(end, r.Report.End)
	}
	done := mem.DrainOf(backend, end)
	c := &obs.Counters{}
	a.CountersInto(c)
	sub.CountersInto(c)
	for _, r := range res {
		r.Report.CountersInto(c)
	}
	if acc != nil {
		acc.counters.Merge(c)
		acc.events += c.Get("accel.events_dispatched")
	}
	return batchDigest(res, done, c)
}

// checkJobs verifies what must hold at any timing: every job ran with
// its full instruction count on the agents it asked for, and the jobs
// of one FIFO wave hold disjoint agent sets.
func checkJobs(jobs []accel.Job, instrs []int64, res []*accel.JobResult, agents int) error {
	if len(res) != len(jobs) {
		return fmt.Errorf("%d results for %d jobs", len(res), len(jobs))
	}
	used := map[int]bool{}
	inWave := 0
	for i, jb := range jobs {
		r := res[i]
		if r == nil || r.Report == nil {
			return fmt.Errorf("job %d has no result", i)
		}
		want := min(jb.Agents, agents)
		if jb.Agents <= 0 {
			want = agents
		}
		if len(r.AgentIDs) != want {
			return fmt.Errorf("job %d ran on %d agents, asked for %d", i, len(r.AgentIDs), want)
		}
		if got, exp := r.Report.Instrs, instrs[i]; got != exp {
			return fmt.Errorf("job %d (%s) retired %d instructions, want %d", i, jb.Kernel.Name, got, exp)
		}
		// The scheduler's wave rule: a job joins the wave while agents
		// remain, else it opens the next wave.
		if inWave+want > agents {
			used, inWave = map[int]bool{}, 0
		}
		inWave += want
		for _, id := range r.AgentIDs {
			if used[id] {
				return fmt.Errorf("job %d shares agent %d with another job of its wave", i, id)
			}
			used[id] = true
		}
	}
	return nil
}

// batchDigest covers each job's placement, timing and work plus the
// batch's device counters.
func batchDigest(res []*accel.JobResult, done sim.Time, c *obs.Counters) (string, error) {
	h := sha256.New()
	fmt.Fprintf(h, "done %d\n", done)
	for _, r := range res {
		rep := r.Report
		fmt.Fprintf(h, "%s %v %d %d %d %d %d %d\n", r.Job.Kernel.Name, r.AgentIDs,
			rep.Start, rep.End, rep.Instrs, rep.Compute, rep.Stall, rep.Events)
	}
	js, err := c.MarshalJSON()
	if err != nil {
		return "", err
	}
	h.Write(js)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// stale is system.populate's initial-data pattern: the bytes an earlier
// job left behind, so writes are overwrites, not first programs.
var stale = func() []byte {
	b := make([]byte, 256<<10)
	for i := range b {
		b[i] = byte(i*131 + 7)
	}
	return b
}()
