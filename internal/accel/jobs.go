package accel

import (
	"fmt"

	"dramless/internal/cache"
	"dramless/internal/obs"
	"dramless/internal/pe"
	"dramless/internal/sim"
	"dramless/internal/stats"
	"dramless/internal/workload"
)

// Job is one kernel execution request for the server's scheduler. The
// Section IV model: a kernel image may carry several applications; the
// server polls for idle agents and dispatches each app to as many as it
// asks for.
type Job struct {
	Kernel workload.Kernel
	Params workload.Params
	// Agents is how many agent PEs the job wants (0 = all of them).
	Agents int
}

// JobResult pairs a job with its execution report.
type JobResult struct {
	Job      Job
	Report   *Report
	AgentIDs []int // which physical agents ran it
}

// agentState is the scheduler's view of one agent PE.
type agentState struct {
	id     int
	freeAt sim.Time
}

// RunJobs executes jobs under the server's FIFO scheduler: each job grabs
// the soonest-free agents it needs (sleeping, boot-address store and
// reboot per agent via the PSC), and jobs whose agent sets are disjoint
// execute concurrently - their PEs interleave in one time-ordered queue,
// contending for the MCU, crossbar and backend exactly as parallel
// kernels would.
func (a *Accelerator) RunJobs(start sim.Time, jobs []Job) ([]*JobResult, error) {
	if len(jobs) == 0 {
		return nil, nil
	}
	total := a.Agents()
	agents := make([]agentState, total)
	for i := range agents {
		agents[i] = agentState{id: i, freeAt: start}
	}

	results := make([]*JobResult, len(jobs))
	// Dispatch in FIFO waves: take jobs while agents remain, run the
	// wave's PEs in one interleaved queue, then free the agents.
	next := 0
	for next < len(jobs) {
		var wave []placedJob
		used := 0
		for next < len(jobs) {
			want := jobs[next].Agents
			if want <= 0 || want > total {
				want = total
			}
			if used+want > total {
				break
			}
			// Pick the `want` soonest-free agents.
			ids := soonestFree(agents, want, usedSet(wave))
			wave = append(wave, placedJob{jobIdx: next, agentIDs: ids})
			used += want
			next++
		}
		if len(wave) == 0 {
			return nil, fmt.Errorf("accel: job %d wants %d agents, have %d", next, jobs[next].Agents, total)
		}

		// Build every wave job's PEs, then interleave all of them.
		var cores []*pe.PE
		for w := range wave {
			job := jobs[wave[w].jobIdx]
			p := job.Params
			p.Agents = len(wave[w].agentIDs)
			if err := p.Validate(); err != nil {
				return nil, err
			}
			// Queue wait: how long past submission each placed agent was
			// still busy with earlier jobs (observability counter).
			hWait := a.cfg.Obs.Histograms().Get(obs.HistAccelJobWait)
			for _, id := range wave[w].agentIDs {
				wait := agents[id].freeAt - start
				if wait > 0 {
					a.queueWait += wait
				} else {
					wait = 0
				}
				hWait.Record(int64(wait))
			}
			runners, err := a.buildRunners(job.Kernel, p, wave[w].agentIDs, agents)
			if err != nil {
				return nil, err
			}
			wave[w].runners = runners
			for _, r := range runners {
				cores = append(cores, r.core)
			}
		}
		processed, recycled, err := runAll(cores)
		if err != nil {
			return nil, err
		}
		a.events += processed
		a.eventsRecycled += recycled

		// Collect per-job reports and release the agents.
		for w := range wave {
			rep, err := a.collectReport(wave[w].runners)
			if err != nil {
				return nil, err
			}
			results[wave[w].jobIdx] = &JobResult{
				Job:      jobs[wave[w].jobIdx],
				Report:   rep,
				AgentIDs: wave[w].agentIDs,
			}
			for i, id := range wave[w].agentIDs {
				agents[id].freeAt = wave[w].runners[i].finished
			}
		}
	}
	return results, nil
}

// placedJob is one job placed in the current dispatch wave.
type placedJob struct {
	jobIdx   int
	agentIDs []int
	runners  []*jobRunner
}

// usedSet returns the agent ids already claimed in the wave under
// construction.
func usedSet(wave []placedJob) map[int]bool {
	out := map[int]bool{}
	for _, p := range wave {
		for _, id := range p.agentIDs {
			out[id] = true
		}
	}
	return out
}

// soonestFree picks n unclaimed agents with the earliest free times.
func soonestFree(agents []agentState, n int, claimed map[int]bool) []int {
	type cand struct {
		id     int
		freeAt sim.Time
	}
	var cs []cand
	for _, ag := range agents {
		if !claimed[ag.id] {
			cs = append(cs, cand{ag.id, ag.freeAt})
		}
	}
	// Selection by repeated minimum keeps this dependency-free and the
	// agent counts are tiny.
	out := make([]int, 0, n)
	for len(out) < n && len(cs) > 0 {
		best := 0
		for i := 1; i < len(cs); i++ {
			if cs[i].freeAt < cs[best].freeAt ||
				(cs[i].freeAt == cs[best].freeAt && cs[i].id < cs[best].id) {
				best = i
			}
		}
		out = append(out, cs[best].id)
		cs = append(cs[:best], cs[best+1:]...)
	}
	return out
}

// jobRunner is one agent's execution context within a job.
type jobRunner struct {
	core     *pe.PE
	l1, l2   *cache.Cache
	finished sim.Time
}

// buildRunners creates the PEs, caches and streams for one job on the
// given physical agents, staggering PSC launches after each agent frees.
func (a *Accelerator) buildRunners(k workload.Kernel, p workload.Params, agentIDs []int, agents []agentState) ([]*jobRunner, error) {
	runners := make([]*jobRunner, 0, len(agentIDs))
	for i, id := range agentIDs {
		stream, err := workload.NewStream(k, p, i)
		if err != nil {
			return nil, err
		}
		l2cfg := a.cfg.L2
		l2cfg.Name = fmt.Sprintf("L2.a%d", id)
		l2cfg.Obs = a.cfg.Obs
		l2, err := cache.New(l2cfg, &mcuPath{a: a, port: id + 1})
		if err != nil {
			return nil, err
		}
		l1cfg := a.cfg.L1
		l1cfg.Name = fmt.Sprintf("L1.a%d", id)
		l1cfg.Obs = a.cfg.Obs
		l1, err := cache.New(l1cfg, l2)
		if err != nil {
			return nil, err
		}
		bootAt, err := a.psc.Boot(agents[id].freeAt, id, a.cfg.LaunchOverhead)
		if err != nil {
			return nil, err
		}
		core, err := pe.New(id, a.cfg.PE, l1, stream, bootAt)
		if err != nil {
			return nil, err
		}
		if a.cfg.SampleInterval > 0 {
			core.SampleIPC(a.cfg.SampleInterval)
		}
		if ss := a.cfg.Obs.Series(); ss != nil {
			core.ObserveSeries(ss.Get(obs.SeriesPEBusy), ss.Get(obs.SeriesPEStall))
		}
		runners = append(runners, &jobRunner{core: core, l1: l1, l2: l2})
	}
	return runners, nil
}

// collectReport flushes the runners' caches and assembles a Report.
func (a *Accelerator) collectReport(runners []*jobRunner) (*Report, error) {
	rep := &Report{Start: runners[0].core.Now()} // refined below
	var start sim.Time = 1<<62 - 1
	end := sim.Time(0)
	if a.cfg.SampleInterval > 0 {
		rep.IPC = stats.NewSeries(a.cfg.SampleInterval)
	}
	var hKernel, hFlush *obs.Histogram
	if hs := a.cfg.Obs.Histograms(); hs != nil {
		hKernel = hs.Get(obs.HistAccelKernel)
		hFlush = hs.Get(obs.HistAccelFlush)
	}
	for _, r := range runners {
		fin := r.core.Now()
		d, err := r.l1.Flush(fin)
		if err != nil {
			return nil, err
		}
		if d, err = r.l2.Flush(d); err != nil {
			return nil, err
		}
		r.finished = d
		hKernel.Record(int64(r.core.ComputeTime() + r.core.StallTime()))
		hFlush.Record(int64(d - fin))
		if err := a.psc.Sleep(d, r.core.ID); err != nil {
			return nil, err
		}
		run := AgentRun{
			Instructions: r.core.Instructions(),
			Compute:      r.core.ComputeTime(),
			Stall:        r.core.StallTime(),
			Finished:     d,
			L1:           r.l1.Stats(),
			L2:           r.l2.Stats(),
		}
		rep.Agents = append(rep.Agents, run)
		rep.Instrs += run.Instructions
		rep.Compute += run.Compute
		rep.Stall += run.Stall
		if rep.IPC != nil {
			if ipc := r.core.IPCSeries(); ipc != nil {
				for b := 0; b < ipc.Len(); b++ {
					rep.IPC.Accumulate(ipc.BucketStart(b), ipc.At(b))
				}
			}
		}
		fullStart := r.core.Now() - r.core.ComputeTime() - r.core.StallTime()
		if fullStart < start {
			start = fullStart
		}
		// Stats are snapshotted; recycle the line storage.
		r.l1.Release()
		r.l2.Release()
		end = sim.Max(end, d)
	}
	rep.Start = start
	rep.End = end
	return rep, nil
}
