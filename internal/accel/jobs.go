package accel

import (
	"fmt"

	"dramless/internal/obs"
	"dramless/internal/sim"
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

		// Launch every wave job's agents as they free, then interleave
		// all of their PEs.
		var all []runner
		for w := range wave {
			job := jobs[wave[w].jobIdx]
			ids := wave[w].agentIDs
			// Queue wait: how long past submission each placed agent was
			// still busy with earlier jobs (observability counter).
			hWait := a.cfg.Obs.Histograms().Get(obs.HistAccelJobWait)
			for _, id := range ids {
				wait := agents[id].freeAt - start
				if wait > 0 {
					a.queueWait += wait
				} else {
					wait = 0
				}
				hWait.Record(int64(wait))
			}
			runners, err := a.launch(job.Kernel, job.Params, ids, func(i int) sim.Time {
				return agents[ids[i]].freeAt
			})
			if err != nil {
				return nil, err
			}
			wave[w].runners = runners
			all = append(all, runners...)
		}
		processed, err := runAll(all)
		if err != nil {
			return nil, err
		}
		a.events += processed

		// Collect per-job reports and release the agents.
		for w := range wave {
			rep, err := a.collect(wave[w].runners)
			if err != nil {
				return nil, err
			}
			results[wave[w].jobIdx] = &JobResult{
				Job:      jobs[wave[w].jobIdx],
				Report:   rep,
				AgentIDs: wave[w].agentIDs,
			}
			for i, id := range wave[w].agentIDs {
				agents[id].freeAt = rep.Agents[i].Finished
			}
		}
	}
	return results, nil
}

// placedJob is one job placed in the current dispatch wave.
type placedJob struct {
	jobIdx   int
	agentIDs []int
	runners  []runner
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
