package system

import (
	"fmt"

	"dramless/internal/accel"
	"dramless/internal/obs"
	"dramless/internal/sim"
)

// Critical-path blame attribution (DESIGN.md §15). Every run carries an
// exact hierarchical account of its simulated time: each phase wall is
// apportioned — exactly, in integer picoseconds — over the exclusive
// service-time weights the components accumulated during that phase
// (always-on raw accumulators recorded at the same sites as the latency
// histograms). The invariant, checked by blame_test.go per system kind:
//
//	Sum("<phase>/") == phase wall, to the picosecond.
//
// Weights overlap in simulated time (a wear gap-move copy also runs
// through the channel read/write paths; host CPU overlaps PCIe wire
// occupancy), so shares are proportional attributions of the wall, not
// disjoint wall segments — exactness is the conservation law, overlap
// the acknowledged approximation. When a phase has no weights at all its
// wall lands on "<phase>/unattributed".

// blameWeight is one exclusive cause account with its raw weight in
// picoseconds of simulated component time.
type blameWeight struct {
	name string
	ps   int64
}

// memOutcomeNames orders the per-channel read-outcome accounts by the
// channel's outcome index (memctrl.ReadOut*).
var memOutcomeNames = [4]string{"full_read", "rdb_hit", "rab_hit", "paused_read"}

// deviceWeights collects the device-time deltas between two snapshots in
// fixed code order, skipping zero causes — the simulation is
// deterministic, so every worker count and the checkpoint-forked path
// build the identical list.
func deviceWeights(s0, s1 *snapshot) []blameWeight {
	var ws []blameWeight
	add := func(name string, ps int64) {
		if ps > 0 {
			ws = append(ws, blameWeight{name, ps})
		}
	}
	add("host/cpu", int64(s1.hostBusy-s0.hostBusy))
	add("pcie.accel/dma", int64(s1.accLinkBusy-s0.accLinkBusy))
	add("pcie.ssd/dma", int64(s1.ssdLinkBusy-s0.ssdLinkBusy))
	add("ssd.ext/read", s1.extStats.ReadPS-s0.extStats.ReadPS)
	add("ssd.ext/write", s1.extStats.WritePS-s0.extStats.WritePS)
	add("ssd.ext/ftl_program", s1.extStats.ProgramPS-s0.extStats.ProgramPS)
	add("ssd.int/read", s1.intStats.ReadPS-s0.intStats.ReadPS)
	add("ssd.int/write", s1.intStats.WritePS-s0.intStats.WritePS)
	add("ssd.int/ftl_program", s1.intStats.ProgramPS-s0.intStats.ProgramPS)
	for i := range s1.chPS {
		d := s1.chPS[i]
		d.Add(s0.chPS[i], -1) // same build, same channel count
		p := fmt.Sprintf("memctrl.ch%d/", i)
		for out, name := range memOutcomeNames {
			add(p+name, d.ReadPS[out])
		}
		add(p+"write_full", d.WriteFullPS)
		add(p+"write_rmw", d.WriteRMWPS)
	}
	add("memctrl.wear/gap_move", s1.wearMovePS-s0.wearMovePS)
	return ws
}

// apportionInto splits wall exactly over ws (largest-remainder,
// deterministic ties) and records the shares under prefix; with no
// weights the whole wall lands on prefix+fallback. Zero shares are
// skipped so the registration order is reproducible across runs whose
// small causes round away identically.
func apportionInto(bl *obs.Blame, prefix string, wall int64, ws []blameWeight, fallback string) {
	if wall <= 0 {
		return
	}
	if len(ws) == 0 {
		bl.Add(prefix+fallback, wall)
		return
	}
	weights := make([]int64, len(ws))
	for i := range ws {
		weights[i] = ws[i].ps
	}
	shares := obs.Apportion(wall, weights)
	for i := range ws {
		if shares[i] != 0 {
			bl.Add(prefix+ws[i].name, shares[i])
		}
	}
}

// accountBlame assembles the run's blame account from the phase walls,
// the kernel report and the four phase-boundary snapshots.
func (b *build) accountBlame(rep *accel.Report, runSnap, loadSnap, kernSnap, storeSnap *snapshot, runStart, loadEnd, kernelEnd, storeEnd sim.Time) *obs.Blame {
	bl := obs.NewBlame()
	apportionInto(bl, "load/", int64(loadEnd-runStart), deviceWeights(runSnap, loadSnap), "unattributed")
	b.blameKernel(bl, int64(kernelEnd-loadEnd), rep, loadSnap, kernSnap)
	apportionInto(bl, "store/", int64(storeEnd-kernelEnd), deviceWeights(kernSnap, storeSnap), "unattributed")
	// Cache miss time is inclusive of the lower levels it waited on, so
	// it cannot join the exclusive scaled tree without double counting;
	// it is reported raw instead (unscaled component picoseconds).
	var l1m, l2m int64
	for i := range rep.Agents {
		l1m += rep.Agents[i].L1.MissPS
		l2m += rep.Agents[i].L2.MissPS
	}
	if l1m > 0 {
		bl.Add("raw/cache.l1/miss", l1m)
	}
	if l2m > 0 {
		bl.Add("raw/cache.l2/miss", l2m)
	}
	return bl
}

// blameKernel splits the kernel wall two levels deep: first over the
// agents' aggregate compute vs memory-stall time (plus job-queue wait
// where the RunJobs scheduler contributed any), then the stall share
// over the memory-side causes — cache hit service time per level plus
// the backend device deltas over the kernel phase. A kernel whose stall
// has no recorded memory cause keeps it on kernel/pe/stall.
func (b *build) blameKernel(bl *obs.Blame, wall int64, rep *accel.Report, s0, s1 *snapshot) {
	if wall <= 0 {
		return
	}
	comp, stall := int64(rep.Compute), int64(rep.Stall)
	qw := int64(s1.queueWait - s0.queueWait)
	if qw < 0 {
		qw = 0
	}
	if comp+stall+qw <= 0 {
		bl.Add("kernel/unattributed", wall)
		return
	}
	shares := obs.Apportion(wall, []int64{comp, stall, qw})
	if shares[0] != 0 {
		bl.Add("kernel/pe/compute", shares[0])
	}
	if shares[1] != 0 {
		var ws []blameWeight
		var l1, l2 int64
		for i := range rep.Agents {
			l1 += rep.Agents[i].L1.HitPS
			l2 += rep.Agents[i].L2.HitPS
		}
		if l1 > 0 {
			ws = append(ws, blameWeight{"cache.l1/hit", l1})
		}
		if l2 > 0 {
			ws = append(ws, blameWeight{"cache.l2/hit", l2})
		}
		ws = append(ws, deviceWeights(s0, s1)...)
		apportionInto(bl, "kernel/", shares[1], ws, "pe/stall")
	}
	if shares[2] != 0 {
		bl.Add("kernel/accel/job_queue_wait", shares[2])
	}
}
