package system

import (
	"dramless/internal/accel"
	"dramless/internal/energy"
	"dramless/internal/flash"
	"dramless/internal/lpddr"
	"dramless/internal/memctrl"
	"dramless/internal/pe"
	"dramless/internal/pram"
	"dramless/internal/sim"
	"dramless/internal/ssd"
)

// snapshot freezes the cumulative counters of every component so the
// measured run can be separated from the untimed setup phase.
type snapshot struct {
	extArr, intArr     flash.Stats
	extFW, intFW       sim.Duration
	extDRAMBytes       int64
	intDRAMBytes       int64
	subStats           pram.Stats
	wrapFW             sim.Duration
	hostBusy           sim.Duration
	hostCopied         int64
	accLinkB, ssdLinkB int64
	norRdB, norWrB     int64
	dramIn, dramOut    int64

	// Blame-weight baselines: the always-on exclusive service-time
	// accounts each component accumulates in simulated picoseconds
	// (blame.go, DESIGN.md §15). Phase deltas between successive
	// snapshots are the apportionment weights.
	extStats, intStats       ssd.Stats
	chPS                     []memctrl.Stats
	wearMovePS               int64
	accLinkBusy, ssdLinkBusy sim.Duration
	queueWait                sim.Duration
}

func (b *build) snapshot() snapshot {
	var s snapshot
	if b.extSSD != nil {
		s.extArr = b.extSSD.ArrayStats()
		s.extFW = b.extSSD.FirmwareBusy()
		s.extDRAMBytes = b.extSSD.DRAMBytes()
		s.extStats = b.extSSD.Stats()
	}
	if b.intSSD != nil {
		s.intArr = b.intSSD.ArrayStats()
		s.intFW = b.intSSD.FirmwareBusy()
		s.intDRAMBytes = b.intSSD.DRAMBytes()
		s.intStats = b.intSSD.Stats()
	}
	if b.sub != nil {
		s.subStats = b.sub.ModuleStats()
		s.chPS = b.sub.ChannelStats()
		s.wearMovePS = b.sub.WearStats().GapMovePS
	}
	s.accLinkBusy = b.accLink.BusyTime()
	s.ssdLinkBusy = b.ssdLink.BusyTime()
	s.queueWait = b.acc.QueueWait()
	if b.fwWrap != nil {
		s.wrapFW = b.fwWrap.Firmware().BusyTime()
	}
	s.hostBusy = b.host.CPUBusy()
	s.hostCopied = b.host.BytesCopied()
	_, s.accLinkB = b.accLink.Stats()
	_, s.ssdLinkB = b.ssdLink.Stats()
	if b.nor != nil {
		_, _, s.norRdB, s.norWrB = b.nor.Traffic()
	}
	if b.dram != nil {
		_, _, s.dramIn, s.dramOut = b.dram.Traffic()
	}
	return s
}

// flashEnergy prices an array-stat delta with the medium-appropriate
// per-op energies: flash ops for NAND, PRAM unit ops for chunked PRAM
// media.
func flashEnergy(par energy.Params, prof flash.Profile, d flash.Stats) float64 {
	if prof.ChunkBytes > 0 {
		chunks := float64((prof.PageBytes + prof.ChunkBytes - 1) / prof.ChunkBytes)
		return float64(d.PageReads)*chunks*par.PRAMActivateJ +
			float64(d.PagePrograms)*chunks*par.PRAMOverwriteJ +
			float64(d.BlockErases)*par.PRAMEraseJ
	}
	return float64(d.PageReads)*par.FlashReadPageJ +
		float64(d.PagePrograms)*par.FlashProgramPageJ +
		float64(d.BlockErases)*par.FlashEraseBlockJ
}

func flashDelta(now, was flash.Stats) flash.Stats {
	return flash.Stats{
		PageReads:    now.PageReads - was.PageReads,
		PagePrograms: now.PagePrograms - was.PagePrograms,
		BlockErases:  now.BlockErases - was.BlockErases,
		BytesMoved:   now.BytesMoved - was.BytesMoved,
	}
}

// pramEnergy prices a module-stat delta.
func pramEnergy(par energy.Params, d pram.Stats) float64 {
	return float64(d.Activates)*par.PRAMActivateJ +
		float64(d.ReadBursts+d.WriteBursts)*par.PRAMBurstJ +
		float64(d.ProgramsBy[lpddr.CellFresh]+d.ProgramsBy[lpddr.CellErased])*par.PRAMProgramJ +
		float64(d.ProgramsBy[lpddr.CellProgrammed])*par.PRAMOverwriteJ +
		float64(d.Erases)*par.PRAMEraseJ
}

// accountEnergy builds the Figure 17 energy decomposition (and, when
// sampling is enabled, the Figure 20/21 power series) for one run.
func (b *build) accountEnergy(snap snapshot, rep *accel.Report, runStart, loadEnd, kernelEnd, storeEnd sim.Time) *energy.Account {
	par := b.cfg.Energy
	acct := new(energy.Account)
	shift := runStart // series buckets are relative to the run start
	if b.cfg.SampleInterval > 0 {
		acct.EnableSeries(b.cfg.SampleInterval)
	}
	span := func(comp string, joules float64, t0, t1 sim.Time) {
		if joules == 0 {
			return
		}
		if t1 <= t0 {
			t1 = t0 + 1
		}
		acct.AddSpan(comp, joules, t0-shift, t1-shift)
	}

	total := storeEnd - runStart

	// Host CPU and host DRAM copies.
	span(energy.CompHost, snapDurJ(b.host.CPUBusy()-snap.hostBusy, par.HostActiveWatts), runStart, storeEnd)
	copied := b.host.BytesCopied()
	span(energy.CompHostDRAM, float64(copied-snap.hostCopied)*par.DRAMPerByteJ, runStart, loadEnd)

	// PCIe links.
	_, accB := b.accLink.Stats()
	_, ssdB := b.ssdLink.Stats()
	span(energy.CompPCIe,
		float64(accB-snap.accLinkB+ssdB-snap.ssdLinkB)*par.PCIePerByteJ, runStart, storeEnd)

	// External SSD (media + firmware + its internal DRAM traffic).
	if b.extSSD != nil {
		d := flashDelta(b.extSSD.ArrayStats(), snap.extArr)
		j := flashEnergy(par, b.extSSD.Config().Media, d)
		j += (b.extSSD.FirmwareBusy() - snap.extFW).Seconds() * par.FirmwareWatts
		j += float64(b.extSSD.DRAMBytes()-snap.extDRAMBytes) * par.DRAMPerByteJ
		j += total.Seconds() * par.DRAMBackgroundWGB * float64(b.extSSD.Config().BufferBytes) / float64(1<<30)
		span(energy.CompSSD, j, runStart, storeEnd)
	}

	// Integrated storage backend.
	if b.intSSD != nil {
		d := flashDelta(b.intSSD.ArrayStats(), snap.intArr)
		j := flashEnergy(par, b.intSSD.Config().Media, d)
		j += (b.intSSD.FirmwareBusy() - snap.intFW).Seconds() * par.FirmwareWatts
		span(energy.CompFlash, j, loadEnd, kernelEnd)
		dj := float64(b.intSSD.DRAMBytes()-snap.intDRAMBytes) * par.DRAMPerByteJ
		dj += total.Seconds() * par.DRAMBackgroundWGB * float64(b.intSSD.Config().BufferBytes) / float64(1<<30)
		span(energy.CompDRAM, dj, runStart, storeEnd)
	}

	// PRAM subsystem.
	if b.sub != nil {
		d := b.sub.ModuleStats()
		d.Add(snap.subStats, -1)
		span(energy.CompPRAM, pramEnergy(par, d), loadEnd, kernelEnd)
	}
	if b.fwWrap != nil {
		j := (b.fwWrap.Firmware().BusyTime() - snap.wrapFW).Seconds() * par.FirmwareWatts
		span(energy.CompFirmware, j, loadEnd, kernelEnd)
	}

	// NOR-interface PRAM: price per 32 B unit.
	if b.nor != nil {
		_, _, rdB, wrB := b.nor.Traffic()
		j := float64(rdB-snap.norRdB)/32*(par.PRAMActivateJ+par.PRAMBurstJ) +
			float64(wrB-snap.norWrB)/32*par.PRAMOverwriteJ
		span(energy.CompPRAM, j, loadEnd, kernelEnd)
	}

	// Accelerator-internal DRAM (hetero / ideal).
	if b.dram != nil {
		_, _, in, out := b.dram.Traffic()
		j := float64(in-snap.dramIn+out-snap.dramOut) * par.DRAMPerByteJ
		j += total.Seconds() * par.DRAMBackgroundWGB // 1 GB buffer
		span(energy.CompDRAM, j, runStart, storeEnd)
	}

	// PE cores: active spans at active power, the rest of the run idle.
	agents := len(rep.Agents)
	if b.cfg.SampleInterval > 0 {
		rep.EachSpan(func(s pe.Span) {
			acct.AddSpan(energy.CompCore,
				(s.T1-s.T0).Seconds()*(par.PEActiveWatts-par.PEIdleWatts),
				s.T0-shift, s.T1-shift)
		})
		// Baseline idle power of every PE (the +1 is the server).
		acct.AddPower(energy.CompCore, par.PEIdleWatts*float64(agents+1), 0, total)
	} else {
		j := rep.Compute.Seconds() * (par.PEActiveWatts - par.PEIdleWatts)
		j += total.Seconds() * par.PEIdleWatts * float64(agents+1)
		span(energy.CompCore, j, loadEnd, kernelEnd)
	}
	// The server PE actively manages traffic and scheduling.
	span(energy.CompCore, total.Seconds()*(par.PEActiveWatts-par.PEIdleWatts)*0.5, runStart, storeEnd)

	// On-chip data movement.
	var below int64
	for _, ag := range rep.Agents {
		below += ag.L1.BytesBelow + ag.L2.BytesBelow
	}
	span(energy.CompCache, float64(below)*par.CachePerByteJ, loadEnd, kernelEnd)

	return acct
}

func snapDurJ(d sim.Duration, watts float64) float64 {
	if d < 0 {
		d = 0
	}
	return d.Seconds() * watts
}
