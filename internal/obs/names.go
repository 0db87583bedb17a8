package obs

import "strings"

// Instrument name catalog. Every counter, histogram and series name the
// simulator emits is declared here (with per-instance indices
// normalized: ch0/ch1 -> chN, pe0..pe7 -> peN), and a test in
// internal/system asserts the live registries stay inside the catalog —
// a typo'd key registers as drift instead of silently forking a new
// instrument.

// Histogram instruments (_ps suffix: picosecond samples).
const (
	// memctrl per-access service latency, split by direction and
	// outcome: RDB hit (both addressing phases skipped), RAB hit
	// (pre-active skipped), full three-phase access, and reads that
	// paused an in-flight program (write pausing).
	HistMemReadRDBHit = "memctrl.read.rdb_hit_ps"
	HistMemReadRABHit = "memctrl.read.rab_hit_ps"
	HistMemReadFull   = "memctrl.read.full_ps"
	HistMemReadPaused = "memctrl.read.paused_ps"
	HistMemWriteFull  = "memctrl.write.full_row_ps"
	HistMemWriteRMW   = "memctrl.write.rmw_ps"

	// Cache hit/miss service latency per level.
	HistCacheL1Hit  = "cache.l1.hit_ps"
	HistCacheL1Miss = "cache.l1.miss_ps"
	HistCacheL2Hit  = "cache.l2.hit_ps"
	HistCacheL2Miss = "cache.l2.miss_ps"

	// Accelerator: per-agent kernel runtime (compute+stall), cache
	// flush time, and job-queue wait under the RunJobs scheduler.
	HistAccelKernel  = "accel.kernel_ps"
	HistAccelFlush   = "accel.flush_ps"
	HistAccelJobWait = "accel.job_wait_ps"

	// SSD request service latency and FTL page-program latency.
	HistSSDRead       = "ssd.read_ps"
	HistSSDWrite      = "ssd.write_ps"
	HistSSDFTLProgram = "ssd.ftl.program_ps"

	// End-to-end phase walls, one sample per system run.
	HistSystemLoad   = "system.load_ps"
	HistSystemKernel = "system.kernel_ps"
	HistSystemStore  = "system.store_ps"
)

// Series instruments (per-simulated-time-window accumulations).
const (
	// Bandwidth in/out of the PRAM subsystem (bytes per window, stamped
	// at access completion).
	SeriesMemBytesRead    = "memctrl.bytes_read"
	SeriesMemBytesWritten = "memctrl.bytes_written"
	// Read-outcome counts per window; rdb_hits/reads is the windowed
	// RDB hit rate.
	SeriesMemReads   = "memctrl.reads"
	SeriesMemRDBHits = "memctrl.rdb_hits"
	SeriesMemRABHits = "memctrl.rab_hits"
	// Picoseconds of program stretch injected by write pausing.
	SeriesMemWritePause = "memctrl.write_pause_ps"
	// Aggregate PE busy (compute) and memory-stall picoseconds per
	// window; busy/(busy+stall) is the windowed busy fraction.
	SeriesPEBusy  = "accel.pe_busy_ps"
	SeriesPEStall = "accel.pe_stall_ps"

	// Sampled float series (system.Config.SampleInterval), kept in the
	// run's report rather than the Observer: instructions retired per
	// window (the Figure 18/19 IPC) and joules per window (the Figure
	// 20/21 power).
	SeriesAccelInstrs = "accel.instructions"
	SeriesEnergy      = "energy.joules"
)

// catalog holds every legal normalized instrument name.
var catalog = map[string]bool{}

func catalogAll(names ...string) {
	for _, n := range names {
		catalog[n] = true
	}
}

func init() {
	// Histograms and series.
	catalogAll(
		HistMemReadRDBHit, HistMemReadRABHit, HistMemReadFull, HistMemReadPaused,
		HistMemWriteFull, HistMemWriteRMW,
		HistCacheL1Hit, HistCacheL1Miss, HistCacheL2Hit, HistCacheL2Miss,
		HistAccelKernel, HistAccelFlush, HistAccelJobWait,
		HistSSDRead, HistSSDWrite, HistSSDFTLProgram,
		HistSystemLoad, HistSystemKernel, HistSystemStore,
		SeriesMemBytesRead, SeriesMemBytesWritten,
		SeriesMemReads, SeriesMemRDBHits, SeriesMemRABHits, SeriesMemWritePause,
		SeriesPEBusy, SeriesPEStall, SeriesAccelInstrs, SeriesEnergy,
	)
	// Counter registry names (DESIGN.md §9 catalog), normalized.
	catalogAll(
		"memctrl.chN.reads", "memctrl.chN.writes", "memctrl.chN.rab_hits",
		"memctrl.chN.rdb_hits", "memctrl.chN.full_accesses", "memctrl.chN.prefetches",
		"memctrl.chN.interleave_overlaps", "memctrl.chN.pre_erased_rows",
		"memctrl.chN.partition_overlap_won", "memctrl.chN.pause_preempted_reads",
		"memctrl.chN.bytes_read", "memctrl.chN.bytes_written",
		"memctrl.reads", "memctrl.writes", "memctrl.rab_hits", "memctrl.rdb_hits",
		"memctrl.full_accesses", "memctrl.prefetches", "memctrl.interleave_overlaps",
		"memctrl.pre_erased_rows", "memctrl.partition_overlap_won",
		"memctrl.pause_preempted_reads", "memctrl.bytes_read", "memctrl.bytes_written",
		"memctrl.rab_hit_rate", "memctrl.rdb_hit_rate", "memctrl.bus_busy_ps",
		"memctrl.wear.gap_moves", "memctrl.wear.max_wear",
		"pram.preactives", "pram.activates", "pram.window_activates",
		"pram.read_bursts", "pram.write_bursts", "pram.programs", "pram.erases",
		"pram.program_time_ps", "pram.write_pauses",
		"accel.peN.instructions", "accel.peN.busy_ps", "accel.peN.stall_ps",
		"accel.peN.l1.hits", "accel.peN.l1.misses", "accel.peN.l1.evictions",
		"accel.peN.l1.writebacks", "accel.peN.l1.bytes_below", "accel.peN.l1.hit_rate",
		"accel.peN.l2.hits", "accel.peN.l2.misses", "accel.peN.l2.evictions",
		"accel.peN.l2.writebacks", "accel.peN.l2.bytes_below", "accel.peN.l2.hit_rate",
		"accel.instructions", "accel.busy_ps", "accel.stall_ps",
		"accel.psc.boots", "accel.psc.transitions", "accel.job_queue_wait_ps",
		"accel.mcu_busy_ps", "accel.events_dispatched", "accel.events_recycled",
		"sim.events_dispatched", "sim.events_recycled",
		"pcie.accel.dmas", "pcie.accel.bytes", "pcie.accel.busy_ps",
		"pcie.ssd.dmas", "pcie.ssd.bytes", "pcie.ssd.busy_ps",
		"dram.reads", "dram.writes", "dram.bytes_read", "dram.bytes_written",
		"system.prefix_forks", "system.prefix_cold_runs",
	)
	for _, p := range []string{"ssd.ext.", "ssd.int."} {
		catalogAll(
			p+"reads", p+"writes", p+"buffer_hits", p+"buffer_misses",
			p+"fills", p+"flushes", p+"ftl.gc_runs", p+"ftl.gc_moves",
			p+"fw_requests", p+"fw_busy_ps", p+"dram_bytes",
		)
	}
	// Blame accounts (DESIGN.md §15): phase/component/cause. Every phase
	// can carry any device cause (the kernel's stall share is subdivided
	// over the same device list); the pe/cache/job-queue causes are
	// kernel-phase only, and raw/ holds unscaled component accounts that
	// cannot join the exclusive tree.
	for _, ph := range []string{"load/", "kernel/", "store/"} {
		catalogAll(
			ph+"unattributed", ph+"host/cpu",
			ph+"pcie.accel/dma", ph+"pcie.ssd/dma",
			ph+"ssd.ext/read", ph+"ssd.ext/write", ph+"ssd.ext/ftl_program",
			ph+"ssd.int/read", ph+"ssd.int/write", ph+"ssd.int/ftl_program",
			ph+"memctrl.chN/rdb_hit", ph+"memctrl.chN/rab_hit",
			ph+"memctrl.chN/full_read", ph+"memctrl.chN/paused_read",
			ph+"memctrl.chN/write_full", ph+"memctrl.chN/write_rmw",
			ph+"memctrl.wear/gap_move",
		)
	}
	catalogAll(
		"kernel/pe/compute", "kernel/pe/stall",
		"kernel/cache.l1/hit", "kernel/cache.l2/hit",
		"kernel/accel/job_queue_wait",
		"raw/cache.l1/miss", "raw/cache.l2/miss",
	)
}

// NormalizeName collapses per-instance indices in an instrument name:
// dotted segments of the form ch<digits> or pe<digits> become chN / peN,
// so one catalog entry covers every channel and PE. Blame account names
// nest components with "/" (phase/component/cause); each part is
// normalized independently.
func NormalizeName(name string) string {
	if strings.Contains(name, "/") {
		parts := strings.Split(name, "/")
		changed := false
		for i, p := range parts {
			if n := NormalizeName(p); n != p {
				parts[i] = n
				changed = true
			}
		}
		if !changed {
			return name
		}
		return strings.Join(parts, "/")
	}
	segs := strings.Split(name, ".")
	changed := false
	for i, s := range segs {
		for _, stem := range [...]string{"ch", "pe"} {
			if len(s) > len(stem) && strings.HasPrefix(s, stem) && allDigits(s[len(stem):]) {
				segs[i] = stem + "N"
				changed = true
			}
		}
	}
	if !changed {
		return name
	}
	return strings.Join(segs, ".")
}

func allDigits(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return len(s) > 0
}

// Cataloged reports whether name (after index normalization) is a
// declared instrument.
func Cataloged(name string) bool { return catalog[NormalizeName(name)] }
