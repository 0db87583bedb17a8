// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (Section VI), plus ablation benches for the design
// choices DESIGN.md calls out. Each benchmark regenerates its experiment
// through the same engine the CLI uses, reports the headline quantities
// as custom metrics, and (with -v via b.Log) records the full rows.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// The experiments run at a reduced footprint (128 KiB). The ratios
// between systems are not scale-stable: DRAM-less wins Fig 15 on 16/16
// kernels up to 512 KiB, 12/16 at 1 MiB and 1/16 at 2 MiB, with a mean
// DRAM-less/Hetero factor of 3.73x at 128 KiB and 0.47x at 2 MiB.
// EXPERIMENTS.md records paper-vs-measured per figure and the scale
// table.
package dramless_test

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"dramless"
	"dramless/internal/cache"
	"dramless/internal/mem"
	"dramless/internal/sim"
)

// runExperiment drives one experiment per benchmark iteration and reports
// selected row values as metrics. Each iteration builds a fresh engine so
// the measured cost is a real regeneration, not a result-cache hit (the
// deprecated free-function Experiment now shares a process-wide cache).
func runExperiment(b *testing.B, id string, o dramless.ExperimentOptions, metrics func(*dramless.ExperimentTable, *testing.B)) {
	b.Helper()
	var tab *dramless.ExperimentTable
	var err error
	for i := 0; i < b.N; i++ {
		eng := dramless.NewExperimentEngine(o)
		tab, err = eng.Table(id)
		if err != nil {
			b.Fatal(err)
		}
	}
	var sb strings.Builder
	tab.Print(&sb)
	b.Log("\n" + sb.String())
	if metrics != nil {
		metrics(tab, b)
	}
}

// meanOf returns the mean of column key over the table rows.
func meanOf(tab *dramless.ExperimentTable, key string) float64 {
	var s float64
	n := 0
	for _, r := range tab.Rows {
		if v, ok := r.Values[key]; ok {
			s += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// fastOpts keeps the per-iteration cost of the heavyweight experiments
// reasonable while covering the full workload suite.
func fastOpts() dramless.ExperimentOptions { return dramless.FastExperiments() }

// ---- Full suite ----

// BenchmarkAllExperiments regenerates every table and figure through one
// shared engine, serial versus pool-parallel - the top-level numbers to
// track across PRs. Both variants share the same cross-experiment
// result cache, so the ratio isolates the worker pool; sims/cache-hits
// metrics expose the dedup itself, and events/sec is the dispatch
// throughput of the event kernel (total kernel-phase events over host
// wall-clock), which attributes suite speedups to the kernel rather than
// to caching.
//
// Worker counts are sized from the benchmark's visible GOMAXPROCS: a
// parallel pool wider than the host only adds scheduling overhead (the
// committed BENCH_suite.json once recorded "parallel" at two forced
// workers on a single-CPU runner losing to serial, 1.42s vs 1.28s). On
// such hosts the serial/parallel comparison is a no-op; that degenerate
// case is reported as a metric instead of failed, because the host -
// not the harness - decides the core count.
func BenchmarkAllExperiments(b *testing.B) {
	parallel := runtime.GOMAXPROCS(0)
	for _, bc := range []struct {
		name string
		par  int
	}{
		{"serial", 1},
		{"parallel", parallel},
	} {
		b.Run(bc.name, func(b *testing.B) {
			o := fastOpts()
			o.Parallelism = bc.par
			var st dramless.ExperimentRunStats
			var events int64
			for i := 0; i < b.N; i++ {
				eng := dramless.NewExperimentEngine(o)
				tabs, err := eng.Tables()
				if err != nil {
					b.Fatal(err)
				}
				if len(tabs) != len(dramless.ExperimentIDs()) {
					b.Fatalf("got %d tables, want %d", len(tabs), len(dramless.ExperimentIDs()))
				}
				st = eng.Stats()
				events += eng.Events()
			}
			if st.Workers != bc.par {
				b.Fatalf("engine ran with %d workers, requested %d", st.Workers, bc.par)
			}
			if bc.name == "parallel" && runtime.GOMAXPROCS(0) < 2 {
				b.Logf("single-CPU host (GOMAXPROCS=%d): the serial/parallel comparison is a no-op", runtime.GOMAXPROCS(0))
				b.ReportMetric(1, "degenerate")
			}
			b.ReportMetric(float64(st.Runs), "sims")
			b.ReportMetric(float64(st.Hits), "cache-hits")
			b.ReportMetric(float64(st.Workers), "workers")
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(events)/sec, "events/sec")
			}
		})
	}
}

// ---- Figures ----

func BenchmarkFig01_MotivationIdealVsReal(b *testing.B) {
	runExperiment(b, "fig01", fastOpts(), func(t *dramless.ExperimentTable, b *testing.B) {
		b.ReportMetric(meanOf(t, "norm-perf"), "norm-perf")
		b.ReportMetric(meanOf(t, "norm-energy"), "norm-energy-x")
	})
}

func BenchmarkFig07_FirmwareVsOracle(b *testing.B) {
	runExperiment(b, "fig07", fastOpts(), func(t *dramless.ExperimentTable, b *testing.B) {
		b.ReportMetric(meanOf(t, "degradation")*100, "degradation-%")
	})
}

func BenchmarkFig12_InterleavingOverlap(b *testing.B) {
	runExperiment(b, "fig12", fastOpts(), func(t *dramless.ExperimentTable, b *testing.B) {
		b.ReportMetric(meanOf(t, "hidden-frac")*100, "hidden-%")
	})
}

func BenchmarkFig13_SchedulerBandwidth(b *testing.B) {
	o := fastOpts()
	o.Scale = 1 << 20 // eviction pressure makes the overwrite path visible
	runExperiment(b, "fig13", o, func(t *dramless.ExperimentTable, b *testing.B) {
		b.ReportMetric((meanOf(t, "Interleaving")-1)*100, "interleave-gain-%")
		b.ReportMetric((meanOf(t, "Selective-erasing")-1)*100, "selerase-gain-%")
		b.ReportMetric((meanOf(t, "Final")-1)*100, "final-gain-%")
	})
}

func BenchmarkFig15_Throughput(b *testing.B) {
	runExperiment(b, "fig15", fastOpts(), func(t *dramless.ExperimentTable, b *testing.B) {
		b.ReportMetric(meanOf(t, "DRAM-less"), "dramless-vs-hetero-x")
		b.ReportMetric(meanOf(t, "Heterodirect"), "heterodirect-x")
		b.ReportMetric(meanOf(t, "PAGE-buffer"), "pagebuffer-x")
	})
}

func BenchmarkFig16_ExecTimeBreakdown(b *testing.B) {
	runExperiment(b, "fig16", fastOpts(), nil)
}

func BenchmarkFig17_EnergyBreakdown(b *testing.B) {
	runExperiment(b, "fig17", fastOpts(), func(t *dramless.ExperimentTable, b *testing.B) {
		for _, r := range t.Rows {
			if r.Label == "DRAM-less" {
				b.ReportMetric(r.Values["norm-total"]*100, "dramless-energy-%of-hetero")
			}
		}
	})
}

func BenchmarkFig18_IPCTimeSeriesGemver(b *testing.B) {
	runExperiment(b, "fig18", fastOpts(), func(t *dramless.ExperimentTable, b *testing.B) {
		for _, r := range t.Rows {
			if r.Label == "DRAM-less" {
				b.ReportMetric(r.Values["mean-ipc"], "dramless-ipc")
			}
		}
	})
}

func BenchmarkFig19_IPCTimeSeriesDoitgen(b *testing.B) {
	runExperiment(b, "fig19", fastOpts(), func(t *dramless.ExperimentTable, b *testing.B) {
		for _, r := range t.Rows {
			if r.Label == "DRAM-less" {
				b.ReportMetric(r.Values["mean-ipc"], "dramless-ipc")
			}
		}
	})
}

func BenchmarkFig20_PowerEnergyGemver(b *testing.B) {
	runExperiment(b, "fig20", fastOpts(), func(t *dramless.ExperimentTable, b *testing.B) {
		for _, r := range t.Rows {
			if r.Label == "DRAM-less" {
				b.ReportMetric(r.Values["total-energy-uj"], "dramless-uJ")
			}
		}
	})
}

func BenchmarkFig21_PowerEnergyDoitgen(b *testing.B) {
	runExperiment(b, "fig21", fastOpts(), func(t *dramless.ExperimentTable, b *testing.B) {
		for _, r := range t.Rows {
			if r.Label == "DRAM-less" {
				b.ReportMetric(r.Values["completion-us"], "dramless-us")
			}
		}
	})
}

// ---- Tables ----

func BenchmarkTable1_Catalog(b *testing.B) {
	runExperiment(b, "table1", fastOpts(), nil)
}

func BenchmarkTable2_PRAMParams(b *testing.B) {
	runExperiment(b, "table2", fastOpts(), nil)
}

func BenchmarkTable3_WorkloadCharacteristics(b *testing.B) {
	runExperiment(b, "table3", fastOpts(), func(t *dramless.ExperimentTable, b *testing.B) {
		b.ReportMetric(float64(len(t.Rows)), "kernels")
	})
}

// ---- Section V claims ----

func BenchmarkSec5_InterleaveHiding(b *testing.B) {
	runExperiment(b, "sec5-interleave", fastOpts(), func(t *dramless.ExperimentTable, b *testing.B) {
		b.ReportMetric(meanOf(t, "hidden-frac")*100, "hidden-%")
	})
}

func BenchmarkSec5_SelectiveErase(b *testing.B) {
	runExperiment(b, "sec5-selerase", fastOpts(), func(t *dramless.ExperimentTable, b *testing.B) {
		b.ReportMetric(meanOf(t, "reduction")*100, "reduction-%")
	})
}

// ---- Microbenchmarks of the subsystem itself ----
//
// Layer microbenchmarks time host work per layer. One op is a sweep of
// many accesses over warm state, so an op times hundreds of
// microseconds or more rather than a handful of sub-microsecond calls;
// ns/access (or ns/row) gives the per-access cost.

// pramSweepRows is the row count of one PRAM microbenchmark op.
const pramSweepRows = 1024

func BenchmarkPRAMReadRow(b *testing.B) {
	pram, now, err := dramless.NewPRAM(dramless.WithCapacityRows(1 << 16))
	if err != nil {
		b.Fatal(err)
	}
	sweep := func() {
		for r := uint64(0); r < pramSweepRows; r++ {
			_, done, err := pram.Read(now, r*32, 32)
			if err != nil {
				b.Fatal(err)
			}
			now = done
		}
	}
	sweep() // warm: materializes the rows' storage
	start := now
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep()
	}
	rows := float64(b.N) * pramSweepRows
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rows, "ns/row")
	b.ReportMetric(float64(now-start)/rows, "sim-ps/row")
}

func BenchmarkPRAMWriteRow(b *testing.B) {
	pram, now, err := dramless.NewPRAM(dramless.WithCapacityRows(1 << 16))
	if err != nil {
		b.Fatal(err)
	}
	buf := bytes.Repeat([]byte{0x3C}, 32)
	sweep := func() {
		for r := uint64(0); r < pramSweepRows; r++ {
			done, err := pram.Write(now, r*32, buf)
			if err != nil {
				b.Fatal(err)
			}
			now = done
		}
	}
	sweep() // warm: every timed write is an overwrite
	start := now
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep()
	}
	rows := float64(b.N) * pramSweepRows
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rows, "ns/row")
	b.ReportMetric(float64(now-start)/rows, "sim-ps/row")
}

// benchCaches builds the paper's per-PE L1 -> L2 stack over a flat
// memory of size bytes (100 ns, 1 GB/s).
func benchCaches(b *testing.B, size uint64) (l1, l2 *cache.Cache) {
	b.Helper()
	lower := mem.NewFlat("lower", size, sim.Nanoseconds(100), 1e9)
	l2, err := cache.New(cache.L2(), lower)
	if err != nil {
		b.Fatal(err)
	}
	if l1, err = cache.New(cache.L1Data(), l2); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { l1.Release(); l2.Release() })
	return l1, l2
}

// BenchmarkCacheMissFill times stores that miss both cache levels. One
// op is 8 B writes at an L2-line stride over 8x the L2 (32 Ki stores);
// the region is warm and dirty, so every store evicts a dirty L1 line
// into the L2, a dirty L2 line to memory, and fills both levels.
func BenchmarkCacheMissFill(b *testing.B) {
	const region, stride = 8 * 512 << 10, 128
	l1, _ := benchCaches(b, region)
	buf := bytes.Repeat([]byte{0xA5}, 8)
	var now sim.Time
	sweep := func() {
		for a := uint64(0); a < region; a += stride {
			done, err := l1.Write(now, a, buf)
			if err != nil {
				b.Fatal(err)
			}
			now = done
		}
	}
	sweep() // warm: every line resident or written back dirty
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*region/stride), "ns/access")
}

// BenchmarkCacheHitRun times the PE's batched load path on resident
// lines: one op is a ReadRun of 4096 sequential 8 B loads over 32 KiB
// already in the L1.
func BenchmarkCacheHitRun(b *testing.B) {
	const span = 32 << 10
	l1, _ := benchCaches(b, 1<<20)
	run := mem.Run{Stride: 8, Size: 8, Count: span / 8, Gap: sim.Nanoseconds(1), Issue: sim.Nanoseconds(1)}
	dst := make([]byte, 8)
	now, err := l1.ReadInto(0, 0, make([]byte, span)) // warm: fills the span
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := l1.ReadRun(now, run, dst)
		if err != nil || res.Done != run.Count {
			b.Fatalf("ReadRun stopped after %d of %d loads: %v", res.Done, run.Count, err)
		}
		now = res.Now
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(run.Count)), "ns/access")
}

// ---- Ablations (DESIGN.md section 5) ----

// ablationRun measures a 64 KiB streaming read under a PRAM option set.
func ablationRun(b *testing.B, opts ...dramless.PRAMOption) float64 {
	b.Helper()
	opts = append(opts, dramless.WithCapacityRows(1<<16))
	pram, ready, err := dramless.NewPRAM(opts...)
	if err != nil {
		b.Fatal(err)
	}
	now := ready
	for off := uint64(0); off < 64<<10; off += 1024 {
		_, done, err := pram.Read(now, off, 1024)
		if err != nil {
			b.Fatal(err)
		}
		now = done
	}
	return float64(now - ready)
}

func BenchmarkAblation_PhaseSkipping(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = ablationRun(b)
		without = ablationRun(b, dramless.WithoutPhaseSkipping())
	}
	b.ReportMetric((without/with-1)*100, "skip-benefit-%")
}

func BenchmarkAblation_Prefetch(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = ablationRun(b)
		without = ablationRun(b, dramless.WithoutPrefetch())
	}
	b.ReportMetric((without/with-1)*100, "prefetch-benefit-%")
}

func BenchmarkAblation_Scheduler(b *testing.B) {
	var base, inter, final float64
	for i := 0; i < b.N; i++ {
		base = ablationRun(b, dramless.WithPolicy(dramless.BareMetal))
		inter = ablationRun(b, dramless.WithPolicy(dramless.Interleaving))
		final = ablationRun(b, dramless.WithPolicy(dramless.Final))
	}
	b.ReportMetric((base/inter-1)*100, "interleave-benefit-%")
	b.ReportMetric((base/final-1)*100, "final-benefit-%")
}

// BenchmarkAblation_DSPIntrinsics quantifies the paper's kernel
// optimization ("embedding DSP intrinsic ... into the benchmark"):
// end-to-end DRAM-less runtime with and without the intrinsics.
func BenchmarkAblation_DSPIntrinsics(b *testing.B) {
	w, err := dramless.WorkloadByName("fdtdap") // compute-intensive: the intrinsics matter most
	if err != nil {
		b.Fatal(err)
	}
	var with, without float64
	for i := 0; i < b.N; i++ {
		for _, dsp := range []bool{true, false} {
			cfg := dramless.NewSystemConfig(dramless.DRAMLess)
			cfg.Scale = 128 << 10
			cfg.Accel.PE.DSPIntrinsics = dsp
			res, err := dramless.RunSystem(cfg, w)
			if err != nil {
				b.Fatal(err)
			}
			if dsp {
				with = res.Total.Seconds()
			} else {
				without = res.Total.Seconds()
			}
		}
	}
	b.ReportMetric((without/with-1)*100, "intrinsics-speedup-%")
}

// BenchmarkAblation_StartGapWearLeveling measures the bandwidth cost of
// the Section VII start-gap extension and the wear spreading it buys on a
// write-hot stream.
func BenchmarkAblation_StartGapWearLeveling(b *testing.B) {
	hammer := func(opts ...dramless.PRAMOption) (float64, dramless.WearStats) {
		opts = append(opts, dramless.WithCapacityRows(1<<16))
		pram, ready, err := dramless.NewPRAM(opts...)
		if err != nil {
			b.Fatal(err)
		}
		buf := bytes.Repeat([]byte{0x5A}, 32)
		now := ready
		for i := 0; i < 1000; i++ {
			d, err := pram.Write(now, uint64(i%8)*32, buf)
			if err != nil {
				b.Fatal(err)
			}
			now = d
		}
		return float64(pram.Drain() - ready), pram.WearStats()
	}
	var plainT, levT float64
	var lev dramless.WearStats
	for i := 0; i < b.N; i++ {
		plainT, _ = hammer()
		levT, lev = hammer(dramless.WithWearLeveling(10, 64))
	}
	b.ReportMetric((levT/plainT-1)*100, "leveling-cost-%")
	b.ReportMetric(float64(lev.MaxWear), "max-wear-writes")
	b.ReportMetric(float64(lev.GapMoves), "gap-moves")
}

// BenchmarkAblation_FirmwareCores sweeps the firmware core count of the
// DRAM-less (firmware) configuration to show the serialization bottleneck
// no core count removes (Figure 7's lesson).
func BenchmarkAblation_FirmwareCores(b *testing.B) {
	w, err := dramless.WorkloadByName("gemver")
	if err != nil {
		b.Fatal(err)
	}
	var r1, r8 float64
	for i := 0; i < b.N; i++ {
		for _, cores := range []int{1, 3, 8} {
			cfg := dramless.NewSystemConfig(dramless.DRAMLessFirmware)
			cfg.Scale = 96 << 10
			cfg.Firmware.Cores = cores
			res, err := dramless.RunSystem(cfg, w)
			if err != nil {
				b.Fatal(err)
			}
			switch cores {
			case 1:
				r1 = res.Total.Seconds()
			case 8:
				r8 = res.Total.Seconds()
			}
		}
		cfg := dramless.NewSystemConfig(dramless.DRAMLess)
		cfg.Scale = 96 << 10
		res, err := dramless.RunSystem(cfg, w)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r8/res.Total.Seconds(), "8core-fw-vs-hw-x")
	}
	b.ReportMetric(r1/r8, "1core-vs-8core-x")
}

// BenchmarkAblation_WritePausing compares the Related Work alternative
// (pause in-flight programs for reads) against the paper's bare-metal and
// Final schedulers on a mixed read/write stream: pausing recovers read
// latency but stretches programs, while interleaving + selective erasing
// wins without touching the writes.
func BenchmarkAblation_WritePausing(b *testing.B) {
	mixed := func(opts ...dramless.PRAMOption) (readLatency, programTime float64) {
		opts = append(opts, dramless.WithCapacityRows(1<<16), dramless.WithoutPrefetch())
		pram, ready, err := dramless.NewPRAM(opts...)
		if err != nil {
			b.Fatal(err)
		}
		buf := bytes.Repeat([]byte{0x6B}, 32)
		now := ready
		var reads int
		var readTotal float64
		// Each read targets the most recently written row, so it lands on
		// a partition whose program is still in flight.
		for i := 0; i < 400; i++ {
			if i%4 == 0 {
				d, err := pram.Write(now, uint64(i%32)*32, buf)
				if err != nil {
					b.Fatal(err)
				}
				now = d
				continue
			}
			start := now
			_, d, err := pram.Read(now, uint64(i/4*4%32)*32, 32)
			if err != nil {
				b.Fatal(err)
			}
			readTotal += float64(d - start)
			reads++
			now = d
		}
		return readTotal / float64(reads), float64(pram.ModuleStats().ProgramTime)
	}
	var base, paused, final float64
	var basePT, pausedPT float64
	for i := 0; i < b.N; i++ {
		base, basePT = mixed(dramless.WithPolicy(dramless.BareMetal))
		paused, pausedPT = mixed(dramless.WithPolicy(dramless.BareMetal), dramless.WithWritePausing())
		final, _ = mixed(dramless.WithPolicy(dramless.Final))
	}
	// Pausing preempts: reads get dramatically faster, but every pause
	// re-pays program iterations (cumulative array program time grows).
	b.ReportMetric((base/paused-1)*100, "pause-read-gain-%")
	b.ReportMetric((pausedPT/basePT-1)*100, "pause-program-stretch-%")
	// Interleaving alone does not preempt programs - its read gain on
	// this collision pattern is ~0; the paper attacks writes with
	// selective erasing and posted program buffers instead.
	b.ReportMetric((base/final-1)*100, "interleave-read-gain-%")
}
