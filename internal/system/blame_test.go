package system

import (
	"bytes"
	"reflect"
	"testing"

	"dramless/internal/obs"
	"dramless/internal/sim"
	"dramless/internal/workload"
)

// TestBlameSumsEqualPhaseWalls is the exactness oracle (DESIGN.md §15):
// for every Table I organization, each phase's blame accounts sum to
// that phase's wall to the picosecond, and the whole account to the
// total wall — integer conservation, not float approximation.
func TestBlameSumsEqualPhaseWalls(t *testing.T) {
	for _, kind := range Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			res, err := Run(testConfig(kind), workload.MustByName("gemver"))
			if err != nil {
				t.Fatal(err)
			}
			if res.Blame == nil || res.Blame.Len() == 0 {
				t.Fatal("Result.Blame must always be populated")
			}
			checks := []struct {
				prefix string
				wall   sim.Duration
			}{
				{"load/", res.Load},
				{"kernel/", res.Kernel},
				{"store/", res.Store},
			}
			for _, c := range checks {
				if got := res.Blame.Sum(c.prefix); got != int64(c.wall) {
					t.Errorf("%s blame sums to %d ps, wall is %d ps (off by %d)",
						c.prefix, got, int64(c.wall), got-int64(c.wall))
				}
			}
			scaled := res.Blame.Sum("load/") + res.Blame.Sum("kernel/") + res.Blame.Sum("store/")
			if scaled != int64(res.Total) {
				t.Errorf("scaled accounts sum to %d ps, total wall is %d ps", scaled, int64(res.Total))
			}
			for _, e := range res.Blame.Entries() {
				if e.PS < 0 {
					t.Errorf("account %s is negative: %d", e.Name, e.PS)
				}
			}
		})
	}
}

// TestBlameByteDeterministic pins the export contract: two runs of the
// same cell, the second on the storage pools the first released, produce
// byte-identical blame JSON.
func TestBlameByteDeterministic(t *testing.T) {
	for _, kind := range []Kind{DRAMLess, IntegratedMLC, Hetero} {
		t.Run(kind.String(), func(t *testing.T) {
			k := workload.MustByName("gemver")
			export := func(res *Result) []byte {
				var buf bytes.Buffer
				if err := res.Blame.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}

			cfg := testConfig(kind)
			cfg.Scale = 128 << 10
			serial, err := Run(cfg, k)
			if err != nil {
				t.Fatal(err)
			}
			ref := export(serial)

			again, err := Run(cfg, k)
			if err != nil {
				t.Fatal(err)
			}
			if got := export(again); !bytes.Equal(got, ref) {
				t.Errorf("blame differs between runs:\n%s", again.Blame.Diff(serial.Blame))
			}
		})
	}
}

// TestBlameRecordedOnObserver pins the Observer plumbing: runs merge
// their blame into an attached observer like histograms, and repeated
// runs accumulate.
func TestBlameRecordedOnObserver(t *testing.T) {
	cfg := testConfig(DRAMLess)
	cfg.Obs = obs.New()
	k := workload.MustByName("gemver")
	one, err := Run(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Obs.Blame().Equal(one.Blame) {
		t.Fatalf("observer blame differs from result blame:\n%s", cfg.Obs.Blame().Diff(one.Blame))
	}
	if _, err := Run(cfg, k); err != nil {
		t.Fatal(err)
	}
	if got, want := cfg.Obs.Blame().Sum("kernel/"), 2*one.Blame.Sum("kernel/"); got != want {
		t.Fatalf("second run must accumulate: observer kernel sum %d, want %d", got, want)
	}
	// Runs without an observer still carry their own account.
	bare, err := Run(testConfig(DRAMLess), k)
	if err != nil {
		t.Fatal(err)
	}
	if !bare.Blame.Equal(one.Blame) {
		t.Fatalf("observer attachment must not perturb blame:\n%s", bare.Blame.Diff(one.Blame))
	}
}

// TestTracedRunMatchesUntraced pins the tracing contract (DESIGN.md §9):
// attaching a tracer must not perturb the simulation — walls, energy
// and blame stay byte-equal to the untraced run.
func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, kind := range []Kind{DRAMLess, IntegratedMLC} {
		t.Run(kind.String(), func(t *testing.T) {
			k := workload.MustByName("gemver")
			cfg := testConfig(kind)
			plain, err := Run(cfg, k)
			if err != nil {
				t.Fatal(err)
			}

			tcfg := testConfig(kind)
			tcfg.Obs = obs.New(obs.WithTracing())
			traced, err := Run(tcfg, k)
			if err != nil {
				t.Fatal(err)
			}

			if traced.Load != plain.Load || traced.Kernel != plain.Kernel ||
				traced.Store != plain.Store || traced.Total != plain.Total {
				t.Errorf("phase walls differ:\n  traced load=%v kernel=%v store=%v total=%v\n  plain  load=%v kernel=%v store=%v total=%v",
					traced.Load, traced.Kernel, traced.Store, traced.Total,
					plain.Load, plain.Kernel, plain.Store, plain.Total)
			}
			var tb, pb bytes.Buffer
			if err := traced.Blame.WriteJSON(&tb); err != nil {
				t.Fatal(err)
			}
			if err := plain.Blame.WriteJSON(&pb); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(tb.Bytes(), pb.Bytes()) {
				t.Errorf("blame differs under tracing:\n%s", traced.Blame.Diff(plain.Blame))
			}
			if !reflect.DeepEqual(traced.Energy, plain.Energy) {
				t.Errorf("energy account differs under tracing:\n  traced: %+v\n  plain:  %+v",
					traced.Energy, plain.Energy)
			}

			// The traced run recorded spans and causal flow edges, and the
			// critical path over the kernel phase tiles its wall exactly.
			tr := tcfg.Obs.Tracer()
			if tr.Len() == 0 {
				t.Fatal("traced run recorded no spans")
			}
			if len(tr.Flows()) == 0 {
				t.Fatal("traced run recorded no flow edges")
			}
			var kernelStart, kernelEnd sim.Time
			for _, e := range tr.Events() {
				if e.Proc == "system" && e.Name == "kernel" {
					kernelStart, kernelEnd = e.Start, e.End
				}
			}
			if kernelEnd <= kernelStart {
				t.Fatal("no system kernel span recorded")
			}
			segs := tr.CriticalPath(kernelStart, kernelEnd)
			var total sim.Duration
			for _, s := range segs {
				total += s.Dur()
			}
			if total != kernelEnd-kernelStart {
				t.Errorf("critical path sums to %v, kernel wall is %v", total, kernelEnd-kernelStart)
			}
		})
	}
}

// TestForkedBlameMatchesCold: for every organization, the deprecated
// RunForked entry point's blame account equals Run's exactly (Equal
// covers names, order and totals).
func TestForkedBlameMatchesCold(t *testing.T) {
	for _, kind := range Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			k := workload.MustByName("gemver")
			cfg := testConfig(kind)
			cfg.Scale = 128 << 10
			cold, err := Run(cfg, k)
			if err != nil {
				t.Fatal(err)
			}
			cp, err := CapturePrefix(PrefixOf(cfg, k))
			if err != nil {
				t.Fatal(err)
			}
			defer cp.Release()
			forked, err := RunForked(cfg, k, cp)
			if err != nil {
				t.Fatal(err)
			}
			if !forked.Blame.Equal(cold.Blame) {
				t.Errorf("forked blame differs from cold:\n%s", forked.Blame.Diff(cold.Blame))
			}
		})
	}
}
