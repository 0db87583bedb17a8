package workload

import (
	"math"
	"testing"
	"testing/quick"

	"dramless/internal/mem"
	"dramless/internal/sim"
)

func TestSuiteCompleteness(t *testing.T) {
	suite := Suite()
	if len(suite) != 16 {
		t.Fatalf("suite has %d kernels, want 16", len(suite))
	}
	seen := map[string]bool{}
	for _, k := range suite {
		if seen[k.Name] {
			t.Fatalf("duplicate kernel %s", k.Name)
		}
		seen[k.Name] = true
		if k.InputFactor <= 0 || k.OutputFactor <= 0 || k.Sweeps <= 0 || k.ComputePerChunk <= 0 {
			t.Fatalf("kernel %s has non-positive structure: %+v", k.Name, k)
		}
	}
	// The figure-18/19 poster children must be present with the right
	// classes.
	if MustByName("gemver").Class != ReadIntensive {
		t.Error("gemver must be read-intensive")
	}
	if MustByName("doitg").Class != WriteIntensive {
		t.Error("doitg must be write-intensive")
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown kernel accepted")
	}
}

func TestWriteIntensityOrdering(t *testing.T) {
	// Table III: write intensity = output/input. The write-intensive
	// class must exceed the read-intensive class.
	for _, wk := range []string{"chol", "doitg", "lu", "seidel"} {
		for _, rk := range []string{"durbin", "dynpro", "gemver", "trisolv"} {
			w, r := MustByName(wk), MustByName(rk)
			if w.WriteIntensity() <= r.WriteIntensity() {
				t.Errorf("%s intensity %.3f not above %s %.3f",
					wk, w.WriteIntensity(), rk, r.WriteIntensity())
			}
		}
	}
}

func TestWriteRatioMatchesStream(t *testing.T) {
	p := DefaultParams()
	p.Scale = 64 << 10
	p.Agents = 2
	for _, k := range Suite() {
		var reads, writes int64
		for pe := 0; pe < p.Agents; pe++ {
			s := MustStream(k, p, pe)
			for {
				op, ok := s.Next()
				if !ok {
					break
				}
				if op.Size == 0 {
					continue
				}
				if op.Write {
					writes++
				} else {
					reads++
				}
			}
		}
		got := float64(writes) / float64(reads+writes)
		want := k.WriteRatio(p)
		if math.Abs(got-want) > 0.05 {
			t.Errorf("%s: stream write ratio %.3f vs metadata %.3f", k.Name, got, want)
		}
	}
}

func TestStreamStaysInFootprint(t *testing.T) {
	p := Params{Scale: 32 << 10, Agents: 3, BaseAddr: 4096}
	for _, k := range Suite() {
		limit := p.BaseAddr + uint64(k.FootprintBytes(p))
		for pe := 0; pe < p.Agents; pe++ {
			s := MustStream(k, p, pe)
			for {
				op, ok := s.Next()
				if !ok {
					break
				}
				if op.Size == 0 {
					continue
				}
				if op.Addr < p.BaseAddr || op.Addr+uint64(op.Size) > limit {
					t.Fatalf("%s agent %d: op at %#x outside [%#x,%#x)", k.Name, pe, op.Addr, p.BaseAddr, limit)
				}
			}
		}
	}
}

func TestAgentsPartitionInput(t *testing.T) {
	// Each input chunk must be read by exactly one agent per sweep.
	k := MustByName("jaco1d")
	p := Params{Scale: 16 << 10, Agents: 3}
	counts := map[uint64]int{}
	for pe := 0; pe < p.Agents; pe++ {
		s := MustStream(k, p, pe)
		for {
			op, ok := s.Next()
			if !ok {
				break
			}
			if op.Size > 0 && !op.Write {
				counts[op.Addr]++
			}
		}
	}
	inChunks := int(k.InputBytes(p) / ChunkBytes)
	if len(counts) != inChunks {
		t.Fatalf("agents read %d distinct chunks, want %d", len(counts), inChunks)
	}
	for addr, c := range counts {
		if c != k.Sweeps {
			t.Fatalf("chunk %#x read %d times, want %d sweeps", addr, c, k.Sweeps)
		}
	}
}

func TestStreamDeterminism(t *testing.T) {
	k := MustByName("floyd")
	p := Params{Scale: 8 << 10, Agents: 2}
	s1, s2 := MustStream(k, p, 0), MustStream(k, p, 0)
	for {
		a, okA := s1.Next()
		b, okB := s2.Next()
		if okA != okB || a != b {
			t.Fatal("streams diverged")
		}
		if !okA {
			break
		}
	}
}

func TestInstructionsPositive(t *testing.T) {
	p := DefaultParams()
	for _, k := range Suite() {
		if k.Instructions(p) <= 0 {
			t.Errorf("%s: non-positive instruction count", k.Name)
		}
		if k.FootprintBytes(p) <= 0 {
			t.Errorf("%s: non-positive footprint", k.Name)
		}
	}
}

func TestBadStreamArgs(t *testing.T) {
	k := MustByName("lu")
	if _, err := NewStream(k, Params{Scale: 8 << 10, Agents: 2}, 2); err == nil {
		t.Error("out-of-range agent accepted")
	}
	if _, err := NewStream(k, Params{Scale: 10, Agents: 2}, 0); err == nil {
		t.Error("tiny scale accepted")
	}
	if _, err := NewStream(k, Params{Scale: 8 << 10, Agents: 0}, 0); err == nil {
		t.Error("zero agents accepted")
	}
}

// Property: for any kernel and agent split, total stream ops match the
// closed-form traffic counts used by the experiment metadata.
func TestTrafficClosedFormProperty(t *testing.T) {
	suite := Suite()
	f := func(kSel uint8, agentsSel uint8, scaleSel uint8) bool {
		k := suite[int(kSel)%len(suite)]
		p := Params{
			Scale:  int64(scaleSel%32+16) * 1024,
			Agents: int(agentsSel%7) + 1,
		}
		var reads, writes int64
		for pe := 0; pe < p.Agents; pe++ {
			s := MustStream(k, p, pe)
			for {
				op, ok := s.Next()
				if !ok {
					break
				}
				if op.Size == 0 {
					continue
				}
				if op.Write {
					writes++
				} else {
					reads++
				}
			}
		}
		wantR, wantW := k.trafficChunks(p)
		// Interleaved writes ride on read cadence per agent, so rounding
		// loses at most (Agents * Sweeps) chunks of each kind.
		slack := int64(p.Agents*k.Sweeps) + 2
		return abs64(reads-wantR) <= slack && abs64(writes-wantW) <= slack
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// ---- functional reference kernels ----

func dev() mem.Device {
	return mem.NewFlat("m", 1<<22, sim.Nanoseconds(100), 1e9)
}

func TestJacobi1DMatchesReference(t *testing.T) {
	d := dev()
	n, steps := 64, 5
	in := make([]float64, n)
	for i := range in {
		in[i] = float64(i%7) * 1.5
	}
	v, err := NewVec(d, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	now, err := v.Fill(0, in)
	if err != nil {
		t.Fatal(err)
	}
	done, err := Jacobi1D(d, now, 0, 8*uint64(n), n, steps)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := v.Snapshot(done)
	if err != nil {
		t.Fatal(err)
	}
	want := Jacobi1DRef(in, steps)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("element %d: %v != %v", i, got[i], want[i])
		}
	}
}

func TestTrisolvMatchesReference(t *testing.T) {
	d := dev()
	n := 12
	l := make([]float64, n*n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			l[i*n+j] = float64(i+j+1) / float64(n)
		}
		l[i*n+i] += 2 // well conditioned
		b[i] = float64(3*i - 5)
	}
	lv, _ := NewVec(d, 0, n*n)
	bv, _ := NewVec(d, uint64(8*n*n), n)
	now, err := lv.Fill(0, l)
	if err != nil {
		t.Fatal(err)
	}
	if now, err = bv.Fill(now, b); err != nil {
		t.Fatal(err)
	}
	xBase := uint64(8 * (n*n + n))
	done, err := Trisolv(d, now, 0, uint64(8*n*n), xBase, n)
	if err != nil {
		t.Fatal(err)
	}
	xv, _ := NewVec(d, xBase, n)
	got, _, err := xv.Snapshot(done)
	if err != nil {
		t.Fatal(err)
	}
	want := TrisolvRef(l, b)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("x[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestGemverMatchesReference(t *testing.T) {
	d := dev()
	n := 10
	a := make([]float64, n*n)
	vecs := make([]float64, 7*n)
	for i := range a {
		a[i] = float64(i%5) - 2
	}
	for i := 0; i < 5*n; i++ {
		vecs[i] = float64(i%3) + 0.5
	}
	av, _ := NewVec(d, 0, n*n)
	vv, _ := NewVec(d, uint64(8*n*n), 7*n)
	now, err := av.Fill(0, a)
	if err != nil {
		t.Fatal(err)
	}
	if now, err = vv.Fill(now, vecs); err != nil {
		t.Fatal(err)
	}
	done, err := Gemver(d, now, 0, uint64(8*n*n), n, 1.25, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	wantB, wantX, wantW := GemverRef(a,
		vecs[0:n], vecs[n:2*n], vecs[2*n:3*n], vecs[3*n:4*n], vecs[4*n:5*n], 1.25, 0.75)
	gotB, _, _ := av.Snapshot(done)
	all, _, _ := vv.Snapshot(done)
	for i := range wantB {
		if math.Abs(gotB[i]-wantB[i]) > 1e-9 {
			t.Fatalf("B[%d] mismatch", i)
		}
	}
	for i := 0; i < n; i++ {
		if math.Abs(all[5*n+i]-wantX[i]) > 1e-9 {
			t.Fatalf("x[%d] = %v, want %v", i, all[5*n+i], wantX[i])
		}
		if math.Abs(all[6*n+i]-wantW[i]) > 1e-9 {
			t.Fatalf("w[%d] = %v, want %v", i, all[6*n+i], wantW[i])
		}
	}
}

func TestVecBounds(t *testing.T) {
	d := dev()
	if _, err := NewVec(d, d.Size()-8, 2); err == nil {
		t.Error("oversize vector accepted")
	}
	v, _ := NewVec(d, 0, 4)
	if _, _, err := v.Get(0, 4); err == nil {
		t.Error("out-of-range get accepted")
	}
	if _, err := v.Set(0, -1, 1); err == nil {
		t.Error("negative set accepted")
	}
	if _, err := v.Fill(0, make([]float64, 5)); err == nil {
		t.Error("oversize fill accepted")
	}
}

// MustStream is NewStream for known-good arguments.
func MustStream(k Kernel, p Params, pe int) Stream {
	s, err := NewStream(k, p, pe)
	if err != nil {
		panic(err)
	}
	return s
}

// DefaultParams returns a 2 MiB footprint split across 7 agents (8 PEs
// minus the server).
func DefaultParams() Params {
	return Params{Scale: 2 << 20, Agents: 7}
}
