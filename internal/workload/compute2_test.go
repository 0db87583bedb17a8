package workload

import (
	"math"
	"testing"

	"dramless/internal/mem"
	"dramless/internal/memctrl"
)

// pramDevice builds a small hardware-automated PRAM subsystem.
func pramDevice(t *testing.T) mem.Device {
	t.Helper()
	cfg := memctrl.DefaultPolicyConfig(memctrl.Final)
	cfg.Geometry.RowsPerModule = 1 << 16
	sub, err := memctrl.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

func fill64(n int, f func(i int) float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = f(i)
	}
	return out
}

func TestDoitgenMatchesReference(t *testing.T) {
	d := dev()
	nr, nq, np := 3, 4, 6
	a := fill64(nr*nq*np, func(i int) float64 { return float64(i%7) - 2.5 })
	c4 := fill64(np*np, func(i int) float64 { return float64(i%5) * 0.25 })
	av, _ := NewVec(d, 0, nr*nq*np)
	cv, _ := NewVec(d, uint64(8*nr*nq*np), np*np)
	now, err := av.Fill(0, a)
	if err != nil {
		t.Fatal(err)
	}
	if now, err = cv.Fill(now, c4); err != nil {
		t.Fatal(err)
	}
	done, err := Doitgen(d, now, 0, uint64(8*nr*nq*np), nr, nq, np)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := av.Snapshot(done)
	if err != nil {
		t.Fatal(err)
	}
	want := DoitgenRef(a, c4, nr, nq, np)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("A[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestFloydMatchesReference(t *testing.T) {
	d := dev()
	n := 10
	inf := math.Inf(1)
	dist := fill64(n*n, func(i int) float64 {
		r, c := i/n, i%n
		switch {
		case r == c:
			return 0
		case (r+c)%3 == 0:
			return float64((r*7+c*3)%11 + 1)
		default:
			return inf
		}
	})
	v, _ := NewVec(d, 0, n*n)
	now, err := v.Fill(0, dist)
	if err != nil {
		t.Fatal(err)
	}
	done, err := Floyd(d, now, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := v.Snapshot(done)
	if err != nil {
		t.Fatal(err)
	}
	want := FloydRef(dist, n)
	for i := range want {
		if math.IsInf(want[i], 1) != math.IsInf(got[i], 1) ||
			(!math.IsInf(want[i], 1) && math.Abs(got[i]-want[i]) > 1e-9) {
			t.Fatalf("d[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Triangle inequality holds everywhere on the result.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				if got[i*n+j] > got[i*n+k]+got[k*n+j]+1e-9 {
					t.Fatalf("triangle inequality violated at %d,%d via %d", i, j, k)
				}
			}
		}
	}
}

func TestSeidelMatchesReference(t *testing.T) {
	d := dev()
	n, steps := 12, 4
	grid := fill64(n*n, func(i int) float64 { return math.Cos(float64(i) / 5) })
	v, _ := NewVec(d, 0, n*n)
	now, err := v.Fill(0, grid)
	if err != nil {
		t.Fatal(err)
	}
	done, err := Seidel(d, now, 0, n, steps)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := v.Snapshot(done)
	if err != nil {
		t.Fatal(err)
	}
	want := SeidelRef(grid, n, steps)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("g[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Boundary rows/cols are fixed points of the stencil.
	for j := 0; j < n; j++ {
		if got[j] != grid[j] || got[(n-1)*n+j] != grid[(n-1)*n+j] {
			t.Fatal("boundary mutated")
		}
	}
}

func TestComputeKernelArgValidation(t *testing.T) {
	d := dev()
	if _, err := Doitgen(d, 0, 0, 0, 0, 1, 1); err == nil {
		t.Error("zero doitgen dim accepted")
	}
	if _, err := Floyd(d, 0, 0, 0); err == nil {
		t.Error("zero floyd size accepted")
	}
	if _, err := Seidel(d, 0, 0, 2, 1); err == nil {
		t.Error("tiny seidel grid accepted")
	}
}

func TestFunctionalKernelsOnPRAMStack(t *testing.T) {
	// The same math through the full PRAM subsystem (protocol + timing)
	// must agree with the plain-Go reference - this exercises doitgen on
	// the real controller path end to end.
	sub := pramDevice(t)
	nr, nq, np := 2, 2, 4
	a := fill64(nr*nq*np, func(i int) float64 { return float64(i) * 0.5 })
	c4 := fill64(np*np, func(i int) float64 { return float64((i*3)%4) - 1 })
	av, _ := NewVec(sub, 0, nr*nq*np)
	cv, _ := NewVec(sub, 4096, np*np)
	now, err := av.Fill(0, a)
	if err != nil {
		t.Fatal(err)
	}
	if now, err = cv.Fill(now, c4); err != nil {
		t.Fatal(err)
	}
	done, err := Doitgen(sub, now, 0, 4096, nr, nq, np)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := av.Snapshot(done)
	if err != nil {
		t.Fatal(err)
	}
	want := DoitgenRef(a, c4, nr, nq, np)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("PRAM-backed A[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}
