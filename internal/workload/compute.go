package workload

import (
	"encoding/binary"
	"fmt"
	"math"

	"dramless/internal/mem"
	"dramless/internal/sim"
)

// This file holds functional reference kernels: real floating-point
// computations performed through a mem.Device with load/store semantics,
// exactly how a DRAM-less agent PE touches PRAM. They verify the whole
// stack functionally (PE cache -> MCU -> FPGA controller -> PRAM rows)
// and back the quickstart example. The timed benchmark streams above
// model the same kernels at scale; these run the math for real at small N.

// Vec provides float64 load/store on a device region.
type Vec struct {
	dev  mem.Device
	base uint64
	n    int
	word [8]byte // Get's load destination, reused across calls
}

// NewVec views n float64s at base.
func NewVec(dev mem.Device, base uint64, n int) (*Vec, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: vector length %d", n)
	}
	if base+uint64(8*n) > dev.Size() {
		return nil, fmt.Errorf("workload: vector [%#x,+%d*8) outside device", base, n)
	}
	return &Vec{dev: dev, base: base, n: n}, nil
}

// Get loads element i at time `at`.
func (v *Vec) Get(at sim.Time, i int) (float64, sim.Time, error) {
	if i < 0 || i >= v.n {
		return 0, 0, fmt.Errorf("workload: index %d outside vector of %d", i, v.n)
	}
	done, err := v.dev.ReadInto(at, v.base+uint64(8*i), v.word[:])
	if err != nil {
		return 0, 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(v.word[:])), done, nil
}

// Set stores element i at time `at`.
func (v *Vec) Set(at sim.Time, i int, x float64) (sim.Time, error) {
	if i < 0 || i >= v.n {
		return 0, fmt.Errorf("workload: index %d outside vector of %d", i, v.n)
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
	return v.dev.Write(at, v.base+uint64(8*i), b[:])
}

// Fill stores xs starting at element 0 in one bulk write.
func (v *Vec) Fill(at sim.Time, xs []float64) (sim.Time, error) {
	if len(xs) > v.n {
		return 0, fmt.Errorf("workload: %d values exceed vector of %d", len(xs), v.n)
	}
	buf := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
	}
	return v.dev.Write(at, v.base, buf)
}

// Snapshot loads the whole vector in one bulk read.
func (v *Vec) Snapshot(at sim.Time) ([]float64, sim.Time, error) {
	b, done, err := mem.Read(v.dev, at, v.base, 8*v.n)
	if err != nil {
		return nil, 0, err
	}
	out := make([]float64, v.n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out, done, nil
}

// Jacobi1D runs `steps` iterations of the 3-point Jacobi stencil over the
// n-element array at aBase, using bBase as the ping-pong buffer, all
// through the device. It returns the completion time; the result is left
// in the aBase region.
func Jacobi1D(dev mem.Device, at sim.Time, aBase, bBase uint64, n, steps int) (sim.Time, error) {
	a, err := NewVec(dev, aBase, n)
	if err != nil {
		return 0, err
	}
	b, err := NewVec(dev, bBase, n)
	if err != nil {
		return 0, err
	}
	src, dst := a, b
	now := at
	for s := 0; s < steps; s++ {
		vals, done, err := src.Snapshot(now)
		if err != nil {
			return 0, err
		}
		now = done
		out := make([]float64, n)
		out[0], out[n-1] = vals[0], vals[n-1]
		for i := 1; i < n-1; i++ {
			out[i] = (vals[i-1] + vals[i] + vals[i+1]) / 3
		}
		if now, err = dst.Fill(now, out); err != nil {
			return 0, err
		}
		src, dst = dst, src
	}
	if src != a {
		vals, done, err := src.Snapshot(now)
		if err != nil {
			return 0, err
		}
		if now, err = a.Fill(done, vals); err != nil {
			return 0, err
		}
	}
	return now, nil
}

// Jacobi1DRef computes the same stencil in plain Go for verification.
func Jacobi1DRef(in []float64, steps int) []float64 {
	cur := append([]float64(nil), in...)
	next := make([]float64, len(in))
	for s := 0; s < steps; s++ {
		copy(next, cur)
		for i := 1; i < len(cur)-1; i++ {
			next[i] = (cur[i-1] + cur[i] + cur[i+1]) / 3
		}
		cur, next = next, cur
	}
	return cur
}

// Trisolv solves L x = b for x where L is the n x n lower-triangular
// matrix at lBase (row-major), b at bBase; x is written to xBase.
func Trisolv(dev mem.Device, at sim.Time, lBase, bBase, xBase uint64, n int) (sim.Time, error) {
	l, err := NewVec(dev, lBase, n*n)
	if err != nil {
		return 0, err
	}
	bv, err := NewVec(dev, bBase, n)
	if err != nil {
		return 0, err
	}
	xv, err := NewVec(dev, xBase, n)
	if err != nil {
		return 0, err
	}
	now := at
	for i := 0; i < n; i++ {
		bi, done, err := bv.Get(now, i)
		if err != nil {
			return 0, err
		}
		now = done
		acc := bi
		for j := 0; j < i; j++ {
			lij, d1, err := l.Get(now, i*n+j)
			if err != nil {
				return 0, err
			}
			xj, d2, err := xv.Get(d1, j)
			if err != nil {
				return 0, err
			}
			now = d2
			acc -= lij * xj
		}
		lii, done2, err := l.Get(now, i*n+i)
		if err != nil {
			return 0, err
		}
		if lii == 0 {
			return 0, fmt.Errorf("workload: singular L at row %d", i)
		}
		if now, err = xv.Set(done2, i, acc/lii); err != nil {
			return 0, err
		}
	}
	return now, nil
}

// TrisolvRef solves the same system in plain Go.
func TrisolvRef(l []float64, b []float64) []float64 {
	n := len(b)
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		acc := b[i]
		for j := 0; j < i; j++ {
			acc -= l[i*n+j] * x[j]
		}
		x[i] = acc / l[i*n+i]
	}
	return x
}

// Gemver computes the core GEMVER update through the device:
//
//	B   = A + u1*v1^T + u2*v2^T
//	x   = beta * B^T * y
//	w   = alpha * B * x
//
// with A at aBase (n x n row-major), the vectors packed consecutively at
// vecBase (u1,v1,u2,v2,y each n elements), and outputs B over A, x and w
// appended after the inputs at vecBase+5n. It returns the completion time.
func Gemver(dev mem.Device, at sim.Time, aBase, vecBase uint64, n int, alpha, beta float64) (sim.Time, error) {
	a, err := NewVec(dev, aBase, n*n)
	if err != nil {
		return 0, err
	}
	vecs, err := NewVec(dev, vecBase, 7*n)
	if err != nil {
		return 0, err
	}
	all, now, err := vecs.Snapshot(at)
	if err != nil {
		return 0, err
	}
	u1, v1 := all[0:n], all[n:2*n]
	u2, v2 := all[2*n:3*n], all[3*n:4*n]
	y := all[4*n : 5*n]

	am, now2, err := a.Snapshot(now)
	if err != nil {
		return 0, err
	}
	now = now2
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			am[i*n+j] += u1[i]*v1[j] + u2[i]*v2[j]
		}
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			x[i] += beta * am[j*n+i] * y[j]
		}
	}
	w := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			w[i] += alpha * am[i*n+j] * x[j]
		}
	}
	if now, err = a.Fill(now, am); err != nil {
		return 0, err
	}
	xOut, err := NewVec(dev, vecBase+uint64(8*5*n), n)
	if err != nil {
		return 0, err
	}
	if now, err = xOut.Fill(now, x); err != nil {
		return 0, err
	}
	wOut, err := NewVec(dev, vecBase+uint64(8*6*n), n)
	if err != nil {
		return 0, err
	}
	return wOut.Fill(now, w)
}

// GemverRef computes the same update in plain Go, returning (B, x, w).
func GemverRef(a []float64, u1, v1, u2, v2, y []float64, alpha, beta float64) (bOut, x, w []float64) {
	n := len(u1)
	bOut = append([]float64(nil), a...)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			bOut[i*n+j] += u1[i]*v1[j] + u2[i]*v2[j]
		}
	}
	x = make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			x[i] += beta * bOut[j*n+i] * y[j]
		}
	}
	w = make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			w[i] += alpha * bOut[i*n+j] * x[j]
		}
	}
	return bOut, x, w
}
