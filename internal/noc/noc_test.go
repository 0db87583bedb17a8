package noc

import (
	"testing"

	"dramless/internal/sim"
)

func TestTransferTiming(t *testing.T) {
	x := MustNew(Default())
	// 32 KiB at 32 GB/s = 1.024 us + 10 ns hop.
	done, err := x.Transfer(0, 0, 1, 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	if done < sim.Microseconds(1) || done > sim.Microseconds(1.1) {
		t.Fatalf("transfer = %v, want ~1.03us", done)
	}
}

func TestDisjointPairsParallel(t *testing.T) {
	x := MustNew(Default())
	d1, _ := x.Transfer(0, 0, 1, 32<<10)
	d2, _ := x.Transfer(0, 2, 3, 32<<10)
	if d1 != d2 {
		t.Fatalf("disjoint pairs serialized: %v vs %v", d1, d2)
	}
}

func TestSharedDestinationSerializes(t *testing.T) {
	x := MustNew(Default())
	d1, _ := x.Transfer(0, 0, 5, 32<<10)
	d2, _ := x.Transfer(0, 1, 5, 32<<10)
	if d2 <= d1 {
		t.Fatal("shared destination port did not serialize")
	}
}

func TestLocalTransferFree(t *testing.T) {
	x := MustNew(Default())
	done, err := x.Transfer(9, 4, 4, 1<<20)
	if err != nil || done != 9 {
		t.Fatalf("local transfer: done=%v err=%v", done, err)
	}
}

func TestBadPortsRejected(t *testing.T) {
	x := MustNew(Default())
	if _, err := x.Transfer(0, -1, 0, 10); err == nil {
		t.Fatal("negative port accepted")
	}
	if _, err := x.Transfer(0, 0, 10, 10); err == nil {
		t.Fatal("out-of-range port accepted")
	}
}

func TestConfigValidate(t *testing.T) {
	c := Default()
	c.Ports = 1
	if err := c.Validate(); err == nil {
		t.Fatal("single-port crossbar accepted")
	}
}

// MustNew is New for known-good configurations.
func MustNew(cfg Config) *Crossbar {
	x, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return x
}
