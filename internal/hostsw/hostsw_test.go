package hostsw

import (
	"testing"

	"dramless/internal/sim"
)

func TestFileIOChargesPerRequestCosts(t *testing.T) {
	h := MustNew(DefaultCosts())
	n := int64(1 << 20) // 8 requests at 128 KiB
	done, perOp, ops := h.FileIO(0, n)
	if ops != 8 {
		t.Fatalf("ops = %d, want 8", ops)
	}
	wantPerOp := sim.Microseconds(1.5 + 4 + 1 + 3)
	if perOp != wantPerOp {
		t.Fatalf("perOp = %v, want %v", perOp, wantPerOp)
	}
	// 8 x 9.5us stack + 1 MiB / 10 GB/s ~ 104.9 us copy.
	if done < sim.Microseconds(170) || done > sim.Microseconds(200) {
		t.Fatalf("FileIO(1MiB) = %v, want ~180us", done)
	}
	if h.CPUBusy() == 0 {
		t.Fatal("no CPU time recorded")
	}
}

func TestSmallIOStillPaysOneRequest(t *testing.T) {
	h := MustNew(DefaultCosts())
	_, _, ops := h.FileIO(0, 100)
	if ops != 1 {
		t.Fatalf("ops = %d, want 1", ops)
	}
}

func TestHostCPUSerializes(t *testing.T) {
	h := MustNew(DefaultCosts())
	d1 := h.Deserialize(0, 1<<20)
	d2 := h.Deserialize(0, 1<<20)
	if d2 <= d1 {
		t.Fatal("deserialize calls did not serialize on the host CPU")
	}
}

func TestMemcpyBandwidth(t *testing.T) {
	h := MustNew(DefaultCosts())
	// The kernel->user copy of 10 MiB at 10 GB/s takes ~1.05 ms after
	// the per-request stack work.
	done, perOp, ops := h.FileIO(0, 10<<20)
	if cp := done - sim.Duration(ops)*perOp; cp < sim.Milliseconds(1) || cp > sim.Milliseconds(1.2) {
		t.Fatalf("memcpy(10MiB) = %v, want ~1.05ms", cp)
	}
	if h.BytesCopied() != 10<<20 {
		t.Fatalf("bytes copied = %d, want %d", h.BytesCopied(), 10<<20)
	}
}

func TestSubmitCheaperThanFileIO(t *testing.T) {
	h := MustNew(DefaultCosts())
	sub := h.Submit(0)
	h2 := MustNew(DefaultCosts())
	fio, _, _ := h2.FileIO(0, 1<<20)
	if sub >= fio {
		t.Fatalf("submit (%v) not cheaper than file I/O (%v)", sub, fio)
	}
}

func TestCompletionCost(t *testing.T) {
	h := MustNew(DefaultCosts())
	done := h.Completion(0)
	if want := sim.Microseconds(4); done != want {
		t.Fatalf("completion = %v, want %v", done, want)
	}
}

func TestCostsValidation(t *testing.T) {
	c := DefaultCosts()
	c.IOBytes = 0
	if err := c.Validate(); err == nil {
		t.Fatal("zero IO size accepted")
	}
	c = DefaultCosts()
	c.Syscall = -1
	if err := c.Validate(); err == nil {
		t.Fatal("negative syscall cost accepted")
	}
}

// MustNew is New for known-good configurations.
func MustNew(costs Costs) *Host {
	h, err := New(costs)
	if err != nil {
		panic(err)
	}
	return h
}
