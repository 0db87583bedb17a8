package pcie

import (
	"testing"

	"dramless/internal/sim"
)

func TestLinkDMA(t *testing.T) {
	l := MustNewLink(Gen3x8("x"))
	// 64 KiB at 6.5 GB/s ~ 10.08 us wire + 1 us setup + 0.5 us latency.
	done := l.DMA(0, 64<<10)
	if done < sim.Microseconds(10) || done > sim.Microseconds(14) {
		t.Fatalf("64KiB DMA took %v, want ~11.6us", done)
	}
	dmas, bytes := l.Stats()
	if dmas != 1 || bytes != 64<<10 {
		t.Fatalf("stats = %d dmas, %d bytes", dmas, bytes)
	}
}

func TestLinkDMAChunksLargeTransfers(t *testing.T) {
	cfg := Gen3x8("x")
	cfg.MaxPayload = 4 << 10
	l := MustNewLink(cfg)
	done := l.DMA(0, 16<<10) // 4 chunks, latency paid per chunk arrival
	single := MustNewLink(Gen3x8("y")).DMA(0, 16<<10)
	if done <= single {
		t.Fatalf("chunked DMA (%v) not slower than single (%v)", done, single)
	}
}

func TestZeroDMA(t *testing.T) {
	l := MustNewLink(Gen3x8("x"))
	if done := l.DMA(7, 0); done != 7 {
		t.Fatalf("zero-byte DMA took time: %v", done)
	}
}

func TestMessageIsCheap(t *testing.T) {
	l := MustNewLink(Gen3x8("x"))
	done := l.Message(0)
	if done > sim.Microseconds(1) {
		t.Fatalf("doorbell message took %v", done)
	}
}

func TestP2PAvoidsNothingButIsPipelined(t *testing.T) {
	ssd := MustNewLink(Gen3x8("ssd"))
	acc := MustNewLink(Gen3x8("acc"))
	p := NewP2P(ssd, acc)
	n := int64(1 << 20)
	done := p.Transfer(0, n)
	// Pipelined two-leg transfer: must cost roughly one leg (plus a
	// chunk), not two full legs.
	oneLeg := MustNewLink(Gen3x8("z")).DMA(0, n)
	if done > oneLeg*3/2 {
		t.Fatalf("P2P %v vs single leg %v: not pipelined", done, oneLeg)
	}
	if done < oneLeg {
		t.Fatalf("P2P %v faster than a single leg %v", done, oneLeg)
	}
}

func TestLinkValidation(t *testing.T) {
	cfg := Gen3x8("x")
	cfg.BytesPerSec = 0
	if _, err := NewLink(cfg); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
	cfg = Gen3x8("x")
	cfg.MaxPayload = 0
	if _, err := NewLink(cfg); err == nil {
		t.Fatal("zero payload accepted")
	}
}

func TestSerializationOnWire(t *testing.T) {
	l := MustNewLink(Gen3x8("x"))
	d1 := l.DMA(0, 1<<20)
	d2 := l.DMA(0, 1<<20)
	if d2 <= d1 {
		t.Fatal("concurrent DMAs did not serialize on the wire")
	}
}

// MustNewLink is NewLink for known-good configurations.
func MustNewLink(cfg LinkConfig) *Link {
	l, err := NewLink(cfg)
	if err != nil {
		panic(err)
	}
	return l
}
