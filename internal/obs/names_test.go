package obs

import "testing"

func TestNormalizeName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"memctrl.ch0.reads", "memctrl.chN.reads"},
		{"memctrl.ch17.bytes_read", "memctrl.chN.bytes_read"},
		{"accel.pe3.l1.hits", "accel.peN.l1.hits"},
		{"accel.pe12.busy_ps", "accel.peN.busy_ps"},
		{"cache.l1.hit_ps", "cache.l1.hit_ps"},       // no index segment
		{"memctrl.ch.reads", "memctrl.ch.reads"},     // bare stem, no digits
		{"memctrl.chx1.reads", "memctrl.chx1.reads"}, // non-digit suffix
		{"pe0", "peN"},
		{"memctrl.reads", "memctrl.reads"},
	}
	for _, c := range cases {
		if got := NormalizeName(c.in); got != c.want {
			t.Errorf("NormalizeName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestCatalogCoversDeclaredInstruments asserts every exported instrument
// constant is cataloged, and that the catalog rejects unknown names (so
// the system-level drift test actually has teeth).
func TestCatalogCoversDeclaredInstruments(t *testing.T) {
	declared := []string{
		HistMemReadRDBHit, HistMemReadRABHit, HistMemReadFull, HistMemReadPaused,
		HistMemWriteFull, HistMemWriteRMW,
		HistCacheL1Hit, HistCacheL1Miss, HistCacheL2Hit, HistCacheL2Miss,
		HistAccelKernel, HistAccelFlush, HistAccelJobWait,
		HistSSDRead, HistSSDWrite, HistSSDFTLProgram,
		HistSystemLoad, HistSystemKernel, HistSystemStore,
		SeriesMemBytesRead, SeriesMemBytesWritten,
		SeriesMemReads, SeriesMemRDBHits, SeriesMemRABHits, SeriesMemWritePause,
		SeriesPEBusy, SeriesPEStall,
	}
	for _, n := range declared {
		if !Cataloged(n) {
			t.Errorf("declared instrument %q is not cataloged", n)
		}
	}
	// Per-instance counter names normalize into the catalog.
	for _, n := range []string{
		"memctrl.ch0.reads", "memctrl.ch7.rdb_hits",
		"accel.pe0.l2.hit_rate", "accel.pe15.instructions",
		"ssd.ext.ftl.gc_runs", "ssd.int.buffer_hits",
	} {
		if !Cataloged(n) {
			t.Errorf("counter name %q must normalize into the catalog", n)
		}
	}
	for _, n := range []string{
		"memctrl.read.rdb_hit", // missing _ps suffix
		"memctl.ch0.reads",     // typo'd subsystem
		"accel.pe0.l3.hits",    // no such level
		"",
	} {
		if Cataloged(n) {
			t.Errorf("unknown name %q must not be cataloged", n)
		}
	}
	if CatalogSize() < len(declared) {
		t.Errorf("catalog size %d smaller than the declared instrument list %d",
			CatalogSize(), len(declared))
	}
}

// CatalogSize returns how many normalized names the catalog declares.
func CatalogSize() int { return len(catalog) }
