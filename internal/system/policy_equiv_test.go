package system

import (
	"bytes"
	"reflect"
	"testing"

	"dramless/internal/memctrl"
	"dramless/internal/obs"
	"dramless/internal/workload"
)

// policyEquivKernels keeps the per-policy conformance sweep affordable:
// one dense-read kernel and one write-heavy kernel.
var policyEquivKernels = []string{"gemver", "doitg"}

// policyExports runs kernel kname on a DRAM-less system under the named
// policy and returns the run plus byte exports of its distributions.
func policyExports(t *testing.T, name, kname string) (*Result, []byte, []byte) {
	t.Helper()
	k := workload.MustByName(kname)
	cfg := testConfig(DRAMLess)
	cfg.Scale = 128 << 10
	cfg.Policy = name
	cfg.Obs = obs.New()
	res, err := Run(cfg, k)
	if err != nil {
		t.Fatalf("policy %q: %v", name, err)
	}
	var hb, sb bytes.Buffer
	if err := cfg.Obs.Histograms().WriteJSON(&hb); err != nil {
		t.Fatal(err)
	}
	if err := cfg.Obs.Series().WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	return res, hb.Bytes(), sb.Bytes()
}

// TestPolicyConformance is the policy registry's system-level oracle:
// every registered policy must run deterministically. Two runs of one
// cell, the second building its system from the storage pools the first
// released, give identical phase walls, an identical counter registry
// (the wear leveler's memctrl.wear.* among them) and byte-identical
// histogram/series exports.
func TestPolicyConformance(t *testing.T) {
	for _, name := range memctrl.PolicyNames() {
		for _, kname := range policyEquivKernels {
			name, kname := name, kname
			t.Run(name+"/"+kname, func(t *testing.T) {
				first, fh, fs := policyExports(t, name, kname)
				again, ah, as := policyExports(t, name, kname)
				if again.Total != first.Total || again.Kernel != first.Kernel {
					t.Errorf("walls differ between runs: total %v != %v", again.Total, first.Total)
				}
				requireSameCounters(t, [2]string{"again", "first"}, again, first, (*obs.Counters).Entries)
				if !bytes.Equal(ah, fh) {
					t.Error("histogram export not byte-identical between runs")
				}
				if !bytes.Equal(as, fs) {
					t.Error("series export not byte-identical between runs")
				}
			})
		}
	}
}

// TestEmptyPolicyRunsFinal pins the contract the benchmark harness
// relies on when it assigns an empty policy name: Policy "" and Policy
// "final" build the same simulation and share one prefix key.
func TestEmptyPolicyRunsFinal(t *testing.T) {
	k := workload.MustByName("gemver")
	empty := testConfig(DRAMLess)
	empty.Scale = 128 << 10
	empty.Policy = ""
	final := empty
	final.Policy = "final"
	if PrefixOf(empty, k) != PrefixOf(final, k) {
		t.Error("policy \"\" and \"final\" should share a prefix")
	}
	re, err := Run(empty, k)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := Run(final, k)
	if err != nil {
		t.Fatal(err)
	}
	if re.Total != rf.Total || re.Kernel != rf.Kernel || re.Load != rf.Load {
		t.Errorf("policy \"\" vs \"final\": walls differ (total %v vs %v)", re.Total, rf.Total)
	}
	if !reflect.DeepEqual(re.Energy, rf.Energy) {
		t.Error("policy \"\" vs \"final\": energy differs")
	}
	if DefaultConfig(DRAMLess).Policy != "final" {
		t.Error("DefaultConfig should spell the default policy \"final\"")
	}
}

// TestPrefixOfNormalizesPolicy pins the prefix-key rules for the
// scheduling policy: spelling (letter case) never splits a prefix, a
// genuinely different policy does, and organizations without a PRAM
// controller ignore the policy entirely.
func TestPrefixOfNormalizesPolicy(t *testing.T) {
	k := workload.MustByName("gemver")

	named := testConfig(DRAMLess)
	named.Policy = "final"
	cased := testConfig(DRAMLess)
	cased.Policy = "FINAL"
	if PrefixOf(named, k) != PrefixOf(cased, k) {
		t.Error("policy lookup is case-insensitive; the prefix key must be too")
	}

	palp := testConfig(DRAMLess)
	palp.Policy = "palp"
	if PrefixOf(named, k) == PrefixOf(palp, k) {
		t.Error("different policies must split the prefix key")
	}

	// Non-PRAM organizations have no controller to schedule: the policy
	// must normalize away so they share a key regardless.
	plain := testConfig(Hetero)
	polled := testConfig(Hetero)
	polled.Policy = "palp"
	if PrefixOf(plain, k) != PrefixOf(polled, k) {
		t.Error("policy split a prefix on an organization without a PRAM controller")
	}
}

// TestConfigValidatePolicyName pins the config-level error surface:
// unknown policy names are rejected by Validate and by Run.
func TestConfigValidatePolicyName(t *testing.T) {
	cfg := testConfig(DRAMLess)
	cfg.Policy = "round-robin"
	if err := cfg.Validate(); err == nil {
		t.Error("unknown policy name accepted")
	}
	if _, err := Run(cfg, workload.MustByName("gemver")); err == nil {
		t.Error("unknown policy name accepted by Run")
	}
}
