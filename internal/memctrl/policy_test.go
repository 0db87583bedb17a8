package memctrl

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"dramless/internal/sim"
)

func TestPolicyRegistry(t *testing.T) {
	names := PolicyNames()
	want := []string{"bare-metal", "interleaving", "selective-erasing", "final",
		"palp", "pause-aware", "wear-aware"}
	for _, w := range want {
		found := false
		for _, n := range names {
			if n == w {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("policy %q not registered (have %v)", w, names)
		}
	}
	if len(Policies()) != len(names) {
		t.Errorf("Policies/PolicyNames length mismatch")
	}
	for _, p := range Policies() {
		if p.Description() == "" {
			t.Errorf("policy %q has no description", p.Name())
		}
	}
}

func TestPolicyByNameCaseInsensitive(t *testing.T) {
	for _, name := range []string{"final", "Final", "FINAL", "PaLP", "Pause-Aware"} {
		if _, err := PolicyByName(name); err != nil {
			t.Errorf("PolicyByName(%q): %v", name, err)
		}
	}
	_, err := PolicyByName("round-robin")
	if err == nil {
		t.Fatal("unknown policy accepted")
	}
	if !strings.Contains(err.Error(), "known:") || !strings.Contains(err.Error(), "palp") {
		t.Errorf("unknown-policy error should list the registry: %v", err)
	}
}

// TestPolicyForMatchesEnumFlags checks that each paper policy resolves
// from the registry under its canonical name to the same value, with
// the interleaving and selective-erasing flags its name promises, and
// that an unknown name resolves to no policy.
func TestPolicyForMatchesEnumFlags(t *testing.T) {
	flags := map[string][2]bool{
		"bare-metal":        {false, false},
		"interleaving":      {true, false},
		"selective-erasing": {false, true},
		"final":             {true, true},
	}
	for _, p := range []Policy{BareMetal, Interleaving, SelectiveErasing, Final} {
		got, err := PolicyByName(p.Name())
		if err != nil || got != p {
			t.Fatalf("PolicyByName(%q) = %v, %v", p.Name(), got, err)
		}
		want, ok := flags[p.Name()]
		if !ok {
			t.Fatalf("paper policy has unexpected name %q", p.Name())
		}
		caps := got.Capabilities()
		if caps.Interleave != want[0] || caps.SelectiveErase != want[1] {
			t.Errorf("%s: policy caps %+v disagree with its flags %v", p.Name(), caps, want)
		}
	}
	if p, err := PolicyByName("scheduler-99"); err == nil || p != nil {
		t.Error("unknown policy name adapted to a policy")
	}
}

func TestCapabilitiesValidate(t *testing.T) {
	if err := (Capabilities{PartitionOverlap: true, Interleave: true}).Validate(); err != nil {
		t.Errorf("valid capability vector rejected: %v", err)
	}
	if err := (Capabilities{PartitionOverlap: true}).Validate(); err == nil {
		t.Error("partition overlap without interleaving accepted")
	}
	cfg := DefaultPolicyConfig(&builtinPolicy{name: "broken", caps: Capabilities{PartitionOverlap: true}})
	if err := cfg.Validate(); err == nil {
		t.Error("config with invalid policy capabilities accepted")
	}
}

// TestBuiltinPoliciesWellFormed checks the fixed registry: every
// built-in has a name no other built-in shares case-insensitively (so
// PolicyByName is unambiguous) and a capability vector that validates.
func TestBuiltinPoliciesWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range builtins {
		t.Run(p.Name(), func(t *testing.T) {
			key := strings.ToLower(p.Name())
			if key == "" {
				t.Fatal("built-in policy has no name")
			}
			if seen[key] {
				t.Errorf("name %q collides case-insensitively with another built-in", p.Name())
			}
			seen[key] = true
			if err := p.Capabilities().Validate(); err != nil {
				t.Errorf("capabilities %+v: %v", p.Capabilities(), err)
			}
		})
	}
}

// Property: the new policies preserve data correctness — any sequence of
// writes then reads matches a shadow buffer, exactly like the paper's
// policies in TestFunctionalEquivalenceProperty.
func TestNewPolicyFunctionalEquivalence(t *testing.T) {
	for _, name := range []string{"palp", "pause-aware", "wear-aware"} {
		name := name
		t.Run(name, func(t *testing.T) {
			p, err := PolicyByName(name)
			if err != nil {
				t.Fatal(err)
			}
			sub := MustNew(testConfig(p))
			shadow := make([]byte, 4096)
			now := sim.Time(0)
			f := func(off uint16, n uint8, fill byte, write bool) bool {
				addr := uint64(off) % 4000
				size := int(n)%96 + 1
				if addr+uint64(size) > 4096 {
					size = int(4096 - addr)
				}
				if write {
					data := bytes.Repeat([]byte{fill}, size)
					done, err := sub.Write(now, addr, data)
					if err != nil {
						return false
					}
					copy(shadow[addr:], data)
					now = sim.Max(done, sub.Drain())
					return true
				}
				got, done, err := sub.Read(now, addr, size)
				if err != nil {
					return false
				}
				now = done
				return bytes.Equal(got, shadow[addr:addr+uint64(size)])
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// mustPolicySubsystem builds a test subsystem running the named policy.
func mustPolicySubsystem(t *testing.T, name string) *Subsystem {
	t.Helper()
	p, err := PolicyByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return MustNew(testConfig(p))
}

// PALP: reads into a partition with an in-flight program are deferred to
// the batch tail, so mixed batches finish no later than under final, and
// the deferral counter records the reordering.
func TestPALPDefersBusyPartitionReads(t *testing.T) {
	elapsed := func(name string) (sim.Duration, Stats) {
		sub := mustPolicySubsystem(t, name)
		// Warm both rows so the reads below are pure array+bus work.
		buf := bytes.Repeat([]byte{0xC3}, 1024)
		if _, err := sub.Write(0, 0, buf); err != nil { // partition 0 rows
			t.Fatal(err)
		}
		start := sub.Drain()
		// Kick off a program into partition 0 of every module, then read a
		// window covering partition-0 and partition-1 rows while it runs.
		if _, err := sub.Write(start, 0, buf[:64]); err != nil {
			t.Fatal(err)
		}
		_, done, err := sub.Read(start+sim.Nanoseconds(100), 0, 1024)
		if err != nil {
			t.Fatal(err)
		}
		return done - start, sub.Stats()
	}
	dFinal, _ := elapsed("final")
	dPALP, st := elapsed("palp")
	if dPALP > dFinal {
		t.Fatalf("palp mixed batch (%v) slower than final (%v)", dPALP, dFinal)
	}
	if st.PartitionOverlapWins == 0 {
		t.Fatal("palp never deferred a busy-partition read")
	}
}

// Pause-aware: a demand read behind an in-flight program pauses it
// instead of waiting ~10us for it to finish, and the preemption counter
// records the pause.
func TestPauseAwareReadsPreemptPrograms(t *testing.T) {
	readBehindWrite := func(name string) (sim.Duration, Stats) {
		sub := mustPolicySubsystem(t, name)
		buf := bytes.Repeat([]byte{7}, 32)
		if _, err := sub.Write(0, 0, buf); err != nil {
			t.Fatal(err)
		}
		start := sub.Drain()
		if _, err := sub.Write(start, 0, buf); err != nil { // re-program row 0
			t.Fatal(err)
		}
		_, done, err := sub.Read(start+sim.Nanoseconds(200), 0, 32)
		if err != nil {
			t.Fatal(err)
		}
		return done - start, sub.Stats()
	}
	dFinal, stF := readBehindWrite("final")
	dPause, stP := readBehindWrite("pause-aware")
	if dPause >= dFinal {
		t.Fatalf("pause-aware read behind program (%v) not faster than final (%v)", dPause, dFinal)
	}
	if stP.PausePreemptedReads == 0 {
		t.Fatal("pause-aware recorded no preempted reads")
	}
	if stF.PausePreemptedReads != 0 {
		t.Fatalf("final recorded %d preempted reads", stF.PausePreemptedReads)
	}
}

// Wear-aware: the policy force-enables start-gap leveling and defers the
// gap-move copy to the drain window.
func TestWearAwareEnablesLeveling(t *testing.T) {
	sub := mustPolicySubsystem(t, "wear-aware")
	if !sub.Config().Wear.Enabled {
		t.Fatal("wear-aware subsystem has wear leveling off")
	}
	buf := bytes.Repeat([]byte{1}, 32)
	interval := sub.Config().Wear.GapWritePeriod
	now := sim.Time(0)
	for i := 0; i < interval+1; i++ {
		done, err := sub.Write(now, 0, buf)
		if err != nil {
			t.Fatal(err)
		}
		now = sim.Max(done, sub.Drain())
	}
	if sub.WearStats().GapMoves == 0 {
		t.Fatal("no gap moves after exceeding the move interval")
	}
	// Data stays correct across the remap.
	got, _, err := sub.Read(sub.Drain(), 0, 32)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf) {
		t.Fatal("data lost across wear-aware gap move")
	}
}
