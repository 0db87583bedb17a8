package memctrl

import (
	"fmt"
	"sort"
	"strings"
)

// Policy is a pluggable request scheduling policy for the PRAM
// controller. A policy declares its capabilities once; the channel and
// subsystem resolve them into plain booleans at construction time, so
// dispatch adds no per-request interface calls or allocations to the
// hot path (the zero-allocation datapath contract of DESIGN.md §8).
//
// The paper's four Figure 13 configurations are registered as
// BareMetal ("bare-metal"), Interleaving ("interleaving"),
// SelectiveErasing ("selective-erasing") and Final ("final"). The
// registry is the fixed builtins list: a new policy is one more entry
// there, and becomes visible to the CLI, the experiment harness and the
// `dramless arena` tournament by name.
type Policy interface {
	// Name identifies the policy in the registry, in system.Config and
	// in rendered tables. Lookup is case-insensitive.
	Name() string
	// Description is a one-line summary for CLI listings.
	Description() string
	// Capabilities declares which scheduling behaviors the policy
	// enables. It is read once per subsystem build.
	Capabilities() Capabilities
}

// Capabilities is the capability vector of a scheduling policy: each
// field enables one behavior of the channel/subsystem scheduling
// machinery. The paper's four policies are points in this space; new
// policies compose the same axes.
type Capabilities struct {
	// Interleave overlaps one partition's array access with another
	// row's bus transfer (multi-resource-aware interleaving,
	// Figure 12). Without it every chip operation runs to completion
	// before the chip's next one starts.
	Interleave bool
	// SelectiveErase pre-programs declared write-intent rows with
	// all-zero words in background idle time, so later real writes
	// need only SET pulses (Section V-A).
	SelectiveErase bool
	// PartitionOverlap enables PALP-style partition-aware read
	// ordering: within an interleaved read batch, reads whose target
	// partition still has in-flight array work are deferred to the
	// tail waves, and sequential prefetches skip busy partitions.
	// Keeping busy-partition reads out of the early waves stops them
	// from stalling the shared command/DQ bus frontier for every
	// later wave. Requires Interleave.
	PartitionOverlap bool
	// PauseReads enables device-level write pausing for demand reads:
	// a read targeting a partition with an in-flight program pauses
	// the program, senses, and resumes it (pause overhead charged by
	// the device model). Speculative prefetches never pause.
	PauseReads bool
	// WearLeveling makes the policy wear-aware: start-gap leveling is
	// enabled (with DefaultWear when the config leaves it off) and the
	// leveler's gap-move copies are deferred to the subsystem's idle
	// window instead of contending with the foreground request.
	WearLeveling bool
}

// builtinPolicy is the concrete type behind every registered built-in.
type builtinPolicy struct {
	name string
	desc string
	caps Capabilities
}

func (p *builtinPolicy) Name() string               { return p.name }
func (p *builtinPolicy) Description() string        { return p.desc }
func (p *builtinPolicy) Capabilities() Capabilities { return p.caps }
func (p *builtinPolicy) String() string             { return p.name }

// The paper's four Figure 13 controller configurations.
var (
	// BareMetal processes requests strictly in order: a read's
	// addressing phases never overlap another read's data burst.
	BareMetal Policy = &builtinPolicy{
		name: "bare-metal",
		desc: "strict in-order, no phase overlap",
	}
	// Interleaving is multi-resource-aware interleaving (Figure 12):
	// while one partition senses a row, the data burst of another
	// already-sensed row proceeds on the bus.
	Interleaving Policy = &builtinPolicy{
		name: "interleaving",
		desc: "multi-resource-aware interleaving, Figure 12",
		caps: Capabilities{Interleave: true},
	}
	// SelectiveErasing pre-programs write-intent rows with all-zero
	// words, so the later real writes need only SET pulses
	// (Section V-A).
	SelectiveErasing Policy = &builtinPolicy{
		name: "selective-erasing",
		desc: "pre-RESET of declared write-intent rows, Section V-A",
		caps: Capabilities{SelectiveErase: true},
	}
	// Final combines Interleaving and SelectiveErasing; the paper
	// applies it to DRAM-less by default.
	Final Policy = &builtinPolicy{
		name: "final",
		desc: "interleaving + selective erasing, the paper's DRAM-less default",
		caps: Capabilities{Interleave: true, SelectiveErase: true},
	}
)

// The schedulers beyond the paper that the arena tournament compares
// against Final.
var (
	policyPALP = &builtinPolicy{
		name: "palp",
		desc: "final + PALP-inspired partition read/write overlap (busy-partition reads deferred)",
		caps: Capabilities{Interleave: true, SelectiveErase: true, PartitionOverlap: true},
	}
	policyPauseAware = &builtinPolicy{
		name: "pause-aware",
		desc: "final + write pausing: demand reads preempt in-flight programs",
		caps: Capabilities{Interleave: true, SelectiveErase: true, PauseReads: true},
	}
	policyWearAware = &builtinPolicy{
		name: "wear-aware",
		desc: "final + start-gap leveling with gap moves deferred to idle windows",
		caps: Capabilities{Interleave: true, SelectiveErase: true, WearLeveling: true},
	}
)

// builtins is the policy registry, in the order PolicyNames reports
// and the arena lays out its columns.
var builtins = []Policy{
	BareMetal, Interleaving, SelectiveErasing, Final,
	policyPALP, policyPauseAware, policyWearAware,
}

// Validate reports capability combinations the scheduling machinery
// cannot honor.
func (c Capabilities) Validate() error {
	if c.PartitionOverlap && !c.Interleave {
		return fmt.Errorf("partition overlap requires interleaving (there are no waves to reorder)")
	}
	return nil
}

// Policies returns the registered policies in builtins order.
func Policies() []Policy {
	out := make([]Policy, len(builtins))
	copy(out, builtins)
	return out
}

// PolicyNames returns the registered policy names in builtins order.
func PolicyNames() []string {
	out := make([]string, len(builtins))
	for i, p := range builtins {
		out[i] = p.Name()
	}
	return out
}

// PolicyByName resolves a policy by registry name, case-insensitively.
// Unknown names return an error listing what is registered.
func PolicyByName(name string) (Policy, error) {
	for _, p := range builtins {
		if strings.EqualFold(p.Name(), name) {
			return p, nil
		}
	}
	known := PolicyNames()
	sort.Strings(known)
	return nil, fmt.Errorf("memctrl: unknown scheduling policy %q (known: %s)",
		name, strings.Join(known, ", "))
}

// resolved is the construction-time flattening of a Policy: the
// channel and subsystem hot paths read plain booleans instead of
// calling through the interface, keeping scheduling dispatch off the
// per-request cost model entirely.
type resolved struct {
	name             string
	interleave       bool
	selErase         bool
	partitionOverlap bool
	pauseReads       bool
	wearIdleMoves    bool
	// avoidBusyPrefetch suppresses speculative prefetches into busy
	// partitions: PALP keeps them from extending the partition
	// frontier behind an in-flight program, and pause-aware keeps a
	// speculative sense from pausing a real program.
	avoidBusyPrefetch bool
}

func resolvePolicy(p Policy) resolved {
	caps := p.Capabilities()
	return resolved{
		name:              p.Name(),
		interleave:        caps.Interleave,
		selErase:          caps.SelectiveErase,
		partitionOverlap:  caps.PartitionOverlap,
		pauseReads:        caps.PauseReads,
		wearIdleMoves:     caps.WearLeveling,
		avoidBusyPrefetch: caps.PartitionOverlap || caps.PauseReads,
	}
}
