package accel

import (
	"fmt"

	"dramless/internal/sim"
)

// PEState is one agent's power state under the power/sleep controller
// ("we designate one of PEs as a server to schedule all kernel executions
// on the agents by resuming and suspending them via a power/sleep
// controller (PSC)").
type PEState int

const (
	// StateSleep: clock-gated, waiting for a kernel (Figure 9b step 3).
	StateSleep PEState = iota
	// StateBooting: boot address stored, reboot in flight (steps 4-5).
	StateBooting
	// StateRunning: executing a kernel (step 6).
	StateRunning
)

// String implements fmt.Stringer.
func (s PEState) String() string {
	switch s {
	case StateSleep:
		return "sleep"
	case StateBooting:
		return "booting"
	case StateRunning:
		return "running"
	default:
		return fmt.Sprintf("PEState(%d)", int(s))
	}
}

// PSC tracks every agent's power state over time. The server drives it.
type PSC struct {
	states      []PEState
	since       []sim.Time // when each agent entered its current state
	transitions int
	boots       int64
}

// newPSC returns a controller with all agents asleep at time zero.
func newPSC(agents int) *PSC {
	return &PSC{
		states: make([]PEState, agents),
		since:  make([]sim.Time, agents),
	}
}

func (p *PSC) checkAgent(agent int) error {
	if agent < 0 || agent >= len(p.states) {
		return fmt.Errorf("accel: PSC agent %d outside 0..%d", agent, len(p.states)-1)
	}
	return nil
}

// transition leaves the current state and enters the new one.
func (p *PSC) transition(at sim.Time, agent int, to PEState) error {
	if err := p.checkAgent(agent); err != nil {
		return err
	}
	if at < p.since[agent] {
		return fmt.Errorf("accel: PSC transition for agent %d at %v before %v", agent, at, p.since[agent])
	}
	p.states[agent] = to
	p.since[agent] = at
	p.transitions++
	return nil
}

// Boot moves a sleeping agent through the reboot sequence: the server has
// stored the kernel's boot entry at the agent's magic address and revokes
// it. It returns when the agent starts running (launch overhead later).
func (p *PSC) Boot(at sim.Time, agent int, launch sim.Duration) (running sim.Time, err error) {
	if err := p.checkAgent(agent); err != nil {
		return 0, err
	}
	if p.states[agent] != StateSleep {
		return 0, fmt.Errorf("accel: PSC boot of agent %d in state %v", agent, p.states[agent])
	}
	if err := p.transition(at, agent, StateBooting); err != nil {
		return 0, err
	}
	running = at + launch
	if err := p.transition(running, agent, StateRunning); err != nil {
		return 0, err
	}
	p.boots++
	return running, nil
}

// Sleep suspends a running agent (kernel complete).
func (p *PSC) Sleep(at sim.Time, agent int) error {
	if err := p.checkAgent(agent); err != nil {
		return err
	}
	if p.states[agent] != StateRunning {
		return fmt.Errorf("accel: PSC sleep of agent %d in state %v", agent, p.states[agent])
	}
	return p.transition(at, agent, StateSleep)
}

// Transitions returns how many state changes have been recorded.
func (p *PSC) Transitions() int { return p.transitions }

// Boots returns how many reboot sequences completed (the PSC-reboot
// observability counter: each kernel launch reboots its agents).
func (p *PSC) Boots() int64 { return p.boots }
