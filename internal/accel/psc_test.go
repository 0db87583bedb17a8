package accel

import (
	"testing"

	"dramless/internal/sim"
	"dramless/internal/workload"
)

func TestPSCLifecycle(t *testing.T) {
	p := newPSC(2)
	// Agents start asleep, so a sleep is rejected and a boot accepted.
	if err := p.Sleep(0, 0); err == nil {
		t.Fatal("agents must start asleep")
	}
	running, err := p.Boot(sim.Microseconds(10), 0, sim.Microseconds(5))
	if err != nil {
		t.Fatal(err)
	}
	if running != sim.Microseconds(15) {
		t.Fatalf("running at %v, want 15us", running)
	}
	if _, err := p.Boot(sim.Microseconds(20), 0, sim.Microseconds(5)); err == nil {
		t.Fatal("booting a running agent accepted")
	}
	if err := p.Sleep(sim.Microseconds(40), 0); err != nil {
		t.Fatal(err)
	}
	if p.Transitions() != 3 || p.Boots() != 1 {
		t.Fatalf("transitions = %d, boots = %d, want 3 and 1", p.Transitions(), p.Boots())
	}
	// Back asleep: the next boot starts when asked and runs after the launch.
	running, err = p.Boot(sim.Microseconds(100), 0, sim.Microseconds(5))
	if err != nil {
		t.Fatal(err)
	}
	if running != sim.Microseconds(105) {
		t.Fatalf("second boot running at %v, want 105us", running)
	}
	if p.Transitions() != 5 || p.Boots() != 2 {
		t.Fatalf("transitions = %d, boots = %d, want 5 and 2", p.Transitions(), p.Boots())
	}
}

func TestPSCIllegalTransitions(t *testing.T) {
	p := newPSC(1)
	if err := p.Sleep(0, 0); err == nil {
		t.Error("sleeping a sleeping agent accepted")
	}
	if _, err := p.Boot(0, 5, 1); err == nil {
		t.Error("out-of-range agent accepted")
	}
	if _, err := p.Boot(10, 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Boot(20, 0, 1); err == nil {
		t.Error("booting a running agent accepted")
	}
	if err := p.Sleep(5, 0); err == nil {
		t.Error("time travel accepted")
	}
}

func TestPSCDrivenByRunKernel(t *testing.T) {
	a := MustNew(Default(), fastBackend())
	rep, err := a.RunKernel(0, workload.MustByName("trisolv"), workload.Params{Scale: 32 << 10, Agents: 7})
	if err != nil {
		t.Fatal(err)
	}
	psc := a.PSC()
	// One boot (sleep -> booting -> running) and one sleep per agent.
	if psc.Boots() != int64(a.Agents()) {
		t.Fatalf("boots = %d, want %d", psc.Boots(), a.Agents())
	}
	if psc.Transitions() != 3*a.Agents() {
		t.Fatalf("transitions = %d, want %d", psc.Transitions(), 3*a.Agents())
	}
	for i := 0; i < a.Agents(); i++ {
		running, err := psc.Boot(rep.End, i, a.Config().LaunchOverhead)
		if err != nil {
			t.Fatalf("agent %d not back asleep after the kernel: %v", i, err)
		}
		if running != rep.End+a.Config().LaunchOverhead {
			t.Fatalf("agent %d running at %v, want one launch after %v", i, running, rep.End)
		}
	}
}

func TestPSCDrivenByRunJobs(t *testing.T) {
	a := MustNew(Default(), fastBackend())
	_, err := a.RunJobs(0, []Job{smallJob("gemver", 3), smallJob("durbin", 3)})
	if err != nil {
		t.Fatal(err)
	}
	psc := a.PSC()
	if psc.Boots() != 6 || psc.Transitions() != 18 {
		t.Fatalf("boots = %d, transitions = %d, want 6 and 18 (two 3-agent jobs)",
			psc.Boots(), psc.Transitions())
	}
	for i := 0; i < a.Agents(); i++ {
		if err := psc.Sleep(sim.Second, i); err == nil {
			t.Fatalf("agent %d not asleep", i)
		}
	}
}
