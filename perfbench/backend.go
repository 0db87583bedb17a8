package main

import (
	"dramless/internal/mem"
	"dramless/internal/memctrl"
	"dramless/internal/obs"
	"dramless/internal/sim"
)

// timedSub is the traced run's accelerator backend: it forwards every
// call to the PRAM subsystem inside a memctrl.read / memctrl.write /
// memctrl.drain span. It implements each optional interface the
// subsystem does (mem.ReaderInto, mem.Drainer, mem.Batcher and
// CountersInto), so the accelerator takes exactly the path it takes on
// the bare subsystem and the simulation is unchanged.
type timedSub struct {
	sub *memctrl.Subsystem
	tr  *tracer
}

var (
	_ mem.Device     = (*timedSub)(nil)
	_ mem.ReaderInto = (*timedSub)(nil)
	_ mem.Drainer    = (*timedSub)(nil)
	_ mem.Batcher    = (*timedSub)(nil)
)

func (d *timedSub) Size() uint64 { return d.sub.Size() }

func (d *timedSub) Read(at sim.Time, addr uint64, n int) ([]byte, sim.Time, error) {
	s := d.tr.begin("memctrl.read")
	data, done, err := d.sub.Read(at, addr, n)
	d.tr.end(s)
	return data, done, err
}

func (d *timedSub) ReadInto(at sim.Time, addr uint64, dst []byte) (sim.Time, error) {
	s := d.tr.begin("memctrl.read")
	done, err := d.sub.ReadInto(at, addr, dst)
	d.tr.end(s)
	return done, err
}

func (d *timedSub) ReadRun(now sim.Time, r mem.Run, dst []byte) (mem.RunResult, error) {
	s := d.tr.begin("memctrl.read")
	res, err := d.sub.ReadRun(now, r, dst)
	d.tr.end(s)
	return res, err
}

func (d *timedSub) Write(at sim.Time, addr uint64, data []byte) (sim.Time, error) {
	s := d.tr.begin("memctrl.write")
	done, err := d.sub.Write(at, addr, data)
	d.tr.end(s)
	return done, err
}

func (d *timedSub) WriteRun(now sim.Time, r mem.Run, src []byte) (mem.RunResult, error) {
	s := d.tr.begin("memctrl.write")
	res, err := d.sub.WriteRun(now, r, src)
	d.tr.end(s)
	return res, err
}

func (d *timedSub) Drain() sim.Time {
	s := d.tr.begin("memctrl.drain")
	done := d.sub.Drain()
	d.tr.end(s)
	return done
}

func (d *timedSub) CountersInto(c *obs.Counters) { d.sub.CountersInto(c) }
