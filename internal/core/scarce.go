package core

import (
	"fmt"

	"ballista/internal/catalog"
	"ballista/internal/chaos"
)

// LeakDelta is the change in live-resource counters across one probed
// call: positive fields mean the call left resources allocated.  The
// scarce sweep's leak oracle flags a positive delta on an error path —
// a call that failed but kept the resources it acquired on the way.
type LeakDelta struct {
	Handles int `json:"handles,omitempty"`
	FDs     int `json:"fds,omitempty"`
	Pages   int `json:"pages,omitempty"`
	Nodes   int `json:"nodes,omitempty"`
	Socks   int `json:"socks,omitempty"`
}

// Leaked reports whether any counter finished above its baseline.
func (d LeakDelta) Leaked() bool {
	return d.Handles > 0 || d.FDs > 0 || d.Pages > 0 || d.Nodes > 0 || d.Socks > 0
}

func (d LeakDelta) String() string {
	return fmt.Sprintf("handles%+d fds%+d pages%+d nodes%+d socks%+d",
		d.Handles, d.FDs, d.Pages, d.Nodes, d.Socks)
}

// ScarceProbe is the observation from one call executed inside a
// depleted-resource environment.
type ScarceProbe struct {
	// Class is the CRASH severity of the call under scarcity.
	Class RawClass `json:"class"`
	// Code is the errno / GetLastError value the call reported.
	Code uint32 `json:"code,omitempty"`
	// ErrReported says the call signalled an error to its caller.
	ErrReported bool `json:"err_reported,omitempty"`
	// Fired counts scarcity faults injected during the call itself: zero
	// means the call never touched a depleted resource.
	Fired uint64 `json:"fired,omitempty"`
	// Leak is the live-counter delta across the call (crashed machines
	// report a zero delta: there is nothing left to measure).
	Leak LeakDelta `json:"leak,omitempty"`
}

// scarceCounters is a point-in-time copy of the live-resource gauges
// the leak oracle tracks.
type scarceCounters struct {
	handles, fds, pages, nodes, socks int
}

func scarceSnapshot(env *Env) scarceCounters {
	return scarceCounters{
		handles: env.P.HandleCount(),
		fds:     env.P.FDCount(),
		pages:   int(env.K.MemStats().LivePages()),
		nodes:   env.K.FS.NodeCount(),
		socks:   env.K.Net.Live(),
	}
}

func (before scarceCounters) delta(after scarceCounters) LeakDelta {
	return LeakDelta{
		Handles: after.handles - before.handles,
		FDs:     after.fds - before.fds,
		Pages:   after.pages - before.pages,
		Nodes:   after.nodes - before.nodes,
		Socks:   after.socks - before.socks,
	}
}

// scarceFired sums the scarcity-op injection counters in a snapshot.
func scarceFired(snap chaos.Snapshot) uint64 {
	var n uint64
	for _, op := range []chaos.Op{
		chaos.OpKernHandle, chaos.OpKernFD, chaos.OpKernSpawn,
		chaos.OpFSDisk, chaos.OpMemPage, chaos.OpNetSock,
	} {
		n += snap.Injected[op]
	}
	return n
}

// RunScarceProbe executes one identified test case inside a depleted-
// resource environment described by plan, and reports the CRASH class,
// the error code, how many scarcity faults fired, and the leak delta.
//
// The environment is armed late, after fixtures, the probe process's
// standard plumbing and the case's constructors have run: the plan's
// slack budgets (rule After fields) describe headroom at the moment of
// the call, so bootstrap allocations must not consume them.  The
// injector is detached again before Env cleanup for the same reason.
func (r *Runner) RunScarceProbe(m catalog.MuT, tc Case, wide bool, plan *chaos.Plan) (*ScarceProbe, error) {
	impl, types, err := r.resolve(m, tc)
	if err != nil {
		return nil, err
	}

	k := r.machine()
	if r.fixture != nil {
		r.fixture(k)
	}
	f := r.newFrame(k, wide)
	defer f.env.Cleanup()
	if !r.prepare(f, m, types, tc) {
		return &ScarceProbe{Class: RawSkip}, nil
	}
	env := &f.env

	// Arm the scarcity session for exactly the call under test.  This
	// defer runs before env.Cleanup's (LIFO), so teardown never consumes
	// the environment's remaining slack either.
	var stats chaos.Stats
	inj := plan.NewInjector(&stats)
	k.SetInjector(inj)
	env.P.AS.SetInjector(inj)
	defer func() {
		k.SetInjector(nil)
		env.P.AS.SetInjector(nil)
	}()

	before := scarceSnapshot(env)

	call := &f.call
	k.EnterSyscall(call.Name)
	impl(call)
	f.finish()
	probe := &ScarceProbe{
		Class:       Classify(&call.Out),
		Code:        call.Out.Err,
		ErrReported: call.Out.ErrReported,
		Fired:       scarceFired(stats.Snapshot()),
	}
	if !k.Crashed() {
		// Measured before cleanup: resources the case's constructors made
		// are inside the baseline, so the delta is what the call itself
		// held on to.
		probe.Leak = before.delta(scarceSnapshot(env))
	}
	if k.Crashed() {
		r.reboot(m.Name)
	}
	return probe, nil
}
