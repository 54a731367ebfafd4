package kern

import (
	"slices"
	"testing"

	"ballista/internal/chaos"
	"ballista/internal/sim/mem"
)

// dirty changes everything a test case can change about its own
// process: tables grown past their inline rows, environment, standard
// handles, console output, TLS, error state and written memory.
func dirty(t *testing.T, p *Process) {
	t.Helper()
	for i := 0; i < 6; i++ {
		p.AddHandle(&Object{Kind: KEvent})
	}
	p.AddFD(&FD{Read: true})
	p.CloseFD(1)
	p.Setenv("BALLISTA", "dirty")
	p.Unsetenv("PATH")
	p.SetStd(1, 0x40)
	p.Thread.State = ThreadExited
	p.Object().Signaled = true
	p.FD(0).Pipe.Buf = append(p.FD(0).Pipe.Buf, "typed"...)
	p.Cwd, p.LastError, p.Errno, p.Umask, p.ErrMode, p.Priority = "/tmp", 5, 2, 0o77, 3, 15
	p.TLS[3], p.TLSUsed = 7, 1<<3
	p.Exited, p.ExitCode = true, 9
	a, err := p.AS.Alloc(3*mem.PageSize, mem.ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	if f := p.AS.WriteCString(a+10, "left behind"); f != nil {
		t.Fatal(f)
	}
	p.AS.SetQuota(1 << 20)
}

// sameFreshProcess checks that got starts exactly as want, a process
// NewProcess made on an identically driven machine.
func sameFreshProcess(t *testing.T, got, want *Process) {
	t.Helper()
	if got.PID != want.PID || got.Thread.TID != want.Thread.TID || got.Thread.State != want.Thread.State {
		t.Errorf("pid/tid/state %d/%d/%v, want %d/%d/%v", got.PID, got.Thread.TID, got.Thread.State,
			want.PID, want.Thread.TID, want.Thread.State)
	}
	if got.HandleCount() != want.HandleCount() || got.FDCount() != want.FDCount() {
		t.Errorf("%d handles and %d fds, want %d and %d", got.HandleCount(), got.FDCount(), want.HandleCount(), want.FDCount())
	}
	if !slices.Equal(got.Environ(), want.Environ()) {
		t.Errorf("environment %q, want %q", got.Environ(), want.Environ())
	}
	for slot := 0; slot < 3; slot++ {
		if got.Std(slot) != want.Std(slot) {
			t.Errorf("std slot %d is %#x, want %#x", slot, got.Std(slot), want.Std(slot))
		}
		o, w := got.Handle(got.Std(slot)), want.Handle(want.Std(slot))
		if o == nil || o.Kind != w.Kind || o.Signaled != w.Signaled || len(o.Pipe.Buf) != 0 ||
			o.Pipe.ReadersOpen != w.Pipe.ReadersOpen || o.Pipe.WritersOpen != w.Pipe.WritersOpen ||
			o.Pipe.Capacity != w.Pipe.Capacity || o.Pipe.Input != w.Pipe.Input {
			t.Errorf("std slot %d object %+v, want %+v", slot, o, w)
		}
		if f, wf := got.FD(slot), want.FD(slot); f == nil || f.Read != wf.Read || f.Write != wf.Write || len(f.Pipe.Buf) != 0 {
			t.Errorf("fd %d is %+v, want %+v", slot, f, wf)
		}
	}
	if got.Object().Signaled || got.Object().Proc != got || got.Thread.Proc != got || got.Thread.Object().Thread != got.Thread {
		t.Error("process and thread objects do not describe the fresh process")
	}
	if got.Cwd != want.Cwd || got.LastError != 0 || got.Errno != 0 || got.Umask != 0 || got.ErrMode != 0 ||
		got.Priority != 0 || got.TLS != want.TLS || got.TLSUsed != want.TLSUsed || got.Exited || got.ExitCode != 0 {
		t.Errorf("process state %+v, want fresh", got)
	}
	if got.AS.MappedBytes() != 0 || got.AS.PageCount() != 0 {
		t.Errorf("address space maps %d bytes, want none", got.AS.MappedBytes())
	}
	backed := 0
	got.AS.EachBacking(func(uint32, *[mem.PageSize]byte) { backed++ })
	if backed != 0 {
		t.Errorf("%d pages of the last process still hold backings", backed)
	}
	a, err := got.AS.Alloc(3*mem.PageSize, mem.ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	if s, f := got.AS.CString(a + 10); f != nil || s != "" {
		t.Errorf("memory the last process wrote reads %q, %v; want zeros", s, f)
	}
	if err := got.AS.Map(mem.UserBase, 4<<20, mem.ProtRW); err != nil {
		t.Errorf("a quota outlived its process: %v", err)
	}
}

// TestArenaProcessStartsFresh: a process started in an arena whose last
// process changed everything it could is indistinguishable from one
// NewProcess makes, while it reuses the same memory.
func TestArenaProcessStartsFresh(t *testing.T) {
	k, ref := New(ArchNT), New(ArchNT)
	var a Arena
	first := a.Process(k)
	dirty(t, ref.NewProcess())
	dirty(t, first)
	next := a.Process(k)
	if next != first {
		t.Error("the arena did not reuse its process block")
	}
	sameFreshProcess(t, next, ref.NewProcess())
	if k.Stats().Processes != 2 || ref.Stats().Processes != 2 {
		t.Errorf("processes counted %d, want 2 as NewProcess counts", k.Stats().Processes)
	}
}

// TestArenaRecyclesOnlyProcessMemory: on a shared machine, the kernel
// objects, pipes and child processes a process created are not its own
// memory, so starting the next process in the arena leaves them as the
// machine holds them.
func TestArenaRecyclesOnlyProcessMemory(t *testing.T) {
	k := New(ArchNT)
	var a Arena
	p := a.Process(k)
	ev := &Object{Kind: KEvent, Name: "shared-event", Signaled: true}
	p.AddHandle(ev)
	pipe := &Pipe{Buf: []byte("queued"), ReadersOpen: 1, WritersOpen: 1, Capacity: 64}
	p.AddHandle(&Object{Kind: KPipe, Pipe: pipe})
	child := k.NewProcess()
	p.AddHandle(child.Object())
	ca, err := child.AS.Alloc(mem.PageSize, mem.ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	if f := child.AS.WriteCString(ca, "child memory"); f != nil {
		t.Fatal(f)
	}
	if f := p.AS.Write(mustAlloc(t, p), []byte("parent memory")); f != nil {
		t.Fatal(f)
	}

	a.Process(k)
	if ev.Kind != KEvent || ev.Name != "shared-event" || !ev.Signaled || ev.refs != 1 || ev.closed {
		t.Errorf("event the last process opened changed: %+v", ev)
	}
	if string(pipe.Buf) != "queued" || pipe.ReadersOpen != 1 || pipe.WritersOpen != 1 {
		t.Errorf("pipe the last process opened changed: %+v", pipe)
	}
	if child.Object().Proc != child || child.Thread.Proc != child || child.HandleCount() != 3 || child.PID != 2 {
		t.Errorf("child process changed: pid %d, %d handles", child.PID, child.HandleCount())
	}
	if s, f := child.AS.CString(ca); f != nil || s != "child memory" {
		t.Errorf("child memory reads %q, %v", s, f)
	}
}

func mustAlloc(t *testing.T, p *Process) mem.Addr {
	t.Helper()
	a, err := p.AS.Alloc(mem.PageSize, mem.ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestArenaProcessIgnoresSpawnScarcity: kern.spawn models a machine out
// of process slots for fork and CreateProcess.  The harness's own test
// process is not a spawn by the code under test, so it never consults
// the rule and never fails.
func TestArenaProcessIgnoresSpawnScarcity(t *testing.T) {
	k := New(ArchNT)
	stats := chaos.NewStats()
	plan := &chaos.Plan{Seed: 1, Rules: []chaos.Rule{{Op: chaos.OpKernSpawn, RatePerMille: 1000}}}
	k.SetInjector(plan.NewInjector(stats))
	var a Arena
	for i := 0; i < 3; i++ {
		if a.Process(k) == nil {
			t.Fatal("the arena's process was refused a slot")
		}
	}
	if k.NewProcess() != nil {
		t.Error("NewProcess ignored an armed kern.spawn rule")
	}
	if n := stats.Snapshot().Injected[chaos.OpKernSpawn]; n != 1 {
		t.Errorf("kern.spawn fired %d times, want 1 (the NewProcess call)", n)
	}
}
