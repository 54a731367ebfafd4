package kern

import (
	"strings"
	"testing"
	"testing/quick"

	"ballista/internal/sim/mem"
)

func TestCrashModel(t *testing.T) {
	k := New(Arch9x)
	if k.Crashed() {
		t.Fatal("fresh kernel is crashed")
	}
	k.Crash("test blue screen")
	if !k.Crashed() || k.CrashReason() != "test blue screen" {
		t.Fatalf("Crash: %v %q", k.Crashed(), k.CrashReason())
	}
	// First reason wins.
	k.Crash("second")
	if k.CrashReason() != "test blue screen" {
		t.Error("crash reason overwritten")
	}
	k.Reboot()
	if k.Crashed() || k.Corruption() != 0 || k.Epoch != 1 {
		t.Errorf("Reboot: crashed=%v corruption=%d epoch=%d", k.Crashed(), k.Corruption(), k.Epoch)
	}
}

func TestCorruptionAccumulation(t *testing.T) {
	k := New(Arch9x)
	// One harness-only hit survives...
	k.Corrupt(CorruptionStep, "DuplicateHandle")
	if k.Crashed() {
		t.Fatal("one corruption step should not crash")
	}
	// ...but a campaign's worth crosses the threshold.
	k.Corrupt(CorruptionStep, "DuplicateHandle")
	if !k.Crashed() {
		t.Fatal("accumulated corruption should crash")
	}
	if !strings.Contains(k.CrashReason(), "DuplicateHandle") {
		t.Errorf("crash reason should name the last writer: %q", k.CrashReason())
	}
}

func TestRawWriteArchitectures(t *testing.T) {
	// On a shared-arena machine, a kernel write through a NULL pointer is
	// a machine crash; on a probing architecture it is a caught fault.
	for _, tt := range []struct {
		arch Arch
		want RawResult
	}{
		{Arch9x, RawCrashed},
		{ArchCE, RawCrashed},
		{ArchNT, RawFault},
		{ArchUnix, RawFault},
	} {
		k := New(tt.arch)
		p := k.NewProcess()
		got := k.RawWrite(p.AS, 0, []byte{1, 2, 3})
		if got != tt.want {
			t.Errorf("%s: RawWrite(NULL) = %v, want %v", tt.arch.Name, got, tt.want)
		}
		if (got == RawCrashed) != k.Crashed() {
			t.Errorf("%s: crash flag inconsistent", tt.arch.Name)
		}
	}
}

func TestRawWriteValidPointer(t *testing.T) {
	k := New(Arch9x)
	p := k.NewProcess()
	a, err := p.AS.Alloc(64, mem.ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	if got := k.RawWrite(p.AS, a, []byte("ok")); got != RawOK {
		t.Errorf("RawWrite(valid) = %v", got)
	}
	if k.Crashed() {
		t.Error("valid raw write crashed the machine")
	}
}

func TestRawReadUnmappedCrashesSharedArena(t *testing.T) {
	k := New(ArchCE)
	p := k.NewProcess()
	if _, got := k.RawRead(p.AS, 0x2064696C, 16); got != RawCrashed {
		t.Errorf("CE raw read of garbage = %v, want RawCrashed", got)
	}
}

func TestProbe(t *testing.T) {
	k := New(ArchNT)
	p := k.NewProcess()
	a, _ := p.AS.Alloc(mem.PageSize, mem.ProtRead)
	tests := []struct {
		name  string
		addr  mem.Addr
		size  uint32
		write bool
		want  bool
	}{
		{"null", 0, 4, false, false},
		{"valid read", a, 64, false, true},
		{"write to read-only", a, 4, true, false},
		{"system arena", 0x80002000, 4, false, false},
		{"kernel range", 0xC0000010, 4, false, false},
		{"unmapped", 0x7F000000, 4, false, false},
	}
	for _, tt := range tests {
		if got := k.Probe(p.AS, tt.addr, tt.size, tt.write); got != tt.want {
			t.Errorf("Probe %s = %v, want %v", tt.name, got, tt.want)
		}
	}
}

func TestHandleTable(t *testing.T) {
	k := New(ArchNT)
	p := k.NewProcess()
	o := &Object{Kind: KEvent}
	h := p.AddHandle(o)
	if got := p.Handle(h); got != o {
		t.Fatal("Handle does not resolve")
	}
	if !p.CloseHandle(h) {
		t.Fatal("CloseHandle failed")
	}
	if p.Handle(h) != nil {
		t.Error("closed handle still resolves")
	}
	if p.CloseHandle(h) {
		t.Error("double CloseHandle succeeded")
	}
}

func TestPseudoHandles(t *testing.T) {
	k := New(ArchNT)
	p := k.NewProcess()
	if o := p.Handle(PseudoProcess); o == nil || o.Kind != KProcess || o.Proc != p {
		t.Error("PseudoProcess does not resolve to own process")
	}
	if o := p.Handle(PseudoThread); o == nil || o.Kind != KThread || o.Thread != p.Thread {
		t.Error("PseudoThread does not resolve to main thread")
	}
}

func TestHandleRefcount(t *testing.T) {
	k := New(ArchNT)
	p := k.NewProcess()
	o := &Object{Kind: KEvent}
	h1 := p.AddHandle(o)
	h2 := p.AddHandle(o)
	p.CloseHandle(h1)
	if o.Closed() {
		t.Fatal("object destroyed while a handle remains")
	}
	p.CloseHandle(h2)
	if !o.Closed() {
		t.Fatal("object not destroyed when last handle closed")
	}
}

func TestFDTable(t *testing.T) {
	k := New(ArchUnix)
	p := k.NewProcess()
	// 0,1,2 pre-wired.
	for fd := 0; fd <= 2; fd++ {
		if p.FD(fd) == nil {
			t.Fatalf("std fd %d missing", fd)
		}
	}
	fd := p.AddFD(&FD{Read: true})
	if fd != 3 {
		t.Errorf("first free fd = %d, want 3", fd)
	}
	if !p.CloseFD(fd) {
		t.Fatal("CloseFD failed")
	}
	if p.FD(fd) != nil {
		t.Error("closed fd resolves")
	}
	// Lowest-free-slot reuse.
	if got := p.AddFD(&FD{}); got != 3 {
		t.Errorf("fd reuse = %d, want 3", got)
	}
}

func TestWaitSemantics(t *testing.T) {
	k := New(ArchNT)
	p := k.NewProcess()

	signaled := &Object{Kind: KEvent, Signaled: true}
	if got := p.Wait(signaled, 100); got != WaitSignaled {
		t.Errorf("signaled event: %v", got)
	}
	if signaled.Signaled {
		t.Error("auto-reset event still signaled after wait")
	}

	manual := &Object{Kind: KEvent, Signaled: true, ManualReset: true}
	_ = p.Wait(manual, 0)
	if !manual.Signaled {
		t.Error("manual-reset event cleared by wait")
	}

	unsignaled := &Object{Kind: KEvent}
	if got := p.Wait(unsignaled, 50); got != WaitTimeout {
		t.Errorf("finite wait on unsignaled: %v", got)
	}
	if got := p.Wait(unsignaled, InfiniteTimeout); got != WaitForever {
		t.Errorf("infinite wait on unsignaled: %v", got)
	}

	sem := &Object{Kind: KSemaphore, Count: 1, MaxCount: 4, Signaled: true}
	if got := p.Wait(sem, 0); got != WaitSignaled {
		t.Errorf("semaphore wait: %v", got)
	}
	if sem.Count != 0 {
		t.Errorf("semaphore count after wait: %d", sem.Count)
	}

	mtx := &Object{Kind: KMutex}
	if got := p.Wait(mtx, 0); got != WaitSignaled {
		t.Errorf("free mutex wait: %v", got)
	}
	if mtx.OwnerTID != p.Thread.TID {
		t.Error("mutex ownership not taken")
	}
}

func TestHeap(t *testing.T) {
	h := NewHeap(0x10000, 4096, 0, true)
	a := h.Alloc(100)
	if a == 0 {
		t.Fatal("Alloc failed")
	}
	if h.BlockSize(a) == 0 {
		t.Error("BlockSize of live block zero")
	}
	if !h.Free(a) {
		t.Fatal("Free failed")
	}
	if h.Free(a) {
		t.Error("double Free succeeded")
	}
	if h.Alloc(1<<20) != 0 {
		t.Error("over-capacity Alloc succeeded")
	}
	if h.Live() != 0 {
		t.Errorf("Live = %d", h.Live())
	}
}

// TestHandleUniquenessProperty: handles never collide (testing/quick).
func TestHandleUniquenessProperty(t *testing.T) {
	k := New(ArchNT)
	p := k.NewProcess()
	seen := make(map[Handle]bool)
	prop := func(_ uint8) bool {
		h := p.AddHandle(&Object{Kind: KEvent})
		if seen[h] {
			return false
		}
		seen[h] = true
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	k := New(ArchNT)
	before := k.Ticks()
	k.Sleep(500)
	if k.Ticks() != before+500 {
		t.Errorf("Sleep advanced %d, want 500", k.Ticks()-before)
	}
}

func TestPIDsDistinct(t *testing.T) {
	k := New(ArchUnix)
	a := k.NewProcess()
	b := k.NewProcess()
	if a.PID == b.PID {
		t.Error("duplicate PIDs")
	}
}

func TestAdvanceClockMovesForwardOnly(t *testing.T) {
	k := New(ArchNT)
	k.AdvanceClock(40)
	if k.Ticks() != 40 {
		t.Fatalf("AdvanceClock(40) on a fresh kernel: ticks %d", k.Ticks())
	}
	k.AdvanceClock(10)
	if k.Ticks() != 40 {
		t.Fatalf("AdvanceClock moved the clock back to %d", k.Ticks())
	}
	if k.Tick() != 41 {
		t.Fatal("the clock does not continue from the advanced tick")
	}
}
