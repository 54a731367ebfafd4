package winapi

import (
	"testing"

	"ballista/internal/api"
	"ballista/internal/osprofile"
	"ballista/internal/sim/kern"
	"ballista/internal/sim/mem"
)

var impls = Impls()

func TestImplCensus(t *testing.T) {
	// The paper's 143 Win32 system calls plus the 10 post-paper
	// Winsock calls.
	if len(impls) != 153 {
		t.Errorf("Win32 registry has %d calls, want 153", len(impls))
	}
}

func newProc(t *testing.T, o osprofile.OS) (*kern.Kernel, *kern.Process) {
	t.Helper()
	k := osprofile.Get(o).NewKernel()
	if err := k.FS.MkdirAll("/bl", 0o7); err != nil {
		t.Fatal(err)
	}
	n, err := k.FS.Create("/bl/readable.txt", 0o6, true)
	if err != nil {
		t.Fatal(err)
	}
	k.FS.SetData(n, []byte("win32 fixture data"))
	return k, k.NewProcess()
}

func run(t *testing.T, o osprofile.OS, k *kern.Kernel, p *kern.Process, name string, args ...api.Arg) *api.Call {
	t.Helper()
	prof := osprofile.Get(o)
	c := &api.Call{K: k, P: p, Name: name, Args: args, Traits: prof.Traits, Def: prof.Defect(name)}
	impl, ok := impls[name]
	if !ok {
		t.Fatalf("no impl %q", name)
	}
	impl(c)
	if !c.Done() {
		c.Ret(0)
	}
	return c
}

// TestListing1 reproduces the paper's Listing 1 verbatim:
//
//	GetThreadContext(GetCurrentThread(), NULL);
//
// crashes Windows 95, Windows 98 (and 98 SE and CE) every time, while
// Windows NT and 2000 take an access violation in the caller instead.
func TestListing1(t *testing.T) {
	for _, tt := range []struct {
		os    osprofile.OS
		crash bool
	}{
		{osprofile.Win95, true},
		{osprofile.Win98, true},
		{osprofile.Win98SE, true},
		{osprofile.WinCE, true},
		{osprofile.WinNT, false},
		{osprofile.Win2000, false},
	} {
		k, p := newProc(t, tt.os)
		cur := run(t, tt.os, k, p, "GetCurrentThread")
		c := run(t, tt.os, k, p, "GetThreadContext",
			api.HandleArg(kern.Handle(uint32(cur.Out.Ret))), api.Ptr(0))
		if tt.crash {
			if !c.Out.Crashed {
				t.Errorf("%s: Listing 1 did not crash: %+v", tt.os, c.Out)
			}
		} else {
			if c.Out.Crashed {
				t.Errorf("%s: Listing 1 crashed (should be an Abort)", tt.os)
			}
			if c.Out.Exception != api.ExcAccessViolation {
				t.Errorf("%s: Listing 1 should raise an access violation: %+v", tt.os, c.Out)
			}
		}
	}
}

func TestGetThreadContextValid(t *testing.T) {
	// With a valid buffer the call succeeds everywhere — the defect only
	// bites on exceptional pointers.
	for _, o := range []osprofile.OS{osprofile.Win98, osprofile.WinNT} {
		k, p := newProc(t, o)
		buf, _ := p.AS.Alloc(716, mem.ProtRW)
		c := run(t, o, k, p, "GetThreadContext", api.HandleArg(kern.PseudoThread), api.Ptr(buf))
		if c.Out.Ret != 1 || c.Out.Crashed {
			t.Errorf("%s: valid GetThreadContext: %+v", o, c.Out)
		}
	}
}

func TestCloseHandle(t *testing.T) {
	k, p := newProc(t, osprofile.WinNT)
	h := p.AddHandle(&kern.Object{Kind: kern.KEvent})
	c := run(t, osprofile.WinNT, k, p, "CloseHandle", api.HandleArg(h))
	if c.Out.Ret != 1 {
		t.Fatalf("CloseHandle: %+v", c.Out)
	}
	c = run(t, osprofile.WinNT, k, p, "CloseHandle", api.HandleArg(h))
	if !c.Out.ErrReported || c.Out.Err != api.ErrorInvalidHandle {
		t.Errorf("double CloseHandle: %+v", c.Out)
	}
	// Pseudo-handles are a no-op success.
	c = run(t, osprofile.WinNT, k, p, "CloseHandle", api.HandleArg(kern.PseudoProcess))
	if c.Out.Ret != 1 {
		t.Errorf("CloseHandle(pseudo): %+v", c.Out)
	}
}

func TestCreateFileReadFile(t *testing.T) {
	k, p := newProc(t, osprofile.WinNT)
	path, _ := p.AS.Alloc(64, mem.ProtRW)
	_ = p.AS.WriteCString(path, "/bl/readable.txt")
	c := run(t, osprofile.WinNT, k, p, "CreateFile",
		api.Ptr(path), api.Int(int64(int32(-0x80000000))), api.Int(1), api.Ptr(0),
		api.Int(3), api.Int(0x80), api.HandleArg(0))
	if c.Out.ErrReported {
		t.Fatalf("CreateFile: %+v", c.Out)
	}
	h := kern.Handle(uint32(c.Out.Ret))
	buf, _ := p.AS.Alloc(64, mem.ProtRW)
	nread, _ := p.AS.Alloc(4, mem.ProtRW)
	c = run(t, osprofile.WinNT, k, p, "ReadFile",
		api.HandleArg(h), api.Ptr(buf), api.Int(5), api.Ptr(nread), api.Ptr(0))
	if c.Out.Ret != 1 {
		t.Fatalf("ReadFile: %+v", c.Out)
	}
	got, _ := p.AS.Read(buf, 5)
	if string(got) != "win32" {
		t.Errorf("ReadFile data = %q", got)
	}
	n, _ := p.AS.ReadU32(nread)
	if n != 5 {
		t.Errorf("bytes read = %d", n)
	}
}

func TestReadFileBadBufferByArch(t *testing.T) {
	// Valid handle, unmapped buffer: NT throws; Linux-style EFAULT is not
	// applicable here; 9x picks a stub policy (error, silent, or AV).
	open := func(o osprofile.OS) (*kern.Kernel, *kern.Process, kern.Handle) {
		k, p := newProc(t, o)
		of, err := k.FS.Open("/bl/readable.txt", true, false)
		if err != nil {
			t.Fatal(err)
		}
		return k, p, p.AddHandle(&kern.Object{Kind: kern.KFile, File: of})
	}
	k, p, h := open(osprofile.WinNT)
	nread, _ := p.AS.Alloc(4, mem.ProtRW)
	c := run(t, osprofile.WinNT, k, p, "ReadFile",
		api.HandleArg(h), api.Ptr(0x7F000000), api.Int(16), api.Ptr(nread), api.Ptr(0))
	if c.Out.Exception != api.ExcAccessViolation {
		t.Errorf("NT ReadFile(bad buf): %+v", c.Out)
	}
}

func TestReadFileInvalidHandle(t *testing.T) {
	k, p := newProc(t, osprofile.WinNT)
	buf, _ := p.AS.Alloc(16, mem.ProtRW)
	nread, _ := p.AS.Alloc(4, mem.ProtRW)
	c := run(t, osprofile.WinNT, k, p, "ReadFile",
		api.HandleArg(0xBAD), api.Ptr(buf), api.Int(4), api.Ptr(nread), api.Ptr(0))
	if !c.Out.ErrReported || c.Out.Err != api.ErrorInvalidHandle {
		t.Errorf("ReadFile(bad handle): %+v", c.Out)
	}
}

func TestWaitFamily(t *testing.T) {
	k, p := newProc(t, osprofile.WinNT)
	sig := p.AddHandle(&kern.Object{Kind: kern.KEvent, Signaled: true})
	c := run(t, osprofile.WinNT, k, p, "WaitForSingleObject", api.HandleArg(sig), api.Int(100))
	if c.Out.Ret != int64(api.WaitObject0) {
		t.Errorf("signaled wait: %+v", c.Out)
	}
	un := p.AddHandle(&kern.Object{Kind: kern.KEvent})
	c = run(t, osprofile.WinNT, k, p, "WaitForSingleObject", api.HandleArg(un), api.Int(50))
	if uint32(c.Out.Ret) != api.WaitTimeoutCode {
		t.Errorf("timed-out wait: %+v", c.Out)
	}
	c = run(t, osprofile.WinNT, k, p, "WaitForSingleObject", api.HandleArg(un), api.Int(-1))
	if !c.Out.Hung {
		t.Errorf("infinite wait on unsignaled object should hang: %+v", c.Out)
	}
	c = run(t, osprofile.WinNT, k, p, "WaitForSingleObject", api.HandleArg(0xBAD), api.Int(0))
	if uint32(c.Out.Ret) != api.WaitFailed || c.Out.Err != api.ErrorInvalidHandle {
		t.Errorf("wait on bad handle: %+v", c.Out)
	}
}

func TestSleepInfiniteHangs(t *testing.T) {
	k, p := newProc(t, osprofile.WinNT)
	c := run(t, osprofile.WinNT, k, p, "Sleep", api.Int(-1))
	if !c.Out.Hung {
		t.Errorf("Sleep(INFINITE): %+v", c.Out)
	}
	c = run(t, osprofile.WinNT, k, p, "Sleep", api.Int(10))
	if c.Out.Hung {
		t.Error("Sleep(10) hung")
	}
}

// TestMsgWaitCrashes9x: the second Table 3 crasher — a bad handle array
// read raw by the 9x kernel.
func TestMsgWaitCrashes9x(t *testing.T) {
	k, p := newProc(t, osprofile.Win95)
	c := run(t, osprofile.Win95, k, p, "MsgWaitForMultipleObjects",
		api.Int(2), api.Ptr(0x7F000000), api.Int(0), api.Int(100), api.Int(0x4FF))
	if !c.Out.Crashed {
		t.Errorf("Win95 MsgWait(bad array) should crash: %+v", c.Out)
	}
	// NT survives with an exception.
	k2, p2 := newProc(t, osprofile.WinNT)
	c = run(t, osprofile.WinNT, k2, p2, "MsgWaitForMultipleObjects",
		api.Int(2), api.Ptr(0x7F000000), api.Int(0), api.Int(100), api.Int(0x4FF))
	if c.Out.Crashed || c.Out.Exception != api.ExcAccessViolation {
		t.Errorf("NT MsgWait(bad array): %+v", c.Out)
	}
}

// TestHeapCreateWin95: wild sizes crash Windows 95 immediately (Table 3,
// no asterisk), and only Windows 95.
func TestHeapCreateWin95(t *testing.T) {
	k, p := newProc(t, osprofile.Win95)
	c := run(t, osprofile.Win95, k, p, "HeapCreate", api.Int(0), api.Int(0x7FF00000), api.Int(0))
	if !c.Out.Crashed {
		t.Errorf("Win95 HeapCreate(huge) should crash: %+v", c.Out)
	}
	for _, o := range []osprofile.OS{osprofile.Win98, osprofile.WinNT} {
		k, p := newProc(t, o)
		c := run(t, o, k, p, "HeapCreate", api.Int(0), api.Int(0x7FF00000), api.Int(0))
		if c.Out.Crashed {
			t.Errorf("%s HeapCreate(huge) crashed", o)
		}
	}
}

func TestHeapLifecycle(t *testing.T) {
	k, p := newProc(t, osprofile.WinNT)
	c := run(t, osprofile.WinNT, k, p, "HeapCreate", api.Int(0), api.Int(4096), api.Int(65536))
	if c.Out.ErrReported {
		t.Fatalf("HeapCreate: %+v", c.Out)
	}
	h := kern.Handle(uint32(c.Out.Ret))
	c = run(t, osprofile.WinNT, k, p, "HeapAlloc", api.HandleArg(h), api.Int(0), api.Int(256))
	if c.Out.Ret == 0 {
		t.Fatalf("HeapAlloc: %+v", c.Out)
	}
	blk := c.Out.Ret
	c = run(t, osprofile.WinNT, k, p, "HeapSize", api.HandleArg(h), api.Int(0), api.Int(blk))
	if c.Out.Ret < 256 {
		t.Errorf("HeapSize = %d", c.Out.Ret)
	}
	c = run(t, osprofile.WinNT, k, p, "HeapFree", api.HandleArg(h), api.Int(0), api.Int(blk))
	if c.Out.Ret != 1 {
		t.Errorf("HeapFree: %+v", c.Out)
	}
	c = run(t, osprofile.WinNT, k, p, "HeapValidate", api.HandleArg(h), api.Int(0), api.Int(blk))
	if c.Out.Ret != 0 {
		t.Errorf("HeapValidate(freed block) = %d, want FALSE", c.Out.Ret)
	}
	c = run(t, osprofile.WinNT, k, p, "HeapDestroy", api.HandleArg(h))
	if c.Out.Ret != 1 {
		t.Errorf("HeapDestroy: %+v", c.Out)
	}
}

func TestHeapAllocGenerateExceptions(t *testing.T) {
	k, p := newProc(t, osprofile.WinNT)
	c := run(t, osprofile.WinNT, k, p, "HeapCreate", api.Int(0), api.Int(4096), api.Int(8192))
	h := kern.Handle(uint32(c.Out.Ret))
	c = run(t, osprofile.WinNT, k, p, "HeapAlloc", api.HandleArg(h), api.Int(0x04), api.Int(1<<20))
	if c.Out.Exception != api.StatusNoMemory {
		t.Errorf("HEAP_GENERATE_EXCEPTIONS: %+v", c.Out)
	}
}

func TestVirtualAllocCE(t *testing.T) {
	k, p := newProc(t, osprofile.WinCE)
	c := run(t, osprofile.WinCE, k, p, "VirtualAlloc", api.Ptr(0), api.Int(0x7F000000), api.Int(0x1000), api.Int(0x04))
	if !c.Out.Crashed {
		t.Errorf("CE VirtualAlloc(huge) should crash: %+v", c.Out)
	}
	k2, p2 := newProc(t, osprofile.WinNT)
	c = run(t, osprofile.WinNT, k2, p2, "VirtualAlloc", api.Ptr(0), api.Int(0x7F000000), api.Int(0x1000), api.Int(0x04))
	if c.Out.Crashed || !c.Out.ErrReported {
		t.Errorf("NT VirtualAlloc(huge): %+v", c.Out)
	}
}

func TestVirtualAllocRoundTrip(t *testing.T) {
	k, p := newProc(t, osprofile.WinNT)
	c := run(t, osprofile.WinNT, k, p, "VirtualAlloc", api.Ptr(0), api.Int(8192), api.Int(0x3000), api.Int(0x04))
	if c.Out.Ret == 0 {
		t.Fatalf("VirtualAlloc: %+v", c.Out)
	}
	base := mem.Addr(uint32(c.Out.Ret))
	if f := p.AS.Write(base, []byte("committed")); f != nil {
		t.Errorf("allocated memory not writable: %v", f)
	}
	c = run(t, osprofile.WinNT, k, p, "VirtualFree", api.Ptr(base), api.Int(0), api.Int(0x8000))
	if c.Out.Ret != 1 {
		t.Errorf("VirtualFree: %+v", c.Out)
	}
}

func TestIsBadReadPtrNeverFaults(t *testing.T) {
	k, p := newProc(t, osprofile.WinNT)
	c := run(t, osprofile.WinNT, k, p, "IsBadReadPtr", api.Ptr(0), api.Int(4))
	if c.Out.Ret != 1 || c.Out.Exception != 0 {
		t.Errorf("IsBadReadPtr(NULL): %+v", c.Out)
	}
	a, _ := p.AS.Alloc(64, mem.ProtRW)
	c = run(t, osprofile.WinNT, k, p, "IsBadReadPtr", api.Ptr(a), api.Int(4))
	if c.Out.Ret != 0 {
		t.Errorf("IsBadReadPtr(valid): %+v", c.Out)
	}
}

func TestGetSetEnvironmentVariable(t *testing.T) {
	k, p := newProc(t, osprofile.WinNT)
	name, _ := p.AS.Alloc(32, mem.ProtRW)
	_ = p.AS.WriteCString(name, "BALLISTA_VAR")
	val, _ := p.AS.Alloc(32, mem.ProtRW)
	_ = p.AS.WriteCString(val, "42")
	c := run(t, osprofile.WinNT, k, p, "SetEnvironmentVariable", api.Ptr(name), api.Ptr(val))
	if c.Out.Ret != 1 {
		t.Fatalf("SetEnvironmentVariable: %+v", c.Out)
	}
	buf, _ := p.AS.Alloc(64, mem.ProtRW)
	c = run(t, osprofile.WinNT, k, p, "GetEnvironmentVariable", api.Ptr(name), api.Ptr(buf), api.Int(64))
	if c.Out.Ret != 2 {
		t.Fatalf("GetEnvironmentVariable: %+v", c.Out)
	}
	got, _ := p.AS.CString(buf)
	if got != "42" {
		t.Errorf("env value = %q", got)
	}
	// Buffer too small: returns the required size.
	c = run(t, osprofile.WinNT, k, p, "GetEnvironmentVariable", api.Ptr(name), api.Ptr(buf), api.Int(1))
	if c.Out.Ret != 3 {
		t.Errorf("required-size protocol: %+v", c.Out)
	}
}

// TestGetEnvironmentStringsIsSorted: the environment block lists the
// variables sorted by name, as Windows keeps it, so the same case writes
// the same bytes in every process.
func TestGetEnvironmentStringsIsSorted(t *testing.T) {
	const want = "HOME=/home/ballista\x00PATH=/bin\x00TEMP=/tmp\x00\x00"
	for i := 0; i < 20; i++ {
		k, p := newProc(t, osprofile.WinNT)
		c := run(t, osprofile.WinNT, k, p, "GetEnvironmentStrings")
		if c.Out.Ret == 0 {
			t.Fatalf("GetEnvironmentStrings: %+v", c.Out)
		}
		got, f := p.AS.Read(mem.Addr(uint32(c.Out.Ret)), uint32(len(want)))
		if f != nil || string(got) != want {
			t.Fatalf("process %d: block %q %v, want %q", i, got, f, want)
		}
	}
}

func TestFindFirstNextClose(t *testing.T) {
	k, p := newProc(t, osprofile.WinNT)
	_ = k.FS.MkdirAll("/bl/dir", 0o7)
	for _, n := range []string{"a.txt", "b.txt"} {
		if _, err := k.FS.Create("/bl/dir/"+n, 0o6, false); err != nil {
			t.Fatal(err)
		}
	}
	pat, _ := p.AS.Alloc(64, mem.ProtRW)
	_ = p.AS.WriteCString(pat, `C:\bl\dir\*.txt`)
	fd, _ := p.AS.Alloc(320, mem.ProtRW)
	c := run(t, osprofile.WinNT, k, p, "FindFirstFile", api.Ptr(pat), api.Ptr(fd))
	if c.Out.ErrReported {
		t.Fatalf("FindFirstFile: %+v", c.Out)
	}
	h := kern.Handle(uint32(c.Out.Ret))
	name, _ := p.AS.CString(fd + 44)
	if name != "a.txt" {
		t.Errorf("first match = %q", name)
	}
	c = run(t, osprofile.WinNT, k, p, "FindNextFile", api.HandleArg(h), api.Ptr(fd))
	if c.Out.Ret != 1 {
		t.Fatalf("FindNextFile: %+v", c.Out)
	}
	c = run(t, osprofile.WinNT, k, p, "FindNextFile", api.HandleArg(h), api.Ptr(fd))
	if c.Out.Err != api.ErrorNoMoreFiles {
		t.Errorf("exhausted FindNextFile: %+v", c.Out)
	}
	c = run(t, osprofile.WinNT, k, p, "FindClose", api.HandleArg(h))
	if c.Out.Ret != 1 {
		t.Errorf("FindClose: %+v", c.Out)
	}
}

func TestInterlockedDesktopVsCE(t *testing.T) {
	// Desktop: a user-mode locked instruction — bad pointer is a plain AV.
	k, p := newProc(t, osprofile.Win98)
	c := run(t, osprofile.Win98, k, p, "InterlockedIncrement", api.Ptr(0))
	if c.Out.Crashed || c.Out.Exception != api.ExcAccessViolation {
		t.Errorf("Win98 InterlockedIncrement(NULL): %+v", c.Out)
	}
	// CE: kernel-assisted, harness-only corruption (Table 3 "*").
	k2, _ := newProc(t, osprofile.WinCE)
	var crashed bool
	for i := 0; i < 3; i++ {
		p2 := k2.NewProcess()
		c := run(t, osprofile.WinCE, k2, p2, "InterlockedIncrement", api.Ptr(0))
		if c.Out.Crashed {
			crashed = i > 0 // must not crash on the first hit
			break
		}
	}
	if !crashed {
		t.Error("CE InterlockedIncrement(NULL) should crash only after accumulation")
	}
	// Valid pointer increments everywhere.
	k3, p3 := newProc(t, osprofile.WinNT)
	a, _ := p3.AS.Alloc(4, mem.ProtRW)
	_ = p3.AS.WriteU32(a, 41)
	c = run(t, osprofile.WinNT, k3, p3, "InterlockedIncrement", api.Ptr(a))
	if c.Out.Ret != 42 {
		t.Errorf("InterlockedIncrement(41) = %d", c.Out.Ret)
	}
}

func TestTlsLifecycle(t *testing.T) {
	k, p := newProc(t, osprofile.WinNT)
	c := run(t, osprofile.WinNT, k, p, "TlsAlloc")
	idx := c.Out.Ret
	c = run(t, osprofile.WinNT, k, p, "TlsSetValue", api.Int(idx), api.Ptr(0xABCD))
	if c.Out.Ret != 1 {
		t.Fatalf("TlsSetValue: %+v", c.Out)
	}
	c = run(t, osprofile.WinNT, k, p, "TlsGetValue", api.Int(idx))
	if uint32(c.Out.Ret) != 0xABCD {
		t.Errorf("TlsGetValue = %#x", c.Out.Ret)
	}
	c = run(t, osprofile.WinNT, k, p, "TlsFree", api.Int(idx))
	if c.Out.Ret != 1 {
		t.Errorf("TlsFree: %+v", c.Out)
	}
	c = run(t, osprofile.WinNT, k, p, "TlsGetValue", api.Int(idx))
	if !c.Out.ErrReported {
		t.Errorf("TlsGetValue after free: %+v", c.Out)
	}
}

func TestGetStdHandle(t *testing.T) {
	k, p := newProc(t, osprofile.WinNT)
	c := run(t, osprofile.WinNT, k, p, "GetStdHandle", api.Int(int64(int32(-11))))
	if kern.Handle(uint32(c.Out.Ret)) != p.Std(1) {
		t.Errorf("GetStdHandle(STD_OUTPUT) = %#x", c.Out.Ret)
	}
	c = run(t, osprofile.WinNT, k, p, "GetStdHandle", api.Int(0))
	if int32(uint32(c.Out.Ret)) != -1 || !c.Out.ErrReported {
		t.Errorf("GetStdHandle(0): %+v", c.Out)
	}
}

func TestDuplicateHandleDefect(t *testing.T) {
	// Win98: invalid source handle corrupts shared state (harness-only).
	k, _ := newProc(t, osprofile.Win98)
	var crashedAt int
	for i := 1; i <= 3; i++ {
		p := k.NewProcess()
		tgt, _ := p.AS.Alloc(4, mem.ProtRW)
		c := run(t, osprofile.Win98, k, p, "DuplicateHandle",
			api.HandleArg(kern.PseudoProcess), api.HandleArg(0xBAD),
			api.HandleArg(kern.PseudoProcess), api.Ptr(tgt),
			api.Int(0), api.Int(0), api.Int(2))
		if c.Out.Crashed {
			crashedAt = i
			break
		}
	}
	if crashedAt <= 1 {
		t.Errorf("DuplicateHandle defect crashed at trigger %d (want accumulation)", crashedAt)
	}
	// A valid duplication works.
	k2, p2 := newProc(t, osprofile.Win98)
	src := p2.AddHandle(&kern.Object{Kind: kern.KEvent})
	tgt, _ := p2.AS.Alloc(4, mem.ProtRW)
	c := run(t, osprofile.Win98, k2, p2, "DuplicateHandle",
		api.HandleArg(kern.PseudoProcess), api.HandleArg(src),
		api.HandleArg(kern.PseudoProcess), api.Ptr(tgt),
		api.Int(0), api.Int(0), api.Int(2))
	if c.Out.Ret != 1 {
		t.Fatalf("valid DuplicateHandle: %+v", c.Out)
	}
	nh, _ := p2.AS.ReadU32(tgt)
	if p2.Handle(kern.Handle(nh)) == nil {
		t.Error("duplicated handle does not resolve")
	}
}

func TestMutexSemantics(t *testing.T) {
	k, p := newProc(t, osprofile.WinNT)
	c := run(t, osprofile.WinNT, k, p, "CreateMutex", api.Ptr(0), api.Int(1), api.Ptr(0))
	h := kern.Handle(uint32(c.Out.Ret))
	c = run(t, osprofile.WinNT, k, p, "ReleaseMutex", api.HandleArg(h))
	if c.Out.Ret != 1 {
		t.Fatalf("ReleaseMutex (owned): %+v", c.Out)
	}
	c = run(t, osprofile.WinNT, k, p, "ReleaseMutex", api.HandleArg(h))
	if c.Out.Err != api.ErrorNotOwner {
		t.Errorf("ReleaseMutex (unowned): %+v", c.Out)
	}
}

func TestSemaphoreValidation(t *testing.T) {
	k, p := newProc(t, osprofile.WinNT)
	c := run(t, osprofile.WinNT, k, p, "CreateSemaphore", api.Ptr(0), api.Int(5), api.Int(2), api.Ptr(0))
	if !c.Out.ErrReported || c.Out.Err != api.ErrorInvalidParameter {
		t.Errorf("CreateSemaphore(initial > max): %+v", c.Out)
	}
	c = run(t, osprofile.WinNT, k, p, "CreateSemaphore", api.Ptr(0), api.Int(1), api.Int(4), api.Ptr(0))
	h := kern.Handle(uint32(c.Out.Ret))
	c = run(t, osprofile.WinNT, k, p, "ReleaseSemaphore", api.HandleArg(h), api.Int(10), api.Ptr(0))
	if c.Out.Err != api.ErrorTooManyPosts {
		t.Errorf("ReleaseSemaphore over max: %+v", c.Out)
	}
}

func TestGetFileInformationByHandleDefect(t *testing.T) {
	// Win98: a valid file handle plus a NULL info pointer crashes (raw
	// kernel write); NT aborts.
	for _, tt := range []struct {
		os    osprofile.OS
		crash bool
	}{{osprofile.Win98, true}, {osprofile.WinNT, false}} {
		k, p := newProc(t, tt.os)
		of, _ := k.FS.Open("/bl/readable.txt", true, false)
		h := p.AddHandle(&kern.Object{Kind: kern.KFile, File: of})
		c := run(t, tt.os, k, p, "GetFileInformationByHandle", api.HandleArg(h), api.Ptr(0))
		if c.Out.Crashed != tt.crash {
			t.Errorf("%s: GetFileInformationByHandle(NULL): crashed=%v, want %v",
				tt.os, c.Out.Crashed, tt.crash)
		}
	}
}

func TestFileTimeToSystemTimeWin95(t *testing.T) {
	mk := func(o osprofile.OS) *api.Call {
		k, p := newProc(t, o)
		ft, _ := p.AS.Alloc(8, mem.ProtRW)
		return run(t, o, k, p, "FileTimeToSystemTime", api.Ptr(ft), api.Ptr(0))
	}
	if c := mk(osprofile.Win95); !c.Out.Crashed {
		t.Errorf("Win95 FileTimeToSystemTime(NULL out) should crash: %+v", c.Out)
	}
	if c := mk(osprofile.Win98); c.Out.Crashed {
		t.Errorf("Win98 FileTimeToSystemTime must not crash (fixed after 95): %+v", c.Out)
	}
}
