package posixapi

import (
	"testing"

	"ballista/internal/api"
	"ballista/internal/osprofile"
	"ballista/internal/sim/kern"
	"ballista/internal/sim/mem"
	"ballista/internal/suite"
)

var impls = Impls()

func TestImplCensus(t *testing.T) {
	// The paper's 91 POSIX system calls plus the 8 post-paper BSD
	// socket calls.
	if len(impls) != 99 {
		t.Errorf("POSIX registry has %d calls, want 99", len(impls))
	}
}

func newProc(t *testing.T) (*kern.Kernel, *kern.Process) {
	t.Helper()
	k := osprofile.Get(osprofile.Linux).NewKernel()
	if err := k.FS.MkdirAll("/bl", 0o7); err != nil {
		t.Fatal(err)
	}
	n, err := k.FS.Create("/bl/readable.txt", 0o6, true)
	if err != nil {
		t.Fatal(err)
	}
	k.FS.SetData(n, []byte("posix fixture data"))
	_ = k.FS.MkdirAll("/scratch", 0o7)
	return k, k.NewProcess()
}

func run(t *testing.T, k *kern.Kernel, p *kern.Process, name string, args ...api.Arg) *api.Call {
	t.Helper()
	prof := osprofile.Get(osprofile.Linux)
	c := &api.Call{K: k, P: p, Name: name, Args: args, Traits: prof.Traits}
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

func cstr(t *testing.T, p *kern.Process, s string) mem.Addr {
	t.Helper()
	a, err := p.AS.Alloc(uint32(len(s)+1), mem.ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	_ = p.AS.WriteCString(a, s)
	return a
}

func TestOpenReadClose(t *testing.T) {
	k, p := newProc(t)
	path := cstr(t, p, "/bl/readable.txt")
	c := run(t, k, p, "open", api.Ptr(path), api.Int(0), api.Int(0))
	if c.Out.Ret < 0 {
		t.Fatalf("open: %+v", c.Out)
	}
	fd := c.Out.Ret
	buf, _ := p.AS.Alloc(64, mem.ProtRW)
	c = run(t, k, p, "read", api.Int(fd), api.Ptr(buf), api.Int(5))
	if c.Out.Ret != 5 {
		t.Fatalf("read: %+v", c.Out)
	}
	got, _ := p.AS.Read(buf, 5)
	if string(got) != "posix" {
		t.Errorf("read data = %q", got)
	}
	c = run(t, k, p, "close", api.Int(fd))
	if c.Out.Ret != 0 {
		t.Errorf("close: %+v", c.Out)
	}
	c = run(t, k, p, "close", api.Int(fd))
	if c.Out.Err != api.EBADF {
		t.Errorf("double close: %+v", c.Out)
	}
}

// TestEFAULTNotSIGSEGV pins the architectural fact behind Linux's low
// system-call Abort rate: the kernel probes user pointers and returns
// EFAULT instead of letting the access fault.
func TestEFAULTNotSIGSEGV(t *testing.T) {
	k, p := newProc(t)
	path := cstr(t, p, "/bl/readable.txt")
	c := run(t, k, p, "open", api.Ptr(path), api.Int(0), api.Int(0))
	fd := c.Out.Ret

	for _, tt := range []struct {
		name string
		args []api.Arg
	}{
		{"read", []api.Arg{api.Int(fd), api.Ptr(0), api.Int(16)}},
		{"read", []api.Arg{api.Int(fd), api.Ptr(0x7F000000), api.Int(16)}},
		{"write", []api.Arg{api.Int(1), api.Ptr(0), api.Int(16)}},
		{"stat", []api.Arg{api.Ptr(path), api.Ptr(0)}},
		{"pipe", []api.Arg{api.Ptr(0)}},
		{"getcwd", []api.Arg{api.Ptr(0x7F000000), api.Int(64)}},
		{"nanosleep", []api.Arg{api.Ptr(0), api.Ptr(0)}},
	} {
		c := run(t, k, p, tt.name, tt.args...)
		if c.Out.Exception != 0 {
			t.Errorf("%s with bad pointer aborted (%+v); Linux should EFAULT", tt.name, c.Out)
			continue
		}
		if c.Out.Err != api.EFAULT {
			t.Errorf("%s with bad pointer: errno=%d, want EFAULT", tt.name, c.Out.Err)
		}
	}
}

func TestBadFDsReturnEBADF(t *testing.T) {
	k, p := newProc(t)
	for _, fd := range []int64{-1, 99, 0x7FFFFFFF} {
		c := run(t, k, p, "fsync", api.Int(fd))
		if c.Out.Err != api.EBADF {
			t.Errorf("fsync(%d): %+v", fd, c.Out)
		}
	}
}

func TestReadStdinHangs(t *testing.T) {
	k, p := newProc(t)
	buf, _ := p.AS.Alloc(16, mem.ProtRW)
	c := run(t, k, p, "read", api.Int(0), api.Ptr(buf), api.Int(4))
	if !c.Out.Hung {
		t.Errorf("read(stdin) should block: %+v", c.Out)
	}
}

func TestPipeRoundTrip(t *testing.T) {
	k, p := newProc(t)
	fds, _ := p.AS.Alloc(8, mem.ProtRW)
	c := run(t, k, p, "pipe", api.Ptr(fds))
	if c.Out.Ret != 0 {
		t.Fatalf("pipe: %+v", c.Out)
	}
	rfd, _ := p.AS.ReadU32(fds)
	wfd, _ := p.AS.ReadU32(fds + 4)
	data := cstr(t, p, "through the pipe")
	c = run(t, k, p, "write", api.Int(int64(wfd)), api.Ptr(data), api.Int(7))
	if c.Out.Ret != 7 {
		t.Fatalf("write to pipe: %+v", c.Out)
	}
	buf, _ := p.AS.Alloc(16, mem.ProtRW)
	c = run(t, k, p, "read", api.Int(int64(rfd)), api.Ptr(buf), api.Int(7))
	if c.Out.Ret != 7 {
		t.Fatalf("read from pipe: %+v", c.Out)
	}
	got, _ := p.AS.Read(buf, 7)
	if string(got) != "through" {
		t.Errorf("pipe data = %q", got)
	}
}

func TestWriteToClosedPipeSIGPIPE(t *testing.T) {
	k, p := newProc(t)
	fds, _ := p.AS.Alloc(8, mem.ProtRW)
	_ = run(t, k, p, "pipe", api.Ptr(fds))
	rfd, _ := p.AS.ReadU32(fds)
	wfd, _ := p.AS.ReadU32(fds + 4)
	_ = run(t, k, p, "close", api.Int(int64(rfd)))
	data := cstr(t, p, "x")
	c := run(t, k, p, "write", api.Int(int64(wfd)), api.Ptr(data), api.Int(1))
	if c.Out.Exception != api.SIGPIPE {
		t.Errorf("write to reader-less pipe: %+v", c.Out)
	}
}

func TestStatFillsBuffer(t *testing.T) {
	k, p := newProc(t)
	path := cstr(t, p, "/bl/readable.txt")
	st, _ := p.AS.Alloc(88, mem.ProtRW)
	c := run(t, k, p, "stat", api.Ptr(path), api.Ptr(st))
	if c.Out.Ret != 0 {
		t.Fatalf("stat: %+v", c.Out)
	}
	size, _ := p.AS.ReadU32(st + 44)
	if size != 18 {
		t.Errorf("st_size = %d, want 18", size)
	}
	modeWord, _ := p.AS.ReadU32(st + 16)
	if modeWord&0x8000 == 0 {
		t.Error("S_IFREG not set")
	}
}

func TestDirectoryOps(t *testing.T) {
	k, p := newProc(t)
	path := cstr(t, p, "/scratch/newdir")
	c := run(t, k, p, "mkdir", api.Ptr(path), api.Int(0o755))
	if c.Out.Ret != 0 {
		t.Fatalf("mkdir: %+v", c.Out)
	}
	c = run(t, k, p, "mkdir", api.Ptr(path), api.Int(0o755))
	if c.Out.Err != api.EEXIST {
		t.Errorf("mkdir twice: %+v", c.Out)
	}
	c = run(t, k, p, "chdir", api.Ptr(path))
	if c.Out.Ret != 0 || p.Cwd != "/scratch/newdir" {
		t.Errorf("chdir: %+v cwd=%q", c.Out, p.Cwd)
	}
	c = run(t, k, p, "rmdir", api.Ptr(path))
	if c.Out.Ret != 0 {
		t.Errorf("rmdir: %+v", c.Out)
	}
}

func TestOpendirReaddir(t *testing.T) {
	k, p := newProc(t)
	_ = k.FS.MkdirAll("/bl/dir", 0o7)
	for _, n := range []string{"x.txt", "y.txt"} {
		if _, err := k.FS.Create("/bl/dir/"+n, 0o6, false); err != nil {
			t.Fatal(err)
		}
	}
	path := cstr(t, p, "/bl/dir")
	c := run(t, k, p, "opendir", api.Ptr(path))
	if c.Out.Ret == 0 {
		t.Fatalf("opendir: %+v", c.Out)
	}
	dir := mem.Addr(uint32(c.Out.Ret))
	c = run(t, k, p, "readdir", api.Ptr(dir))
	if c.Out.Ret == 0 {
		t.Fatalf("readdir: %+v", c.Out)
	}
	ent := mem.Addr(uint32(c.Out.Ret))
	name, _ := p.AS.CString(ent + 12)
	if name != "x.txt" {
		t.Errorf("first dirent = %q", name)
	}
	_ = run(t, k, p, "readdir", api.Ptr(dir))
	c = run(t, k, p, "readdir", api.Ptr(dir))
	if c.Out.Ret != 0 {
		t.Errorf("exhausted readdir = %d", c.Out.Ret)
	}
	c = run(t, k, p, "rewinddir", api.Ptr(dir))
	if c.Out.Ret != 0 {
		t.Fatalf("rewinddir: %+v", c.Out)
	}
	c = run(t, k, p, "readdir", api.Ptr(dir))
	if c.Out.Ret == 0 {
		t.Error("readdir after rewinddir returned NULL")
	}
	c = run(t, k, p, "closedir", api.Ptr(dir))
	if c.Out.Ret != 0 {
		t.Errorf("closedir: %+v", c.Out)
	}
}

// TestReaddirGarbageAborts: glibc's readdir is user-mode code — the
// Ballista DIR* garbage value dereferences and faults, unlike the
// probed system calls.
func TestReaddirGarbageAborts(t *testing.T) {
	k, p := newProc(t)
	c := run(t, k, p, "readdir", api.Ptr(0))
	if c.Out.Exception != api.SIGSEGV {
		t.Errorf("readdir(NULL): %+v", c.Out)
	}
	g, err := suite.MakeDIR(p, "/bl/dir")
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the magic and buffer pointer: glibc chases the garbage.
	_ = p.AS.WriteU32(g, 0x41414141)
	_ = p.AS.WriteU32(g+4, 0x42424242)
	c = run(t, k, p, "readdir", api.Ptr(g))
	if c.Out.Exception != api.SIGSEGV {
		t.Errorf("readdir(garbage DIR): %+v", c.Out)
	}
}

func TestKillSelfSignals(t *testing.T) {
	k, p := newProc(t)
	c := run(t, k, p, "kill", api.Int(int64(p.PID)), api.Int(0))
	if c.Out.Ret != 0 {
		t.Errorf("kill(self, 0) probe: %+v", c.Out)
	}
	c = run(t, k, p, "kill", api.Int(int64(p.PID)), api.Int(9))
	if c.Out.Exception != 9 || !c.Out.IsSignal {
		t.Errorf("kill(self, SIGKILL): %+v", c.Out)
	}
	c = run(t, k, p, "kill", api.Int(int64(p.PID)), api.Int(64))
	if c.Out.Err != api.EINVAL {
		t.Errorf("kill(self, 64): %+v", c.Out)
	}
	c = run(t, k, p, "kill", api.Int(424242), api.Int(15))
	if c.Out.Err != api.ESRCH {
		t.Errorf("kill(nonexistent): %+v", c.Out)
	}
}

func TestWaitWithNoChildren(t *testing.T) {
	k, p := newProc(t)
	st, _ := p.AS.Alloc(4, mem.ProtRW)
	c := run(t, k, p, "waitpid", api.Int(-1), api.Ptr(st), api.Int(0))
	if c.Out.Err != api.ECHILD {
		t.Errorf("waitpid: %+v", c.Out)
	}
}

func TestForkReturnsChildPID(t *testing.T) {
	k, p := newProc(t)
	c := run(t, k, p, "fork")
	if c.Out.Ret <= 0 {
		t.Errorf("fork: %+v", c.Out)
	}
}

func TestExecValidation(t *testing.T) {
	k, p := newProc(t)
	_ = k.FS.MkdirAll("/bin", 0o7)
	if _, err := k.FS.Create("/bin/true", 0o7, false); err != nil {
		t.Fatal(err)
	}
	path := cstr(t, p, "/bin/true")
	// NULL argv is EFAULT.
	c := run(t, k, p, "execv", api.Ptr(path), api.Ptr(0))
	if c.Out.Err != api.EFAULT {
		t.Errorf("execv(NULL argv): %+v", c.Out)
	}
	// Valid argv: the exec "succeeds".
	s0 := cstr(t, p, "true")
	argv, _ := p.AS.Alloc(8, mem.ProtRW)
	_ = p.AS.WriteU32(argv, uint32(s0))
	_ = p.AS.WriteU32(argv+4, 0)
	c = run(t, k, p, "execv", api.Ptr(path), api.Ptr(argv))
	if c.Out.Ret != 0 {
		t.Errorf("execv valid: %+v", c.Out)
	}
	// Non-executable target.
	noexec := cstr(t, p, "/bl/readable.txt")
	c = run(t, k, p, "execv", api.Ptr(noexec), api.Ptr(argv))
	if c.Out.Err != api.EACCES {
		t.Errorf("execv non-executable: %+v", c.Out)
	}
}

func TestMmapMunmap(t *testing.T) {
	k, p := newProc(t)
	c := run(t, k, p, "mmap", api.Ptr(0), api.Int(8192), api.Int(3), api.Int(0x22), api.Int(-1), api.Int(0))
	if c.Out.ErrReported {
		t.Fatalf("mmap: %+v", c.Out)
	}
	base := mem.Addr(uint32(c.Out.Ret))
	if f := p.AS.Write(base, []byte("mapped")); f != nil {
		t.Errorf("mapped memory not writable: %v", f)
	}
	c = run(t, k, p, "munmap", api.Ptr(base), api.Int(8192))
	if c.Out.Ret != 0 {
		t.Errorf("munmap: %+v", c.Out)
	}
	// Invalid arguments.
	c = run(t, k, p, "mmap", api.Ptr(0), api.Int(0), api.Int(3), api.Int(0x22), api.Int(-1), api.Int(0))
	if c.Out.Err != api.EINVAL {
		t.Errorf("mmap(len=0): %+v", c.Out)
	}
	c = run(t, k, p, "munmap", api.Ptr(13), api.Int(4096))
	if c.Out.Err != api.EINVAL {
		t.Errorf("munmap(misaligned): %+v", c.Out)
	}
}

func TestUnprivilegedIdentity(t *testing.T) {
	k, p := newProc(t)
	c := run(t, k, p, "getuid")
	if c.Out.Ret != 1000 {
		t.Errorf("getuid = %d", c.Out.Ret)
	}
	c = run(t, k, p, "setuid", api.Int(0))
	if c.Out.Err != api.EPERM {
		t.Errorf("setuid(0) as non-root: %+v", c.Out)
	}
	c = run(t, k, p, "setuid", api.Int(1000))
	if c.Out.Ret != 0 {
		t.Errorf("setuid(self): %+v", c.Out)
	}
}

func TestSysconfPathconf(t *testing.T) {
	k, p := newProc(t)
	c := run(t, k, p, "sysconf", api.Int(30))
	if c.Out.Ret != 4096 {
		t.Errorf("sysconf(_SC_PAGESIZE) = %d", c.Out.Ret)
	}
	c = run(t, k, p, "sysconf", api.Int(-1))
	if c.Out.Err != api.EINVAL {
		t.Errorf("sysconf(-1): %+v", c.Out)
	}
	path := cstr(t, p, "/bl/readable.txt")
	c = run(t, k, p, "pathconf", api.Ptr(path), api.Int(3))
	if c.Out.Ret != 255 {
		t.Errorf("pathconf(NAME_MAX) = %d", c.Out.Ret)
	}
}

func TestDupFamily(t *testing.T) {
	k, p := newProc(t)
	path := cstr(t, p, "/bl/readable.txt")
	c := run(t, k, p, "open", api.Ptr(path), api.Int(0), api.Int(0))
	fd := c.Out.Ret
	c = run(t, k, p, "dup", api.Int(fd))
	if c.Out.Ret <= fd {
		t.Fatalf("dup: %+v", c.Out)
	}
	c = run(t, k, p, "dup2", api.Int(fd), api.Int(17))
	if c.Out.Ret != 17 {
		t.Fatalf("dup2: %+v", c.Out)
	}
	if p.FD(17) == nil {
		t.Error("dup2 target not installed")
	}
	c = run(t, k, p, "dup2", api.Int(fd), api.Int(fd))
	if c.Out.Ret != fd {
		t.Errorf("dup2 same fd: %+v", c.Out)
	}
	c = run(t, k, p, "dup", api.Int(-1))
	if c.Out.Err != api.EBADF {
		t.Errorf("dup(-1): %+v", c.Out)
	}
}

func TestLseek(t *testing.T) {
	k, p := newProc(t)
	path := cstr(t, p, "/bl/readable.txt")
	c := run(t, k, p, "open", api.Ptr(path), api.Int(0), api.Int(0))
	fd := c.Out.Ret
	c = run(t, k, p, "lseek", api.Int(fd), api.Int(6), api.Int(0))
	if c.Out.Ret != 6 {
		t.Errorf("lseek: %+v", c.Out)
	}
	c = run(t, k, p, "lseek", api.Int(fd), api.Int(0), api.Int(99))
	if c.Out.Err != api.EINVAL {
		t.Errorf("lseek bad whence: %+v", c.Out)
	}
	c = run(t, k, p, "lseek", api.Int(0), api.Int(0), api.Int(0))
	if c.Out.Err != api.ESPIPE {
		t.Errorf("lseek on pipe: %+v", c.Out)
	}
}

// TestOpenTruncRespectsReadOnly: open(O_WRONLY|O_TRUNC) on a read-only
// file fails with EACCES and must leave the contents intact.  Inside an
// explore chain no fixture restore runs between calls, so a refused open
// that still emptied the file would change what later calls read.  A
// permitted O_TRUNC open empties the file without a clock tick.
func TestOpenTruncRespectsReadOnly(t *testing.T) {
	k := osprofile.Get(osprofile.Linux).NewKernel()
	suite.SetupFixtures(k)
	p := k.NewProcess()
	const oWronlyTrunc = 0x1 | 0x200

	c := run(t, k, p, "open", api.Ptr(cstr(t, p, suite.FixtureReadOnly)), api.Int(oWronlyTrunc), api.Int(0))
	if c.Out.Ret != -1 || c.Out.Err != api.EACCES {
		t.Errorf("open read-only O_TRUNC: ret=%d errno=%d, want -1/EACCES", c.Out.Ret, c.Out.Err)
	}
	if n, err := k.FS.Stat(suite.FixtureReadOnly); err != nil || string(n.Data()) != suite.FixtureContent {
		t.Errorf("refused O_TRUNC open changed the read-only file (err=%v)", err)
	}

	path := cstr(t, p, suite.FixtureWritable)
	ticks := k.Ticks()
	c = run(t, k, p, "open", api.Ptr(path), api.Int(oWronlyTrunc), api.Int(0))
	if c.Out.Ret < 0 {
		t.Fatalf("open writable O_TRUNC: %+v", c.Out)
	}
	if n, err := k.FS.Stat(suite.FixtureWritable); err != nil || n.Size() != 0 {
		t.Errorf("O_TRUNC open left the writable file non-empty (err=%v)", err)
	}
	if k.Ticks() != ticks {
		t.Errorf("O_TRUNC open advanced the clock %d -> %d", ticks, k.Ticks())
	}
}
