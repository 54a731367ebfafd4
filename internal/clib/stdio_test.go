package clib

import (
	"testing"

	"ballista/internal/api"
	"ballista/internal/osprofile"
	"ballista/internal/sim/kern"
	"ballista/internal/sim/mem"
)

// fixture boots a kernel with a readable file, returning the kernel.
func fixture(t *testing.T, o osprofile.OS) *kern.Kernel {
	t.Helper()
	k := osprofile.Get(o).NewKernel()
	if err := k.FS.MkdirAll("/bl", 0o7); err != nil {
		t.Fatal(err)
	}
	n, err := k.FS.Create("/bl/readable.txt", 0o6, true)
	if err != nil {
		t.Fatal(err)
	}
	k.FS.SetData(n, []byte("stream fixture contents\n"))
	return k
}

// openFILE opens the fixture file as a FILE* in proc.
func openFILE(t *testing.T, k *kern.Kernel, proc *kern.Process, writable bool) mem.Addr {
	t.Helper()
	of, err := k.FS.Open("/bl/readable.txt", true, writable)
	if err != nil {
		t.Fatal(err)
	}
	fd := proc.AddFD(&kern.FD{File: of, Read: true, Write: writable})
	f, err := MakeFile(proc, fd, true, writable)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func run(t *testing.T, o osprofile.OS, k *kern.Kernel, proc *kern.Process, name string, wide bool, args ...api.Arg) *api.Call {
	t.Helper()
	prof := osprofile.Get(o)
	c := &api.Call{K: k, P: proc, Name: name, Args: args, Traits: prof.Traits, Def: prof.Defect(name), Wide: wide}
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

func TestFopenFgetcFclose(t *testing.T) {
	for _, o := range []osprofile.OS{osprofile.Linux, osprofile.WinNT} {
		k := fixture(t, o)
		proc := k.NewProcess()
		path := cstr(t, proc, "/bl/readable.txt")
		mode := cstr(t, proc, "r")
		c := run(t, o, k, proc, "fopen", false, api.Ptr(path), api.Ptr(mode))
		if c.Out.Ret == 0 {
			t.Fatalf("%s: fopen failed: %+v", o, c.Out)
		}
		f := mem.Addr(uint32(c.Out.Ret))
		c = run(t, o, k, proc, "fgetc", false, api.Ptr(f))
		if c.Out.Ret != 's' {
			t.Errorf("%s: fgetc = %d, want 's'", o, c.Out.Ret)
		}
		c = run(t, o, k, proc, "fclose", false, api.Ptr(f))
		if c.Out.Exception != 0 || c.Out.ErrReported {
			t.Errorf("%s: fclose: %+v", o, c.Out)
		}
	}
}

func TestFopenErrors(t *testing.T) {
	k := fixture(t, osprofile.Linux)
	proc := k.NewProcess()
	missing := cstr(t, proc, "/no/such/file")
	r := cstr(t, proc, "r")
	c := run(t, osprofile.Linux, k, proc, "fopen", false, api.Ptr(missing), api.Ptr(r))
	if c.Out.Ret != 0 || c.Out.Err != api.ENOENT {
		t.Errorf("fopen missing: %+v", c.Out)
	}
	bad := cstr(t, proc, "q!")
	path := cstr(t, proc, "/bl/readable.txt")
	c = run(t, osprofile.Linux, k, proc, "fopen", false, api.Ptr(path), api.Ptr(bad))
	if c.Out.Ret != 0 || c.Out.Err != api.EINVAL {
		t.Errorf("fopen bad mode: %+v", c.Out)
	}
}

// TestGarbageFILEPersonalities is the paper's central C-library story:
// a string buffer typecast to FILE*.
func TestGarbageFILEPersonalities(t *testing.T) {
	garbage := func(o osprofile.OS) (*kern.Kernel, *kern.Process, mem.Addr) {
		k := fixture(t, o)
		proc := k.NewProcess()
		a, err := proc.AS.Alloc(64, mem.ProtRW)
		if err != nil {
			t.Fatal(err)
		}
		_ = proc.AS.Write(a, []byte("Ballista! invalid file pointer value."))
		return k, proc, a
	}

	// msvcrt validates the magic: error return.
	k, proc, f := garbage(osprofile.WinNT)
	c := run(t, osprofile.WinNT, k, proc, "fgetc", false, api.Ptr(f))
	if c.Out.Exception != 0 || !c.Out.ErrReported {
		t.Errorf("msvcrt fgetc(garbage): %+v", c.Out)
	}

	// glibc dereferences the garbage buffer pointer: SIGSEGV.
	k, proc, f = garbage(osprofile.Linux)
	c = run(t, osprofile.Linux, k, proc, "fgetc", false, api.Ptr(f))
	if !c.Out.IsSignal || c.Out.Exception != api.SIGSEGV {
		t.Errorf("glibc fgetc(garbage): %+v", c.Out)
	}

	// Windows CE hands the garbage buffer pointer to the kernel raw: the
	// machine goes down.  This is the root cause of the paper's seventeen
	// Catastrophic C functions.
	k, proc, f = garbage(osprofile.WinCE)
	c = run(t, osprofile.WinCE, k, proc, "fgetc", false, api.Ptr(f))
	if !c.Out.Crashed || !k.Crashed() {
		t.Errorf("CE fgetc(garbage) should crash the machine: %+v", c.Out)
	}
}

// TestCERawSetMatchesTable3: on CE, exactly the paper's functions crash
// on the garbage FILE* — fopen, feof, ferror, setvbuf and the sprintf
// family do not.
func TestCERawSetMatchesTable3(t *testing.T) {
	crashFns := []string{"fclose", "fflush", "fseek", "ftell", "clearerr", "fgetc", "getc", "ungetc"}
	safeFns := []string{"feof", "ferror"}
	for _, fn := range crashFns {
		k := fixture(t, osprofile.WinCE)
		proc := k.NewProcess()
		a, _ := proc.AS.Alloc(64, mem.ProtRW)
		_ = proc.AS.Write(a, []byte("Ballista! invalid file pointer value."))
		args := []api.Arg{api.Ptr(a)}
		if fn == "fseek" {
			args = []api.Arg{api.Ptr(a), api.Int(0), api.Int(0)}
		}
		if fn == "ungetc" || fn == "fgetc" || fn == "getc" {
			if fn == "ungetc" {
				args = []api.Arg{api.Int('x'), api.Ptr(a)}
			}
		}
		c := run(t, osprofile.WinCE, k, proc, fn, false, args...)
		if !c.Out.Crashed {
			t.Errorf("CE %s(garbage FILE) should crash: %+v", fn, c.Out)
		}
	}
	for _, fn := range safeFns {
		k := fixture(t, osprofile.WinCE)
		proc := k.NewProcess()
		a, _ := proc.AS.Alloc(64, mem.ProtRW)
		_ = proc.AS.Write(a, []byte("Ballista! invalid file pointer value."))
		c := run(t, osprofile.WinCE, k, proc, fn, false, api.Ptr(a))
		if c.Out.Crashed {
			t.Errorf("CE %s(garbage FILE) must not crash (it only reads flags)", fn)
		}
	}
}

// TestCEFreopenWideOnly: the paper's Table 3 lists _wfreopen (the
// UNICODE variant) as Catastrophic but not ASCII freopen.
func TestCEFreopenWideOnly(t *testing.T) {
	mk := func(wide bool) *api.Call {
		k := fixture(t, osprofile.WinCE)
		proc := k.NewProcess()
		a, _ := proc.AS.Alloc(64, mem.ProtRW)
		_ = proc.AS.Write(a, []byte("Ballista! invalid file pointer value."))
		var path, mode mem.Addr
		if wide {
			path, _ = proc.AS.Alloc(64, mem.ProtRW)
			_ = proc.AS.Write(path, []byte{'/', 0, 'x', 0, 0, 0})
			mode, _ = proc.AS.Alloc(8, mem.ProtRW)
			_ = proc.AS.Write(mode, []byte{'r', 0, 0, 0})
		} else {
			path = cstr(t, proc, "/bl/readable.txt")
			mode = cstr(t, proc, "r")
		}
		return run(t, osprofile.WinCE, k, proc, "freopen", wide, api.Ptr(path), api.Ptr(mode), api.Ptr(a))
	}
	if c := mk(true); !c.Out.Crashed {
		t.Errorf("_wfreopen(garbage FILE) should crash CE: %+v", c.Out)
	}
	if c := mk(false); c.Out.Crashed {
		t.Errorf("ASCII freopen(garbage FILE) must not crash CE: %+v", c.Out)
	}
}

func TestClosedFILEPersonalities(t *testing.T) {
	// msvcrt: magic zapped, fd closed -> error return.
	k := fixture(t, osprofile.WinNT)
	proc := k.NewProcess()
	f := openFILE(t, k, proc, false)
	CloseFile(proc, true, f)
	c := run(t, osprofile.WinNT, k, proc, "fgetc", false, api.Ptr(f))
	if c.Out.Exception != 0 || !c.Out.ErrReported {
		t.Errorf("msvcrt fgetc(closed): %+v", c.Out)
	}
	// glibc: the FILE struct was freed — dangling pointer faults.
	k = fixture(t, osprofile.Linux)
	proc = k.NewProcess()
	f = openFILE(t, k, proc, false)
	CloseFile(proc, false, f)
	c = run(t, osprofile.Linux, k, proc, "fgetc", false, api.Ptr(f))
	if c.Out.Exception == 0 {
		t.Errorf("glibc fgetc(closed/freed): %+v", c.Out)
	}
}

func TestStdinBlocking(t *testing.T) {
	// glibc: reading the console with no input hangs (Restart).
	k := fixture(t, osprofile.Linux)
	proc := k.NewProcess()
	f, err := MakeFile(proc, 0, true, false)
	if err != nil {
		t.Fatal(err)
	}
	c := run(t, osprofile.Linux, k, proc, "fgetc", false, api.Ptr(f))
	if !c.Out.Hung {
		t.Errorf("glibc fgetc(stdin) should hang: %+v", c.Out)
	}
	// msvcrt: EOF immediately.
	k = fixture(t, osprofile.WinNT)
	proc = k.NewProcess()
	f, _ = MakeFile(proc, 0, true, false)
	c = run(t, osprofile.WinNT, k, proc, "fgetc", false, api.Ptr(f))
	if c.Out.Hung || c.Out.Ret != EOF {
		t.Errorf("msvcrt fgetc(stdin): %+v", c.Out)
	}
}

func TestFwriteDefectWin98(t *testing.T) {
	// Table 3 "*": fwrite on Windows 95/98 corrupts kernel state when
	// handed a garbage stream; one case survives, accumulation crashes.
	k := fixture(t, osprofile.Win98)
	trigger := func() *api.Call {
		proc := k.NewProcess()
		g, _ := proc.AS.Alloc(64, mem.ProtRW)
		_ = proc.AS.Write(g, []byte("Ballista! invalid file pointer value."))
		buf := cstr(t, proc, "payload")
		return run(t, osprofile.Win98, k, proc, "fwrite", false,
			api.Ptr(buf), api.Int(1), api.Int(7), api.Ptr(g))
	}
	c := trigger()
	if c.Out.Crashed {
		t.Fatal("single fwrite defect trigger crashed (should be harness-only)")
	}
	if !c.Out.ErrReported {
		t.Errorf("fwrite(garbage) without crash should error: %+v", c.Out)
	}
	c = trigger()
	if !c.Out.Crashed {
		t.Error("accumulated fwrite defect should crash Windows 98")
	}
	// Windows NT has no such defect.
	k2 := fixture(t, osprofile.WinNT)
	for i := 0; i < 5; i++ {
		proc := k2.NewProcess()
		g, _ := proc.AS.Alloc(64, mem.ProtRW)
		_ = proc.AS.Write(g, []byte("Ballista! invalid file pointer value."))
		buf := cstr(t, proc, "payload")
		c := run(t, osprofile.WinNT, k2, proc, "fwrite", false,
			api.Ptr(buf), api.Int(1), api.Int(7), api.Ptr(g))
		if c.Out.Crashed {
			t.Fatal("NT fwrite crashed")
		}
	}
}

func TestFreadRoundTrip(t *testing.T) {
	k := fixture(t, osprofile.Linux)
	proc := k.NewProcess()
	f := openFILE(t, k, proc, false)
	buf, _ := proc.AS.Alloc(64, mem.ProtRW)
	c := run(t, osprofile.Linux, k, proc, "fread", false,
		api.Ptr(buf), api.Int(1), api.Int(6), api.Ptr(f))
	if c.Out.Ret != 6 {
		t.Fatalf("fread = %d: %+v", c.Out.Ret, c.Out)
	}
	got, _ := proc.AS.Read(buf, 6)
	if string(got) != "stream" {
		t.Errorf("fread data = %q", got)
	}
}

func TestFprintfFormats(t *testing.T) {
	k := fixture(t, osprofile.Linux)
	proc := k.NewProcess()
	f := openFILE(t, k, proc, true)
	fmtPlain := cstr(t, proc, "count=%d ok")
	c := run(t, osprofile.Linux, k, proc, "fprintf", false, api.Ptr(f), api.Ptr(fmtPlain))
	if c.Out.Exception != 0 {
		t.Errorf("fprintf %%d: %+v", c.Out)
	}
	// %s with no variadic argument dereferences garbage.
	fmtS := cstr(t, proc, "%s")
	c = run(t, osprofile.Linux, k, proc, "fprintf", false, api.Ptr(f), api.Ptr(fmtS))
	if c.Out.Exception == 0 {
		t.Errorf("fprintf %%s should abort: %+v", c.Out)
	}
}

func TestSprintfWritesBuffer(t *testing.T) {
	k := fixture(t, osprofile.Linux)
	proc := k.NewProcess()
	buf, _ := proc.AS.Alloc(64, mem.ProtRW)
	format := cstr(t, proc, "v=%d!")
	c := run(t, osprofile.Linux, k, proc, "sprintf", false, api.Ptr(buf), api.Ptr(format))
	if c.Out.Exception != 0 {
		t.Fatalf("sprintf: %+v", c.Out)
	}
	got, _ := proc.AS.CString(buf)
	if got != "v=0!" {
		t.Errorf("sprintf wrote %q", got)
	}
}

func TestFscanfOnStdinHangs(t *testing.T) {
	k := fixture(t, osprofile.Linux)
	proc := k.NewProcess()
	f, _ := MakeFile(proc, 0, true, false)
	format := cstr(t, proc, "%d")
	c := run(t, osprofile.Linux, k, proc, "fscanf", false, api.Ptr(f), api.Ptr(format))
	if !c.Out.Hung {
		t.Errorf("fscanf(stdin, %%d) should block: %+v", c.Out)
	}
}

func TestFseekWhenceValidation(t *testing.T) {
	k := fixture(t, osprofile.Linux)
	proc := k.NewProcess()
	f := openFILE(t, k, proc, false)
	c := run(t, osprofile.Linux, k, proc, "fseek", false, api.Ptr(f), api.Int(0), api.Int(99))
	if !c.Out.ErrReported || c.Out.Err != api.EINVAL {
		t.Errorf("fseek bad whence: %+v", c.Out)
	}
	c = run(t, osprofile.Linux, k, proc, "fseek", false, api.Ptr(f), api.Int(7), api.Int(0))
	if c.Out.Ret != 0 {
		t.Errorf("fseek: %+v", c.Out)
	}
	c = run(t, osprofile.Linux, k, proc, "ftell", false, api.Ptr(f))
	if c.Out.Ret != 7 {
		t.Errorf("ftell = %d", c.Out.Ret)
	}
}

func TestUngetcRoundTrip(t *testing.T) {
	k := fixture(t, osprofile.Linux)
	proc := k.NewProcess()
	f := openFILE(t, k, proc, false)
	c := run(t, osprofile.Linux, k, proc, "ungetc", false, api.Int('Z'), api.Ptr(f))
	if c.Out.Ret != 'Z' {
		t.Fatalf("ungetc: %+v", c.Out)
	}
	c = run(t, osprofile.Linux, k, proc, "fgetc", false, api.Ptr(f))
	if c.Out.Ret != 'Z' {
		t.Errorf("fgetc after ungetc = %d", c.Out.Ret)
	}
	c = run(t, osprofile.Linux, k, proc, "ungetc", false, api.Int(EOF), api.Ptr(f))
	if c.Out.Ret != EOF {
		t.Errorf("ungetc(EOF) = %d", c.Out.Ret)
	}
}

func TestFgetsReadsLine(t *testing.T) {
	k := fixture(t, osprofile.Linux)
	proc := k.NewProcess()
	f := openFILE(t, k, proc, false)
	buf, _ := proc.AS.Alloc(64, mem.ProtRW)
	c := run(t, osprofile.Linux, k, proc, "fgets", false, api.Ptr(buf), api.Int(64), api.Ptr(f))
	if uint32(c.Out.Ret) != uint32(buf) {
		t.Fatalf("fgets ret: %+v", c.Out)
	}
	got, _ := proc.AS.CString(buf)
	if got != "stream fixture contents\n" {
		t.Errorf("fgets = %q", got)
	}
	// n <= 0 is rejected.
	c = run(t, osprofile.Linux, k, proc, "fgets", false, api.Ptr(buf), api.Int(0), api.Ptr(f))
	if !c.Out.ErrReported {
		t.Errorf("fgets(n=0): %+v", c.Out)
	}
}

func TestExpandFormatTable(t *testing.T) {
	k := fixture(t, osprofile.Linux)
	c := &api.Call{K: k, P: k.NewProcess(), Traits: osprofile.Get(osprofile.Linux).Traits}
	tests := []struct {
		format string
		want   string
		aborts bool
	}{
		{"plain", "plain", false},
		{"%d items", "0 items", false},
		{"100%%", "100%", false},
		{"%08x", "0", false},
		{"%f", "0.000000", false},
		{"%s", "", true},
		{"%n", "", true},
	}
	for _, tt := range tests {
		c2 := &api.Call{K: c.K, P: c.P, Traits: c.Traits}
		got, ok := expandFormat(c2, tt.format)
		if tt.aborts {
			if ok {
				t.Errorf("expandFormat(%q) should abort", tt.format)
			}
			continue
		}
		if !ok || got != tt.want {
			t.Errorf("expandFormat(%q) = %q, ok=%v; want %q", tt.format, got, ok, tt.want)
		}
	}
}
