package suite

import (
	"testing"

	"ballista/internal/api"
	"ballista/internal/core"
	"ballista/internal/osprofile"
	"ballista/internal/sim/mem"
)

func env(t *testing.T, o osprofile.OS, wide bool) *core.Env {
	t.Helper()
	p := osprofile.Get(o)
	k := p.NewKernel()
	SetupFixtures(k)
	return &core.Env{K: k, P: k.NewProcess(), Profile: p, Wide: wide}
}

func mustMake(t *testing.T, e *core.Env, typeName, valueName string) api.Arg {
	t.Helper()
	r := NewRegistry()
	dt, ok := r.Lookup(typeName)
	if !ok {
		t.Fatalf("type %s missing", typeName)
	}
	for _, v := range dt.Values {
		if v.Name == valueName {
			a, err := v.Make(e)
			if err != nil {
				t.Fatalf("%s/%s: %v", typeName, valueName, err)
			}
			return a
		}
	}
	t.Fatalf("value %s/%s missing", typeName, valueName)
	return api.Arg{}
}

// TestSystemArenaMaterialization pins the architectural difference: the
// SYSTEM_ARENA pointer is a mapped shared page on 9x/CE and a bare
// invalid address on probing architectures.
func TestSystemArenaMaterialization(t *testing.T) {
	e9x := env(t, osprofile.Win98, false)
	a := mustMake(t, e9x, "LPVOID", "SYSTEM_ARENA")
	if mem.RegionOf(mem.Addr(uint32(a.I))) != mem.RegionSystem {
		t.Errorf("9x SYSTEM_ARENA outside the system arena: %#x", uint32(a.I))
	}
	if !e9x.P.AS.Mapped(mem.Addr(uint32(a.I)), 4, mem.ProtWrite) {
		t.Error("9x SYSTEM_ARENA should be mapped and writable")
	}
	ent := env(t, osprofile.WinNT, false)
	b := mustMake(t, ent, "LPVOID", "SYSTEM_ARENA")
	if ent.P.AS.Mapped(mem.Addr(uint32(b.I)), 1, mem.ProtRead) {
		t.Error("NT SYSTEM_ARENA must not be mapped in user space")
	}
}

// TestWideMaterialization: CE UNICODE variants materialize strings as
// UTF-16 with a two-byte terminator.
func TestWideMaterialization(t *testing.T) {
	e := env(t, osprofile.WinCE, true)
	a := mustMake(t, e, "CSTRING", "SHORT")
	u, f := e.P.AS.WString(mem.Addr(uint32(a.I)))
	if f != nil || len(u) != 3 || u[0] != 'a' || u[2] != 'c' {
		t.Errorf("wide SHORT = %v, %v", u, f)
	}
	// Narrow env materializes bytes.
	en := env(t, osprofile.WinCE, false)
	b := mustMake(t, en, "CSTRING", "SHORT")
	s, f2 := en.P.AS.CString(mem.Addr(uint32(b.I)))
	if f2 != nil || s != "abc" {
		t.Errorf("narrow SHORT = %q, %v", s, f2)
	}
}

// TestGarbageFileDecodesToUnmappedUserAddress pins the paper's killer
// value: the FILE struct's buffer-pointer field, read from the string
// bytes, must land in the unmapped user arena (so CE's raw kernel access
// crashes and glibc faults).
func TestGarbageFileDecodesToUnmappedUserAddress(t *testing.T) {
	e := env(t, osprofile.WinCE, false)
	a := mustMake(t, e, "FILEPTR", "BUFFER_CAST")
	bufptr, f := e.P.AS.ReadU32(mem.Addr(uint32(a.I)) + 12)
	if f != nil {
		t.Fatal(f)
	}
	if mem.RegionOf(mem.Addr(bufptr)) != mem.RegionUser {
		t.Errorf("buffer-cast bufptr %#x not in the user arena", bufptr)
	}
	if e.P.AS.Mapped(mem.Addr(bufptr), 1, mem.ProtRead) {
		t.Errorf("buffer-cast bufptr %#x unexpectedly mapped", bufptr)
	}
}

// TestGuardPlacement: ROOM-style buffers have exactly the advertised
// room before the guard page.
func TestGuardPlacement(t *testing.T) {
	e := env(t, osprofile.WinNT, false)
	a := mustMake(t, e, "STRBUF", "ROOM64")
	at := mem.Addr(uint32(a.I))
	if f := e.P.AS.Write(at, make([]byte, 64)); f != nil {
		t.Errorf("64 bytes should fit: %v", f)
	}
	if f := e.P.AS.Write(at, make([]byte, 65)); f == nil {
		t.Error("65th byte should hit the guard page")
	}
}

// TestStdStreamsWiredToFDs: FILE_STDIN/STDOUT constructors attach to the
// process's pre-wired console descriptors.
func TestStdStreamsWiredToFDs(t *testing.T) {
	e := env(t, osprofile.Linux, false)
	a := mustMake(t, e, "FILEPTR", "STDIN")
	fd, f := e.P.AS.ReadU32(mem.Addr(uint32(a.I)) + 4)
	if f != nil || fd != 0 {
		t.Errorf("STDIN fd field = %d, %v", fd, f)
	}
	if e.P.FD(0) == nil || e.P.FD(0).Pipe == nil || !e.P.FD(0).Pipe.Input {
		t.Error("fd 0 is not the blocking console pipe")
	}
}

// TestFixtureIdempotence: SetupFixtures restores mutated state.
func TestFixtureIdempotence(t *testing.T) {
	p := osprofile.Get(osprofile.WinNT)
	k := p.NewKernel()
	SetupFixtures(k)
	// Mutate: delete the readable fixture, scribble the read-only one,
	// drop junk in scratch.
	_ = k.FS.Remove(FixtureReadable)
	if n, err := k.FS.Stat(FixtureReadOnly); err == nil {
		k.FS.SetAttrs(n, 0)
		k.FS.SetData(n, []byte("scribbled"))
	}
	if _, err := k.FS.Create(ScratchDir+"/junk.txt", 0o6, false); err != nil {
		t.Fatal(err)
	}
	SetupFixtures(k)
	n, err := k.FS.Stat(FixtureReadable)
	if err != nil || string(n.Data()) != FixtureContent {
		t.Errorf("readable fixture not restored: %v", err)
	}
	ro, err := k.FS.Stat(FixtureReadOnly)
	if err != nil || ro.Attrs()&0x1 == 0 || string(ro.Data()) != FixtureContent {
		t.Error("read-only fixture not restored")
	}
	if _, err := k.FS.Stat(ScratchDir + "/junk.txt"); err == nil {
		t.Error("scratch junk survived the fixture reset")
	}
}

// TestPoolCensus records the suite's scale against the paper's (3,430
// POSIX / 1,073 Windows values; 37 / 43 data types) — ours is smaller but
// must stay non-trivial.
func TestPoolCensus(t *testing.T) {
	r := NewRegistry()
	names := r.Names()
	if len(names) < 80 {
		t.Errorf("data types = %d, want at least 80", len(names))
	}
	if r.ValueCount() < 500 {
		t.Errorf("distinct test values = %d, want at least 500", r.ValueCount())
	}
	t.Logf("suite: %d data types, %d test values", len(names), r.ValueCount())
}
