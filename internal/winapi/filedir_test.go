package winapi

import (
	"testing"

	"ballista/internal/api"
	"ballista/internal/osprofile"
	"ballista/internal/sim/fs"
	"ballista/internal/sim/kern"
	"ballista/internal/sim/mem"
)

func cstr(t *testing.T, p *kern.Process, s string) mem.Addr {
	t.Helper()
	a, err := p.AS.Alloc(uint32(len(s)+1), mem.ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	_ = p.AS.WriteCString(a, s)
	return a
}

func TestCreateFileDispositions(t *testing.T) {
	k, p := newProc(t, osprofile.WinNT)
	existing := cstr(t, p, "/bl/readable.txt")
	fresh := cstr(t, p, "/bl/fresh.txt")
	mk := func(path mem.Addr, disp int64) *api.Call {
		return run(t, osprofile.WinNT, k, p, "CreateFile",
			api.Ptr(path), api.Int(int64(int32(-0x40000000))), api.Int(0), api.Ptr(0),
			api.Int(disp), api.Int(0x80), api.HandleArg(0))
	}
	// CREATE_NEW on an existing file fails.
	if c := mk(existing, 1); c.Out.Err != api.ErrorFileExists {
		t.Errorf("CREATE_NEW existing: %+v", c.Out)
	}
	// OPEN_EXISTING on a missing file fails.
	if c := mk(fresh, 3); c.Out.Err != api.ErrorFileNotFound {
		t.Errorf("OPEN_EXISTING missing: %+v", c.Out)
	}
	// CREATE_NEW on a missing file succeeds and creates it.
	if c := mk(fresh, 1); c.Out.ErrReported {
		t.Fatalf("CREATE_NEW fresh: %+v", c.Out)
	}
	if _, err := k.FS.Stat("/bl/fresh.txt"); err != nil {
		t.Error("CREATE_NEW did not create the file")
	}
	// TRUNCATE_EXISTING without write access fails.
	c := run(t, osprofile.WinNT, k, p, "CreateFile",
		api.Ptr(existing), api.Int(int64(int32(-0x80000000))), api.Int(0), api.Ptr(0),
		api.Int(5), api.Int(0x80), api.HandleArg(0))
	if c.Out.Err != api.ErrorAccessDenied {
		t.Errorf("TRUNCATE_EXISTING read-only access: %+v", c.Out)
	}
	// Bad disposition.
	if c := mk(existing, 99); c.Out.Err != api.ErrorInvalidParameter {
		t.Errorf("bad disposition: %+v", c.Out)
	}
}

func TestPathValidation(t *testing.T) {
	k, p := newProc(t, osprofile.WinNT)
	bad := cstr(t, p, "bad<|>name")
	c := run(t, osprofile.WinNT, k, p, "DeleteFile", api.Ptr(bad))
	if c.Out.Err != api.ErrorInvalidName {
		t.Errorf("illegal chars: %+v", c.Out)
	}
	empty := cstr(t, p, "")
	c = run(t, osprofile.WinNT, k, p, "DeleteFile", api.Ptr(empty))
	if c.Out.Err != api.ErrorPathNotFound {
		t.Errorf("empty path: %+v", c.Out)
	}
	long := make([]byte, 300)
	for i := range long {
		long[i] = 'p'
	}
	longp := cstr(t, p, "/"+string(long))
	c = run(t, osprofile.WinNT, k, p, "DeleteFile", api.Ptr(longp))
	if c.Out.Err != api.ErrorFilenameExcedRange {
		t.Errorf("over-MAX_PATH: %+v", c.Out)
	}
	// NULL path on NT: probe failure surfaces as a thrown exception.
	c = run(t, osprofile.WinNT, k, p, "DeleteFile", api.Ptr(0))
	if c.Out.Exception != api.ExcAccessViolation {
		t.Errorf("NULL path on NT: %+v", c.Out)
	}
}

func TestDeleteReadOnlyFile(t *testing.T) {
	k, p := newProc(t, osprofile.WinNT)
	n, _ := k.FS.Create("/bl/ro.txt", 0o4, false)
	k.FS.SetAttrs(n, n.Attrs()|fs.AttrReadOnly)
	path := cstr(t, p, "/bl/ro.txt")
	c := run(t, osprofile.WinNT, k, p, "DeleteFile", api.Ptr(path))
	if c.Out.Err != api.ErrorAccessDenied {
		t.Errorf("DeleteFile(read-only): %+v", c.Out)
	}
}

func TestCopyMoveFile(t *testing.T) {
	k, p := newProc(t, osprofile.WinNT)
	src := cstr(t, p, "/bl/readable.txt")
	dst := cstr(t, p, "/bl/copy.txt")
	c := run(t, osprofile.WinNT, k, p, "CopyFile", api.Ptr(src), api.Ptr(dst), api.Int(1))
	if c.Out.Ret != 1 {
		t.Fatalf("CopyFile: %+v", c.Out)
	}
	// bFailIfExists honoured.
	c = run(t, osprofile.WinNT, k, p, "CopyFile", api.Ptr(src), api.Ptr(dst), api.Int(1))
	if c.Out.Err != api.ErrorFileExists {
		t.Errorf("CopyFile over existing: %+v", c.Out)
	}
	moved := cstr(t, p, "/bl/moved.txt")
	c = run(t, osprofile.WinNT, k, p, "MoveFile", api.Ptr(dst), api.Ptr(moved))
	if c.Out.Ret != 1 {
		t.Fatalf("MoveFile: %+v", c.Out)
	}
	if _, err := k.FS.Stat("/bl/copy.txt"); err == nil {
		t.Error("MoveFile left the source behind")
	}
	got, err := k.FS.Stat("/bl/moved.txt")
	if err != nil || len(got.Data()) == 0 {
		t.Error("MoveFile target missing or empty")
	}
}

func TestDirectoryCycle(t *testing.T) {
	k, p := newProc(t, osprofile.WinNT)
	dir := cstr(t, p, "/bl/newdir")
	c := run(t, osprofile.WinNT, k, p, "CreateDirectory", api.Ptr(dir), api.Ptr(0))
	if c.Out.Ret != 1 {
		t.Fatalf("CreateDirectory: %+v", c.Out)
	}
	c = run(t, osprofile.WinNT, k, p, "CreateDirectory", api.Ptr(dir), api.Ptr(0))
	if c.Out.Err != api.ErrorAlreadyExists {
		t.Errorf("CreateDirectory twice: %+v", c.Out)
	}
	c = run(t, osprofile.WinNT, k, p, "SetCurrentDirectory", api.Ptr(dir))
	if c.Out.Ret != 1 || p.Cwd != "/bl/newdir" {
		t.Errorf("SetCurrentDirectory: %+v cwd=%q", c.Out, p.Cwd)
	}
	buf, _ := p.AS.Alloc(64, mem.ProtRW)
	c = run(t, osprofile.WinNT, k, p, "GetCurrentDirectory", api.Int(64), api.Ptr(buf))
	got, _ := p.AS.CString(buf)
	if got != "/bl/newdir" {
		t.Errorf("GetCurrentDirectory = %q", got)
	}
	c = run(t, osprofile.WinNT, k, p, "RemoveDirectory", api.Ptr(dir))
	if c.Out.Ret != 1 {
		t.Errorf("RemoveDirectory: %+v", c.Out)
	}
}

func TestFileTimes(t *testing.T) {
	k, p := newProc(t, osprofile.WinNT)
	of, _ := k.FS.Open("/bl/readable.txt", true, true)
	h := p.AddHandle(&kern.Object{Kind: kern.KFile, File: of})
	ft, _ := p.AS.Alloc(8, mem.ProtRW)
	_ = p.AS.WriteU64(ft, 0x01BD000000000000)
	c := run(t, osprofile.WinNT, k, p, "SetFileTime",
		api.HandleArg(h), api.Ptr(0), api.Ptr(0), api.Ptr(ft))
	if c.Out.Ret != 1 {
		t.Fatalf("SetFileTime: %+v", c.Out)
	}
	out, _ := p.AS.Alloc(8, mem.ProtRW)
	c = run(t, osprofile.WinNT, k, p, "GetFileTime",
		api.HandleArg(h), api.Ptr(0), api.Ptr(0), api.Ptr(out))
	if c.Out.Ret != 1 {
		t.Fatalf("GetFileTime: %+v", c.Out)
	}
}

func TestSystemTimeToFileTimeValidation(t *testing.T) {
	k, p := newProc(t, osprofile.WinNT)
	st, _ := p.AS.Alloc(16, mem.ProtRW)
	// month 13
	_ = p.AS.WriteU16(st, 1999)
	_ = p.AS.WriteU16(st+2, 13)
	_ = p.AS.WriteU16(st+6, 10)
	ft, _ := p.AS.Alloc(8, mem.ProtRW)
	c := run(t, osprofile.WinNT, k, p, "SystemTimeToFileTime", api.Ptr(st), api.Ptr(ft))
	if c.Out.Err != api.ErrorInvalidParameter {
		t.Errorf("month 13: %+v", c.Out)
	}
	_ = p.AS.WriteU16(st+2, 6)
	c = run(t, osprofile.WinNT, k, p, "SystemTimeToFileTime", api.Ptr(st), api.Ptr(ft))
	if c.Out.Ret != 1 {
		t.Errorf("valid SYSTEMTIME: %+v", c.Out)
	}
}

func TestGetTempFileNameCreates(t *testing.T) {
	k, p := newProc(t, osprofile.WinNT)
	_ = k.FS.MkdirAll("/tmp", 0o7)
	dir := cstr(t, p, "/tmp")
	pre := cstr(t, p, "bal")
	buf, _ := p.AS.Alloc(128, mem.ProtRW)
	c := run(t, osprofile.WinNT, k, p, "GetTempFileName",
		api.Ptr(dir), api.Ptr(pre), api.Int(0), api.Ptr(buf))
	if c.Out.Ret == 0 {
		t.Fatalf("GetTempFileName: %+v", c.Out)
	}
	name, _ := p.AS.CString(buf)
	if _, err := k.FS.Stat(name); err != nil {
		t.Errorf("unique=0 should create %q: %v", name, err)
	}
	// Missing directory fails.
	missing := cstr(t, p, "/no/such/dir")
	c = run(t, osprofile.WinNT, k, p, "GetTempFileName",
		api.Ptr(missing), api.Ptr(pre), api.Int(0), api.Ptr(buf))
	if c.Out.Err != api.ErrorPathNotFound {
		t.Errorf("missing dir: %+v", c.Out)
	}
}

func TestGetFileSizeAndType(t *testing.T) {
	k, p := newProc(t, osprofile.WinNT)
	of, _ := k.FS.Open("/bl/readable.txt", true, false)
	h := p.AddHandle(&kern.Object{Kind: kern.KFile, File: of})
	hi, _ := p.AS.Alloc(4, mem.ProtRW)
	c := run(t, osprofile.WinNT, k, p, "GetFileSize", api.HandleArg(h), api.Ptr(hi))
	if c.Out.Ret != 18 {
		t.Errorf("GetFileSize = %d", c.Out.Ret)
	}
	c = run(t, osprofile.WinNT, k, p, "GetFileType", api.HandleArg(h))
	if c.Out.Ret != 1 { // FILE_TYPE_DISK
		t.Errorf("GetFileType(file) = %d", c.Out.Ret)
	}
	c = run(t, osprofile.WinNT, k, p, "GetFileType", api.HandleArg(p.Std(1)))
	if c.Out.Ret != 3 { // FILE_TYPE_PIPE
		t.Errorf("GetFileType(console) = %d", c.Out.Ret)
	}
}

func TestLockUnlockFile(t *testing.T) {
	k, p := newProc(t, osprofile.WinNT)
	of, _ := k.FS.Open("/bl/readable.txt", true, true)
	h := p.AddHandle(&kern.Object{Kind: kern.KFile, File: of})
	c := run(t, osprofile.WinNT, k, p, "LockFile",
		api.HandleArg(h), api.Int(0), api.Int(0), api.Int(10), api.Int(0))
	if c.Out.Ret != 1 {
		t.Fatalf("LockFile: %+v", c.Out)
	}
	// Overlapping lock on the same handle fails (LockFile semantics).
	c = run(t, osprofile.WinNT, k, p, "LockFile",
		api.HandleArg(h), api.Int(5), api.Int(0), api.Int(10), api.Int(0))
	if c.Out.Err != api.ErrorLockViolation {
		t.Errorf("overlapping LockFile: %+v", c.Out)
	}
	c = run(t, osprofile.WinNT, k, p, "UnlockFile",
		api.HandleArg(h), api.Int(0), api.Int(0), api.Int(10), api.Int(0))
	if c.Out.Ret != 1 {
		t.Fatalf("UnlockFile: %+v", c.Out)
	}
	c = run(t, osprofile.WinNT, k, p, "UnlockFile",
		api.HandleArg(h), api.Int(0), api.Int(0), api.Int(10), api.Int(0))
	if c.Out.Err != api.ErrorNotLocked {
		t.Errorf("double UnlockFile: %+v", c.Out)
	}
	// Zero-length lock is invalid.
	c = run(t, osprofile.WinNT, k, p, "LockFile",
		api.HandleArg(h), api.Int(0), api.Int(0), api.Int(0), api.Int(0))
	if c.Out.Err != api.ErrorInvalidParameter {
		t.Errorf("zero-length LockFile: %+v", c.Out)
	}
}

func TestSearchPathFindsFixture(t *testing.T) {
	k, p := newProc(t, osprofile.WinNT)
	file := cstr(t, p, "readable.txt")
	buf, _ := p.AS.Alloc(128, mem.ProtRW)
	c := run(t, osprofile.WinNT, k, p, "SearchPath",
		api.Ptr(0), api.Ptr(file), api.Ptr(0), api.Int(128), api.Ptr(buf), api.Ptr(0))
	if c.Out.Ret == 0 {
		t.Fatalf("SearchPath: %+v", c.Out)
	}
	got, _ := p.AS.CString(buf)
	if got != "/bl/readable.txt" {
		t.Errorf("SearchPath = %q", got)
	}
	missing := cstr(t, p, "nosuchfile.xyz")
	c = run(t, osprofile.WinNT, k, p, "SearchPath",
		api.Ptr(0), api.Ptr(missing), api.Ptr(0), api.Int(128), api.Ptr(buf), api.Ptr(0))
	if c.Out.Err != api.ErrorFileNotFound {
		t.Errorf("SearchPath missing: %+v", c.Out)
	}
}

func TestRequiredSizeProtocols(t *testing.T) {
	k, p := newProc(t, osprofile.WinNT)
	// A too-small buffer returns the required size without touching it.
	c := run(t, osprofile.WinNT, k, p, "GetCurrentDirectory", api.Int(1), api.Ptr(0))
	if c.Out.Ret != int64(len("/")+1) || c.Out.Exception != 0 {
		t.Errorf("GetCurrentDirectory(1, NULL): %+v", c.Out)
	}
	c = run(t, osprofile.WinNT, k, p, "GetTempPath", api.Int(2), api.Ptr(0))
	if c.Out.Ret != int64(len("/tmp/")+1) {
		t.Errorf("GetTempPath(2, NULL): %+v", c.Out)
	}
}

func TestSetEndOfFile(t *testing.T) {
	k, p := newProc(t, osprofile.WinNT)
	of, _ := k.FS.Open("/bl/readable.txt", true, true)
	_, _ = of.Seek(5, 0)
	h := p.AddHandle(&kern.Object{Kind: kern.KFile, File: of})
	c := run(t, osprofile.WinNT, k, p, "SetEndOfFile", api.HandleArg(h))
	if c.Out.Ret != 1 {
		t.Fatalf("SetEndOfFile: %+v", c.Out)
	}
	if of.Node().Size() != 5 {
		t.Errorf("size after SetEndOfFile = %d", of.Node().Size())
	}
}

// TestCopyFileSparse: CopyFile of a truncate-grown file copies its
// logical size, and the copy reads zeros across the same hole.
func TestCopyFileSparse(t *testing.T) {
	k, p := newProc(t, osprofile.WinNT)
	of, err := k.FS.Open("/bl/readable.txt", true, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := of.Truncate(3 * mem.PageSize); err != nil {
		t.Fatal(err)
	}
	src := cstr(t, p, "/bl/readable.txt")
	dst := cstr(t, p, "/bl/sparse-copy.txt")
	if c := run(t, osprofile.WinNT, k, p, "CopyFile", api.Ptr(src), api.Ptr(dst), api.Int(1)); c.Out.Ret != 1 {
		t.Fatalf("CopyFile: %+v", c.Out)
	}
	n, err := k.FS.Stat("/bl/sparse-copy.txt")
	if err != nil || n.Size() != 3*mem.PageSize {
		t.Fatalf("copy: err %v, size %d", err, n.Size())
	}
	cf := k.FS.OpenNode(n, true, false)
	if _, err := cf.Seek(16, fs.SeekSet); err != nil {
		t.Fatal(err)
	}
	if got, err := cf.Read(8); err != nil || string(got) != "ta\x00\x00\x00\x00\x00\x00" {
		t.Errorf("copy read %v %q", err, got)
	}
	if _, err := cf.Seek(-1, fs.SeekEnd); err != nil {
		t.Fatal(err)
	}
	if got, err := cf.Read(4); err != nil || string(got) != "\x00" {
		t.Errorf("read at the copy's end: %v %q", err, got)
	}
}
