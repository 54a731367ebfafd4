package fs

import (
	"errors"
	"testing"
	"testing/quick"
)

func newFS() *FileSystem { return New(nil) }

func TestCreateStatRemove(t *testing.T) {
	f := newFS()
	if err := f.MkdirAll("/a/b", 0o7); err != nil {
		t.Fatal(err)
	}
	n, err := f.Create("/a/b/x.txt", 0o6, false)
	if err != nil {
		t.Fatal(err)
	}
	f.SetData(n, []byte("hi"))
	got, err := f.Stat("/a/b/x.txt")
	if err != nil || got.Size() != 2 {
		t.Fatalf("Stat: %v size %d", err, got.Size())
	}
	if err := f.Remove("/a/b/x.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Stat("/a/b/x.txt"); !errors.Is(err, ErrNotFound) {
		t.Errorf("after Remove, Stat err = %v", err)
	}
}

func TestPathStyles(t *testing.T) {
	f := newFS()
	if err := f.MkdirAll("/bl/dir", 0o7); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Create("/bl/dir/f.txt", 0o6, false); err != nil {
		t.Fatal(err)
	}
	// Windows style resolves to the same node.
	for _, p := range []string{`C:\bl\dir\f.txt`, `\bl\dir\f.txt`, "/bl/./dir/../dir/f.txt"} {
		if _, err := f.Stat(p); err != nil {
			t.Errorf("Stat(%q): %v", p, err)
		}
	}
}

func TestSplitInvalid(t *testing.T) {
	if _, err := Split(""); !errors.Is(err, ErrInvalidPath) {
		t.Error("empty path should be invalid")
	}
	if _, err := Split("a\x00b"); !errors.Is(err, ErrInvalidPath) {
		t.Error("NUL in path should be invalid")
	}
}

func TestMkdirErrors(t *testing.T) {
	f := newFS()
	if err := f.Mkdir("/d", 0o7); err != nil {
		t.Fatal(err)
	}
	if err := f.Mkdir("/d", 0o7); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate Mkdir: %v", err)
	}
	if err := f.Mkdir("/no/such/parent", 0o7); !errors.Is(err, ErrNotFound) {
		t.Errorf("Mkdir without parent: %v", err)
	}
}

func TestRmdir(t *testing.T) {
	f := newFS()
	_ = f.MkdirAll("/d/e", 0o7)
	if err := f.Rmdir("/d"); !errors.Is(err, ErrNotEmpty) {
		t.Errorf("Rmdir non-empty: %v", err)
	}
	if err := f.Rmdir("/d/e"); err != nil {
		t.Fatal(err)
	}
	if err := f.Rmdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := f.Rmdir("/"); !errors.Is(err, ErrPerm) {
		t.Errorf("Rmdir root: %v", err)
	}
	if _, err := f.Create("/f", 0o6, false); err != nil {
		t.Fatal(err)
	}
	if err := f.Rmdir("/f"); !errors.Is(err, ErrNotDir) {
		t.Errorf("Rmdir on file: %v", err)
	}
}

func TestRename(t *testing.T) {
	f := newFS()
	_ = f.MkdirAll("/a", 0o7)
	_ = f.MkdirAll("/b", 0o7)
	n, _ := f.Create("/a/x", 0o6, false)
	f.SetData(n, []byte("payload"))
	if err := f.Rename("/a/x", "/b/y"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Stat("/a/x"); err == nil {
		t.Error("source still present after Rename")
	}
	got, err := f.Stat("/b/y")
	if err != nil || string(got.Data()) != "payload" {
		t.Errorf("target: %v %q", err, got.Data())
	}
}

func TestReadOnlyEnforcement(t *testing.T) {
	f := newFS()
	n, _ := f.Create("/ro", 0o4, false)
	f.SetAttrs(n, n.Attrs()|AttrReadOnly)
	if err := f.Remove("/ro"); !errors.Is(err, ErrPerm) {
		t.Errorf("Remove read-only: %v", err)
	}
	if _, err := f.Open("/ro", false, true); !errors.Is(err, ErrPerm) {
		t.Errorf("Open read-only for write: %v", err)
	}
	if _, err := f.Open("/ro", true, false); err != nil {
		t.Errorf("Open read-only for read: %v", err)
	}
}

func TestOpenFileIO(t *testing.T) {
	f := newFS()
	n, _ := f.Create("/x", 0o6, false)
	f.SetData(n, []byte("0123456789"))
	of, err := f.Open("/x", true, true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := of.Read(4)
	if err != nil || string(got) != "0123" {
		t.Fatalf("Read: %v %q", err, got)
	}
	if _, err := of.Seek(8, SeekSet); err != nil {
		t.Fatal(err)
	}
	if _, err := of.Write([]byte("ZZZZ")); err != nil {
		t.Fatal(err)
	}
	if string(n.Data()) != "01234567ZZZZ" {
		t.Errorf("after write: %q", n.Data())
	}
	if _, err := of.Seek(-100, SeekCur); err == nil {
		t.Error("negative seek should fail")
	}
	if err := of.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := of.Read(4); !errors.Is(err, ErrClosed) {
		t.Errorf("Read after Close: %v", err)
	}
	if err := of.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("double Close: %v", err)
	}
}

func TestTruncate(t *testing.T) {
	f := newFS()
	n, _ := f.Create("/x", 0o6, false)
	f.SetData(n, []byte("0123456789"))
	of, _ := f.Open("/x", false, true)
	if err := of.Truncate(4); err != nil {
		t.Fatal(err)
	}
	if string(n.Data()) != "0123" {
		t.Errorf("Truncate(4): %q", n.Data())
	}
	if err := of.Truncate(8); err != nil {
		t.Fatal(err)
	}
	if n.Size() != 8 {
		t.Errorf("Truncate(8) size %d", n.Size())
	}
	rf, _ := f.Open("/x", true, false)
	if got, err := rf.Read(9); err != nil || string(got) != "0123\x00\x00\x00\x00" {
		t.Errorf("Truncate(8) reads %v %q", err, got)
	}
}

func TestLocks(t *testing.T) {
	f := newFS()
	_, _ = f.Create("/x", 0o6, false)
	a, _ := f.Open("/x", true, true)
	b, _ := f.Open("/x", true, true)
	if err := a.Lock(0, 10, true); err != nil {
		t.Fatal(err)
	}
	if err := b.Lock(5, 10, true); !errors.Is(err, ErrLocked) {
		t.Errorf("overlapping lock: %v", err)
	}
	// The owner can write its own locked range; a foreign handle cannot.
	if _, err := a.Write([]byte("own")); err != nil {
		t.Errorf("owner write: %v", err)
	}
	if _, err := b.Write([]byte("foreign")); !errors.Is(err, ErrLocked) {
		t.Errorf("foreign write into locked range: %v", err)
	}
	if err := a.Unlock(0, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Write([]byte("now ok")); err != nil {
		t.Errorf("write after unlock: %v", err)
	}
	if err := a.Unlock(0, 10); !errors.Is(err, ErrNotFound) {
		t.Errorf("double unlock: %v", err)
	}
}

func TestLocksReleasedOnClose(t *testing.T) {
	f := newFS()
	_, _ = f.Create("/x", 0o6, false)
	a, _ := f.Open("/x", true, true)
	b, _ := f.Open("/x", true, true)
	_ = a.Lock(0, 100, true)
	_ = a.Close()
	if _, err := b.Write([]byte("freed")); err != nil {
		t.Errorf("lock should die with its handle: %v", err)
	}
}

func TestGlobMatch(t *testing.T) {
	tests := []struct {
		pattern, name string
		want          bool
	}{
		{"*", "anything", true},
		{"*.txt", "a.txt", true},
		{"*.txt", "a.dat", false},
		{"a?c", "abc", true},
		{"a?c", "ac", false},
		{"A*.TXT", "a1.txt", true}, // case-insensitive, Win32 style
		{"*x*", "axb", true},
		{"", "", true},
		{"", "a", false},
	}
	for _, tt := range tests {
		if got := Match(tt.pattern, tt.name); got != tt.want {
			t.Errorf("Match(%q, %q) = %v, want %v", tt.pattern, tt.name, got, tt.want)
		}
	}
}

func TestGlob(t *testing.T) {
	f := newFS()
	_ = f.MkdirAll("/d", 0o7)
	for _, name := range []string{"a.txt", "b.txt", "c.dat"} {
		if _, err := f.Create("/d/"+name, 0o6, false); err != nil {
			t.Fatal(err)
		}
	}
	nodes, err := f.Glob("/d", "*.txt")
	if err != nil || len(nodes) != 2 {
		t.Fatalf("Glob: %v, %d nodes", err, len(nodes))
	}
	if nodes[0].Name() != "a.txt" || nodes[1].Name() != "b.txt" {
		t.Errorf("Glob order: %s, %s", nodes[0].Name(), nodes[1].Name())
	}
}

func TestDeleteOnClose(t *testing.T) {
	f := newFS()
	_, _ = f.Create("/tmpf", 0o6, false)
	of, _ := f.Open("/tmpf", true, true)
	of.DeleteOnC = true
	_ = of.Close()
	if _, err := f.Stat("/tmpf"); err == nil {
		t.Error("DeleteOnClose file still present")
	}
}

// TestSplitNormalizationProperty: Split is idempotent under re-joining.
func TestSplitNormalizationProperty(t *testing.T) {
	prop := func(parts []string) bool {
		path := "/"
		for _, p := range parts {
			if p == "" || len(p) > 20 {
				return true // skip degenerate inputs
			}
			for _, ch := range p {
				if ch == '/' || ch == '\\' || ch == 0 || ch == '.' {
					return true
				}
			}
			path += p + "/"
		}
		a, err := Split(path)
		if err != nil {
			return false
		}
		b, err := Split("/" + joinSlash(a))
		if err != nil {
			return false
		}
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func joinSlash(parts []string) string {
	out := ""
	for _, p := range parts {
		out += p + "/"
	}
	return out
}
