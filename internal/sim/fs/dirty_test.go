package fs

import "testing"

// dirtyFixture builds a small tree: /d/f.txt holding "0123456789",
// an empty /e, and the read handle h and write handle w on /d/f.txt.
func dirtyFixture(t *testing.T) (f *FileSystem, n *Node, h, w *OpenFile) {
	t.Helper()
	f = newFS()
	if err := f.MkdirAll("/d", 0o7); err != nil {
		t.Fatal(err)
	}
	if err := f.Mkdir("/e", 0o7); err != nil {
		t.Fatal(err)
	}
	n, err := f.Create("/d/f.txt", 0o6, false)
	if err != nil {
		t.Fatal(err)
	}
	f.SetData(n, []byte("0123456789"))
	if h, err = f.Open("/d/f.txt", true, false); err != nil {
		t.Fatal(err)
	}
	if w, err = f.Open("/d/f.txt", true, true); err != nil {
		t.Fatal(err)
	}
	return f, n, h, w
}

func TestNewFileSystemStartsDirty(t *testing.T) {
	f := newFS()
	if !f.Dirty() {
		t.Fatal("a new filesystem must start dirty so the first fixture apply runs")
	}
	f.MarkClean()
	if f.Dirty() {
		t.Fatal("MarkClean left the flag set")
	}
}

// TestMutatorsSetDirty: every mutator of state the fixture restore
// repairs sets the dirty flag when it changes something.
func TestMutatorsSetDirty(t *testing.T) {
	for _, tc := range []struct {
		name string
		// prep runs before MarkClean and returns the mutation.
		prep func(f *FileSystem, n *Node, h, w *OpenFile) func() error
	}{
		{"Create/new", func(f *FileSystem, _ *Node, _, _ *OpenFile) func() error {
			return func() error { _, err := f.Create("/d/g.txt", 0o6, false); return err }
		}},
		{"Create/trunc", func(f *FileSystem, _ *Node, _, _ *OpenFile) func() error {
			return func() error { _, err := f.Create("/d/f.txt", 0o6, true); return err }
		}},
		{"Mkdir", func(f *FileSystem, _ *Node, _, _ *OpenFile) func() error {
			return func() error { return f.Mkdir("/d/sub", 0o7) }
		}},
		{"MkdirAll/creates", func(f *FileSystem, _ *Node, _, _ *OpenFile) func() error {
			return func() error { return f.MkdirAll("/x/y", 0o7) }
		}},
		{"Remove", func(f *FileSystem, _ *Node, _, _ *OpenFile) func() error {
			return func() error { return f.Remove("/d/f.txt") }
		}},
		{"Rmdir", func(f *FileSystem, _ *Node, _, _ *OpenFile) func() error {
			return func() error { return f.Rmdir("/e") }
		}},
		{"Rename", func(f *FileSystem, _ *Node, _, _ *OpenFile) func() error {
			return func() error { return f.Rename("/d/f.txt", "/e/f.txt") }
		}},
		{"Link", func(f *FileSystem, _ *Node, _, _ *OpenFile) func() error {
			return func() error { return f.Link("/d/f.txt", "/e/alias.txt") }
		}},
		{"Write", func(_ *FileSystem, _ *Node, _, w *OpenFile) func() error {
			return func() error { _, err := w.Write([]byte("ab")); return err }
		}},
		{"Truncate", func(_ *FileSystem, _ *Node, _, w *OpenFile) func() error {
			return func() error { return w.Truncate(3) }
		}},
		{"Lock", func(_ *FileSystem, _ *Node, h, _ *OpenFile) func() error {
			return func() error { return h.Lock(0, 4, false) }
		}},
		{"Unlock", func(_ *FileSystem, _ *Node, h, _ *OpenFile) func() error {
			if err := h.Lock(0, 4, false); err != nil {
				return func() error { return err }
			}
			return func() error { return h.Unlock(0, 4) }
		}},
		{"Close/drops locks", func(_ *FileSystem, _ *Node, h, _ *OpenFile) func() error {
			if err := h.Lock(0, 4, false); err != nil {
				return func() error { return err }
			}
			return h.Close
		}},
		{"Close/delete-on-close", func(_ *FileSystem, _ *Node, h, _ *OpenFile) func() error {
			h.DeleteOnC = true
			return h.Close
		}},
		{"SetData", func(f *FileSystem, n *Node, _, _ *OpenFile) func() error {
			return func() error { f.SetData(n, nil); return nil }
		}},
		{"SetMode", func(f *FileSystem, n *Node, _, _ *OpenFile) func() error {
			return func() error { f.SetMode(n, 0); return nil }
		}},
		{"SetAttrs", func(f *FileSystem, n *Node, _, _ *OpenFile) func() error {
			return func() error { f.SetAttrs(n, AttrReadOnly); return nil }
		}},
		{"ClearLocks", func(f *FileSystem, n *Node, h, _ *OpenFile) func() error {
			if err := h.Lock(0, 4, false); err != nil {
				return func() error { return err }
			}
			return func() error { f.ClearLocks(n); return nil }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, n, h, w := dirtyFixture(t)
			op := tc.prep(f, n, h, w)
			f.MarkClean()
			if err := op(); err != nil {
				t.Fatal(err)
			}
			if !f.Dirty() {
				t.Errorf("%s did not mark the filesystem dirty", tc.name)
			}
		})
	}
}

// TestReadsStayClean: lookups, reads, seeks, timestamp-only updates and
// mutator calls that change nothing leave the flag clear.
func TestReadsStayClean(t *testing.T) {
	f, n, h, w := dirtyFixture(t)
	f.MarkClean()
	steps := []struct {
		name string
		op   func() error
	}{
		{"Stat", func() error { _, err := f.Stat("/d/f.txt"); return err }},
		{"List", func() error { _, err := f.List("/d"); return err }},
		{"Glob", func() error { _, err := f.Glob("/d", "*.txt"); return err }},
		{"Open/read-only", func() error { _, err := f.Open("/d/f.txt", true, false); return err }},
		{"Open/writable", func() error { _, err := f.Open("/d/f.txt", true, true); return err }},
		{"Read", func() error { _, err := h.Read(4); return err }},
		{"Seek", func() error { _, err := w.Seek(2, SeekSet); return err }},
		{"Touch", func() error { f.Touch(n); return nil }},
		{"Fsync", func() error { return f.Fsync("/d/f.txt") }},
		{"MkdirAll/existing", func() error { return f.MkdirAll("/d", 0o7) }},
		{"Create/existing", func() error { _, err := f.Create("/d/f.txt", 0o6, false); return err }},
		{"Close/no locks", h.Close},
		{"ClearLocks/none", func() error { f.ClearLocks(n); return nil }},
	}
	for _, s := range steps {
		if err := s.op(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if f.Dirty() {
			t.Fatalf("%s marked the filesystem dirty", s.name)
		}
	}
}
