package fs

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"ballista/internal/chaos"
)

// treeImage renders every field of every node in sorted path order, and
// flags any child whose parent pointer or name disagrees with the entry
// that holds it.
func treeImage(f *FileSystem) string {
	var b strings.Builder
	var walk func(path string, n *Node)
	walk = func(path string, n *Node) {
		fmt.Fprintf(&b, "%s dir=%v data=%q mode=%o attrs=%#x nlink=%d locks=%d times=%d/%d/%d\n",
			path, n.dir, n.data, n.mode, n.attrs, n.nlink, len(n.locks),
			n.CreateTime, n.AccessTime, n.WriteTime)
		names := make([]string, 0, len(n.children))
		for name := range n.children {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			c := n.children[name]
			if c.parent != n || c.name != name {
				fmt.Fprintf(&b, "%s/%s: entry disagrees with node (name %q)\n", path, name, c.name)
			}
			walk(path+"/"+name, c)
		}
	}
	walk("", &f.root)
	return b.String()
}

// copySource builds a small tree with nested directories, file data, an
// empty file, non-default modes and attributes, and distinct timestamps.
func copySource(t *testing.T) *FileSystem {
	t.Helper()
	f := newFS()
	if err := f.MkdirAll("/a/b", 0o5); err != nil {
		t.Fatal(err)
	}
	n, err := f.Create("/a/b/f.txt", 0o6, false)
	if err != nil {
		t.Fatal(err)
	}
	f.SetData(n, []byte("0123456789"))
	f.SetAttrs(n, AttrReadOnly)
	if _, err := f.Create("/empty", 0o4, false); err != nil {
		t.Fatal(err)
	}
	f.Touch(n)
	return f
}

func TestCopyTreeIsExactAndIndependent(t *testing.T) {
	src := copySource(t)
	want := treeImage(src)
	srcTicks := src.Now()

	dst := newFS()
	if err := dst.CopyTree(src); err != nil {
		t.Fatal(err)
	}
	if got := treeImage(dst); got != want {
		t.Fatalf("copy differs from source:\ncopy:\n%s\nsource:\n%s", got, want)
	}
	if dst.Dirty() {
		t.Error("CopyTree left the destination dirty")
	}
	if dst.Now() != 1 || src.Now() != srcTicks+1 {
		t.Error("CopyTree ticked a clock")
	}

	// Mutate every kind of copied state in the copy; the source must not
	// see any of it.
	n, err := dst.Stat("/a/b/f.txt")
	if err != nil {
		t.Fatal(err)
	}
	dst.SetAttrs(n, AttrArchive)
	w, err := dst.Open("/a/b/f.txt", true, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("XY")); err != nil {
		t.Fatal(err)
	}
	if err := w.Lock(0, 1, true); err != nil {
		t.Fatal(err)
	}
	dst.SetMode(n, 0o1)
	if err := dst.Rename("/a/b/f.txt", "/a/g.txt"); err != nil {
		t.Fatal(err)
	}
	if err := dst.Remove("/empty"); err != nil {
		t.Fatal(err)
	}
	if err := dst.Mkdir("/a/b/c", 0o7); err != nil {
		t.Fatal(err)
	}
	if got := treeImage(src); got != want {
		t.Fatalf("mutating the copy changed the source:\n%s\nwant:\n%s", got, want)
	}
}

func TestCopyTreeRefuses(t *testing.T) {
	linked := copySource(t)
	if err := linked.Link("/a/b/f.txt", "/alias"); err != nil {
		t.Fatal(err)
	}
	// Removing the canonical name leaves an alias whose entry name is not
	// the node's name, with a link count of one.
	unlinked := copySource(t)
	if err := unlinked.Link("/empty", "/a/alias"); err != nil {
		t.Fatal(err)
	}
	if err := unlinked.Remove("/empty"); err != nil {
		t.Fatal(err)
	}
	locked := copySource(t)
	h, err := locked.Open("/empty", true, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Lock(0, 1, false); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		src  *FileSystem
		dst  func() *FileSystem
	}{
		{"hard link", linked, newFS},
		{"alias after unlink", unlinked, newFS},
		{"byte-range lock", locked, newFS},
		{"destination with a persistence log", copySource(t), func() *FileSystem {
			f := newFS()
			f.SetPersistLog(NewPersistLog())
			return f
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dst := tc.dst()
			if err := dst.Mkdir("/keep", 0o7); err != nil {
				t.Fatal(err)
			}
			before := treeImage(dst)
			if err := dst.CopyTree(tc.src); err == nil {
				t.Fatal("CopyTree accepted the source")
			}
			if got := treeImage(dst); got != before {
				t.Errorf("a refused copy changed the destination:\n%s\nwant:\n%s", got, before)
			}
			if !dst.Dirty() {
				t.Error("a refused copy marked the destination clean")
			}
		})
	}
}

func TestPristine(t *testing.T) {
	if !newFS().Pristine() {
		t.Fatal("a new filesystem is not pristine")
	}
	for _, tc := range []struct {
		name   string
		mutate func(f *FileSystem)
	}{
		{"entry", func(f *FileSystem) { _ = f.Mkdir("/d", 0o7) }},
		{"root mode", func(f *FileSystem) { f.SetMode(&f.root, 0o5) }},
		{"root attrs", func(f *FileSystem) { f.SetAttrs(&f.root, AttrDirectory|AttrHidden) }},
		{"root times", func(f *FileSystem) { f.Touch(&f.root) }},
		{"marked clean", func(f *FileSystem) { f.MarkClean() }},
		{"persistence log", func(f *FileSystem) { f.SetPersistLog(NewPersistLog()) }},
		{"injector", func(f *FileSystem) { f.SetInjector((&chaos.Plan{}).NewInjector(nil)) }},
	} {
		f := newFS()
		tc.mutate(f)
		if f.Pristine() {
			t.Errorf("%s: still pristine", tc.name)
		}
	}
}
