// Package suite defines the concrete Ballista test suite: the data-type
// test-value pools for the Win32, POSIX and C-library surfaces, and the
// filesystem fixtures the constructors rely on.
//
// Pool contents follow the paper's §3.1 approach: "most of the Windows
// data types required were minor specializations of fairly generic C
// data types", so Windows pools reuse the generic pointer/integer pools
// with the HANDLE family added.  Each pool deliberately mixes exceptional
// and non-exceptional values (paper §2).  C library pools are identical
// across operating systems, enabling the paper's like-for-like
// comparison; only materialization differs (e.g. UTF-16 strings for the
// Windows CE UNICODE variants).
package suite

import (
	"sync"

	"ballista/internal/core"
	"ballista/internal/sim/fs"
	"ballista/internal/sim/kern"
)

// NewRegistry builds the full data-type registry for all three API
// surfaces.
func NewRegistry() *core.Registry {
	r := core.NewRegistry()
	registerCommon(r)
	registerCLib(r)
	registerWin32(r)
	registerPOSIX(r)
	registerSockets(r)
	return r
}

// Fixture paths shared by constructors and implementations.
const (
	FixtureDir      = "/bl"
	FixtureReadable = "/bl/readable.txt"
	FixtureWritable = "/bl/writable.txt"
	FixtureReadOnly = "/bl/readonly.txt"
	FixtureSubdir   = "/bl/dir"
	FixtureExec     = "/bin/true"
	ScratchDir      = "/scratch"
	TempDir         = "/tmp"
)

// FixtureContent is the canonical fixture file body.
const FixtureContent = "Ballista fixture data: the quick brown fox jumps over the lazy dog.\n"

// SetupFixtures (re)creates the canonical file tree.  It is idempotent
// and restorative: called before every test case, it guarantees each
// case starts from identical disk state even though the machine itself
// persists across a campaign.
//
// The restore is dirty-tracked.  The network is always reset (a no-op on
// a pristine network), but the file tree is repaired only when
// k.FS.Dirty() reports a tracked change since the last complete pass:
// a mutated tree shape, file data, mode, attributes, link count or
// byte-range lock.  On a tree the last complete pass left canonical the
// repair below is a pure no-op — no clock tick, no chaos decision, no
// persistence record — so skipping it changes no result.  Timestamps are
// not tracked because the repair has never restored them.
//
// A brand-new machine — no chaos injector, a clock that has never
// ticked, and a filesystem exactly as fs.New left it (root alone, no
// persistence log, no injector) and stamped by the kernel clock, as
// kern.New wires it — copies the canonical tree instead of building it.  The copy comes from a template built once per process by
// running the full repair on a fresh kernel; on such a machine the
// repair reads only the tree and the clock, so the copy plus advancing
// the clock to the template's tick count equals running it, timestamps
// and ticks included.  Every other machine takes the repair.
//
// A machine with a chaos injector attached never marks its tree clean:
// an injected fault can stop a repair partway, and the next call must
// retry it, consuming the same chaos decisions as an unconditional
// repair would.
func SetupFixtures(k *kern.Kernel) { setupFixtures(k, true) }

// setupFixtures is SetupFixtures with the template copy optional, so the
// soundness oracle can force the repair on a brand-new machine.
func setupFixtures(k *kern.Kernel, useTemplate bool) {
	// The network is machine state like the disk, but unlike disk
	// fixtures, sockets leaked by a previous case would pin ports and
	// skew the ephemeral allocator; rewind it so every case sees an
	// identical network.
	k.Net.Reset()
	if !k.FS.Dirty() {
		return
	}
	if useTemplate && k.Injector() == nil && k.Ticks() == 0 && k.FS.Pristine() {
		t := fixtureTemplate()
		if err := k.FS.CopyTree(t.FS); err != nil {
			panic("suite: fixture template: " + err.Error())
		}
		k.AdvanceClock(t.Ticks())
		return
	}
	repairFixtures(k)
	if k.Injector() == nil {
		k.FS.MarkClean()
	}
}

// fixtureTemplate is a fresh kernel after one full repair: the canonical
// tree and the tick count a brand-new machine reaches by building it.
// It is read-only once built; SetupFixtures copies it.
var fixtureTemplate = sync.OnceValue(func() *kern.Kernel {
	k := kern.New(kern.ArchNT)
	repairFixtures(k)
	return k
})

// repairFixtures is the full repair pass over the file tree.
func repairFixtures(k *kern.Kernel) {
	f := k.FS
	ensureDir := func(path string) {
		_ = f.MkdirAll(path, 0o7)
		// A chmod-style MuT may have stripped the directory's permission
		// bits in a previous case; restore them along with the shape.
		if n, err := f.Stat(path); err == nil && n.IsDir() {
			f.SetMode(n, 0o7)
			f.SetAttrs(n, fs.AttrDirectory)
			f.ClearLocks(n)
		}
	}
	ensureDir(FixtureDir)
	ensureDir(FixtureSubdir)
	ensureDir(TempDir)
	ensureDir("/bin")
	ensureDir("/home/ballista")

	ensureFile := func(path, content string, mode uint16, attrs fs.Attr) {
		n, err := f.Stat(path)
		if err == nil && n.IsDir() {
			// A rename-style MuT replaced the fixture file with a
			// directory (fs.Rename moves a directory over a plain-file
			// target); restore the file shape or every later open of
			// this fixture would fail with ErrIsDir.
			wipe(k, path)
			_ = f.Rmdir(path)
			n, err = nil, fs.ErrNotFound
		}
		if err != nil {
			n, err = f.Create(path, mode, true)
			if err != nil {
				return
			}
		}
		if n.Size() != int64(len(content)) || string(n.Data()) != content {
			f.SetData(n, []byte(content))
		}
		f.SetMode(n, mode)
		f.SetAttrs(n, attrs)
		// Byte-range locks taken by a previous case's (now defunct)
		// process would otherwise shadow this case's I/O.
		f.ClearLocks(n)
	}

	ensureFile(FixtureReadable, FixtureContent, 0o6, fs.AttrArchive)
	ensureFile(FixtureWritable, FixtureContent, 0o6, fs.AttrArchive)
	ensureFile(FixtureReadOnly, FixtureContent, 0o4, fs.AttrReadOnly)
	ensureFile(FixtureSubdir+"/a.txt", "alpha\n", 0o6, fs.AttrArchive)
	ensureFile(FixtureSubdir+"/b.txt", "bravo\n", 0o6, fs.AttrArchive)
	ensureFile(FixtureSubdir+"/c.dat", "charlie\n", 0o6, fs.AttrArchive)
	ensureFile(FixtureExec, "#!ballista\n", 0o7, fs.AttrArchive)

	// Scratch space is wiped between cases so "new path" values behave
	// identically every time.
	wipe(k, ScratchDir)
	wipe(k, TempDir)
	_ = f.MkdirAll(ScratchDir, 0o7)
	_ = f.MkdirAll(TempDir, 0o7)

	// Relative-path test values resolve against the root, so MuTs can
	// litter it (fopen("bad<|>*?name", "w") creates /bad<|>*?name) and
	// rename-style MuTs can move fixture entries to stray names.  Prune
	// anything outside the canonical tree; /load is deliberately kept —
	// LoadProfile preloading is per-machine state, not per-case state.
	prune(k, "/", "bl", "bin", "home", "load", ScratchDir[1:], TempDir[1:])
	prune(k, FixtureDir, "readable.txt", "writable.txt", "readonly.txt", "dir")
	prune(k, FixtureSubdir, "a.txt", "b.txt", "c.dat")
}

// prune removes every child of dir whose name is not in keep.
func prune(k *kern.Kernel, dir string, keep ...string) {
	names, err := k.FS.List(dir)
	if err != nil {
		return
	}
	kept := make(map[string]bool, len(keep))
	for _, name := range keep {
		kept[name] = true
	}
	base := dir
	if base != "/" {
		base += "/"
	} else {
		base = "/"
	}
	for _, name := range names {
		if kept[name] {
			continue
		}
		p := base + name
		if n, err := k.FS.Stat(p); err == nil {
			k.FS.SetAttrs(n, n.Attrs()&^fs.AttrReadOnly)
			if n.IsDir() {
				wipe(k, p)
				_ = k.FS.Rmdir(p)
			} else {
				_ = k.FS.Remove(p)
			}
		}
	}
}

func wipe(k *kern.Kernel, dir string) {
	names, err := k.FS.List(dir)
	if err != nil {
		return
	}
	for _, name := range names {
		p := dir + "/" + name
		if n, err := k.FS.Stat(p); err == nil {
			k.FS.SetAttrs(n, n.Attrs()&^fs.AttrReadOnly)
			if n.IsDir() {
				wipe(k, p)
				_ = k.FS.Rmdir(p)
			} else {
				_ = k.FS.Remove(p)
			}
		}
	}
}
