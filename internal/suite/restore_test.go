package suite

import (
	"testing"

	"ballista/internal/chaos"
	"ballista/internal/osprofile"
	"ballista/internal/sim/fs"
	"ballista/internal/sim/kern"
)

func fixtureKernel(t *testing.T) *kern.Kernel {
	t.Helper()
	k := osprofile.Get(osprofile.WinNT).NewKernel()
	SetupFixtures(k)
	return k
}

// TestRestoreFileShape: a rename-style MuT can move a directory over a
// fixture file (fs.Rename replaces plain-file targets).  The next
// SetupFixtures must restore the file, or every later fixture open
// fails with ErrIsDir for the rest of the campaign — the state leak
// that made long shared-machine campaigns diverge from fresh-kernel
// farm shards.
func TestRestoreFileShape(t *testing.T) {
	k := fixtureKernel(t)
	if err := k.FS.Rename(FixtureSubdir, FixtureReadable); err != nil {
		t.Fatal(err)
	}
	if n, err := k.FS.Stat(FixtureReadable); err != nil || !n.IsDir() {
		t.Fatalf("precondition: fixture not a directory (err=%v)", err)
	}

	SetupFixtures(k)

	if _, err := k.FS.Open(FixtureReadable, true, false); err != nil {
		t.Fatalf("fixture unreadable after restore: %v", err)
	}
	n, err := k.FS.Stat(FixtureReadable)
	if err != nil || n.IsDir() || string(n.Data()) != FixtureContent {
		t.Errorf("fixture not restored: err=%v dir=%v", err, n != nil && n.IsDir())
	}
	// The displaced subdir tree is back too.
	if _, err := k.FS.Stat(FixtureSubdir + "/a.txt"); err != nil {
		t.Errorf("fixture subdir not restored: %v", err)
	}
}

// TestRestoreClearsStaleLocks: byte-range locks owned by a dead test
// process must not shadow the next case's I/O.
func TestRestoreClearsStaleLocks(t *testing.T) {
	k := fixtureKernel(t)
	of, err := k.FS.Open(FixtureWritable, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := of.Lock(0, 1<<30, true); err != nil {
		t.Fatal(err)
	}
	// The locking process dies without closing its descriptor.

	SetupFixtures(k)

	fresh, err := k.FS.Open(FixtureWritable, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Write([]byte("next case")); err != nil {
		t.Errorf("stale lock survived fixture reset: %v", err)
	}
}

// TestRestorePrunesStrayEntries: relative-path test values resolve at
// the root, so MuTs create files like /bad<|>*?name there.  The reset
// must remove them or later path probes see a different disk.
func TestRestorePrunesStrayEntries(t *testing.T) {
	k := fixtureKernel(t)
	for _, p := range []string{"/bad<|>*?name", "/bl/stray.txt", "/bl/dir/stray.txt"} {
		if _, err := k.FS.Create(p, 0o6, false); err != nil {
			t.Fatal(err)
		}
	}

	SetupFixtures(k)

	for _, p := range []string{"/bad<|>*?name", "/bl/stray.txt", "/bl/dir/stray.txt"} {
		if _, err := k.FS.Stat(p); err == nil {
			t.Errorf("stray entry %s survived fixture reset", p)
		}
	}
	// The load preload population is deliberately outside the prune:
	// per-machine pressure state persists across cases.
	if err := k.FS.MkdirAll("/load", 0o7); err != nil {
		t.Fatal(err)
	}
	SetupFixtures(k)
	if _, err := k.FS.Stat("/load"); err != nil {
		t.Error("/load pruned; LoadProfile preloading must survive fixture reset")
	}
}

// TestRestoreDirectoryModes: a chmod-style MuT stripping execute bits
// from a fixture directory must not make later traversals fail.
func TestRestoreDirectoryModes(t *testing.T) {
	k := fixtureKernel(t)
	n, err := k.FS.Stat(FixtureSubdir)
	if err != nil {
		t.Fatal(err)
	}
	k.FS.SetMode(n, 0)
	k.FS.SetAttrs(n, n.Attrs()|fs.AttrReadOnly)

	SetupFixtures(k)

	n, err = k.FS.Stat(FixtureSubdir)
	if err != nil {
		t.Fatal(err)
	}
	if n.Mode() != 0o7 || n.Attrs() != fs.AttrDirectory {
		t.Errorf("fixture dir mode=%o attrs=%v after restore, want 7/%v", n.Mode(), n.Attrs(), fs.AttrDirectory)
	}
}

// TestRestoreIsIdempotent: running the reset twice in a row must leave
// the identical canonical tree (the per-case contract depends on it).
func TestRestoreIsIdempotent(t *testing.T) {
	k := fixtureKernel(t)
	snap := func() map[string]string {
		out := map[string]string{}
		var walk func(dir string)
		walk = func(dir string) {
			names, err := k.FS.List(dir)
			if err != nil {
				return
			}
			for _, name := range names {
				p := dir + name
				n, err := k.FS.Stat(p)
				if err != nil {
					continue
				}
				if n.IsDir() {
					out[p] = "dir"
					walk(p + "/")
				} else {
					out[p] = string(n.Data())
				}
			}
		}
		walk("/")
		return out
	}
	first := snap()
	SetupFixtures(k)
	second := snap()
	if len(first) != len(second) {
		t.Fatalf("tree size changed %d -> %d across resets", len(first), len(second))
	}
	for p, v := range first {
		if second[p] != v {
			t.Errorf("%s changed across resets", p)
		}
	}
}

// TestRestoreRetriesAfterChaosFault: with an injector attached the
// restore never marks the tree clean, so a re-create an injected disk
// fault stopped is retried by the next call.
func TestRestoreRetriesAfterChaosFault(t *testing.T) {
	k := fixtureKernel(t)
	plan := &chaos.Plan{Seed: 1, Rules: []chaos.Rule{{Op: chaos.OpFSDisk, RatePerMille: 1000, Max: 1}}}
	k.SetInjector(plan.NewInjector(nil))
	if err := k.FS.Remove(FixtureReadable); err != nil {
		t.Fatal(err)
	}

	SetupFixtures(k)
	if _, err := k.FS.Stat(FixtureReadable); err == nil {
		t.Fatal("precondition: the injected disk fault did not stop the re-create")
	}
	if !k.FS.Dirty() {
		t.Fatal("a restore stopped by a chaos fault left the tree marked clean")
	}

	SetupFixtures(k)
	if n, err := k.FS.Stat(FixtureReadable); err != nil || string(n.Data()) != FixtureContent {
		t.Errorf("next restore did not retry the re-create (err=%v)", err)
	}
	if !k.FS.Dirty() {
		t.Error("a restore under chaos marked the tree clean")
	}
}

// TestRestoreSkipsWhenClean: a restore on a tree no tracked mutation
// touched since the last complete pass does no work and allocates
// nothing; any tracked mutation brings the full repair back.
func TestRestoreSkipsWhenClean(t *testing.T) {
	k := fixtureKernel(t)
	if k.FS.Dirty() {
		t.Fatal("a complete restore left the tree dirty")
	}
	if a := testing.AllocsPerRun(100, func() { SetupFixtures(k) }); a != 0 {
		t.Errorf("clean restore allocates %.1f times, want 0", a)
	}
	n, err := k.FS.Stat(FixtureWritable)
	if err != nil {
		t.Fatal(err)
	}
	k.FS.SetData(n, []byte("scribbled"))
	SetupFixtures(k)
	if string(n.Data()) != FixtureContent || k.FS.Dirty() {
		t.Errorf("restore after a tracked write: data %q dirty=%v", n.Data(), k.FS.Dirty())
	}
}

// BenchmarkSetupFixtures measures the per-case restore: clean is the
// skip on an untouched tree, dirty the full repair pass after one
// tracked mutation left the tree otherwise canonical.
func BenchmarkSetupFixtures(b *testing.B) {
	b.Run("clean", func(b *testing.B) {
		k := osprofile.Get(osprofile.WinNT).NewKernel()
		SetupFixtures(k)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			SetupFixtures(k)
		}
	})
	b.Run("dirty", func(b *testing.B) {
		k := osprofile.Get(osprofile.WinNT).NewKernel()
		SetupFixtures(k)
		n, err := k.FS.Stat(FixtureDir)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k.FS.SetMode(n, 0o7)
			SetupFixtures(k)
		}
	})
}

// TestRestoreAfterTruncateGrow: a case that grows a fixture file with
// truncate leaves its stored bytes equal to the fixture content but its
// size larger; the restore must still put the size back.
func TestRestoreAfterTruncateGrow(t *testing.T) {
	k := fixtureKernel(t)
	of, err := k.FS.Open(FixtureWritable, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := of.Truncate(0x7FFFFFFF); err != nil {
		t.Fatal(err)
	}
	SetupFixtures(k)
	n, err := k.FS.Stat(FixtureWritable)
	if err != nil {
		t.Fatal(err)
	}
	if n.Size() != int64(len(FixtureContent)) || string(n.Data()) != FixtureContent {
		t.Errorf("restored fixture: size %d, data %q", n.Size(), n.Data())
	}
	if _, err := of.Seek(int64(len(FixtureContent))-1, fs.SeekSet); err != nil {
		t.Fatal(err)
	}
	if got, err := of.Read(2); err != nil || string(got) != "\n" {
		t.Errorf("read at the restored end: %v %q", err, got)
	}
}
