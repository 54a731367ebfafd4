package fs

import (
	"bytes"
	"reflect"
	"testing"

	"ballista/internal/chaos"
)

// attachLog wires a fresh persistence log to an fs and returns it.
func attachLog(f *FileSystem) *PersistLog {
	l := NewPersistLog()
	f.SetPersistLog(l)
	return l
}

func kinds(l *PersistLog) []PersistKind {
	out := make([]PersistKind, 0, l.Len())
	for _, r := range l.Records() {
		out = append(out, r.Kind)
	}
	return out
}

// TestPersistLogRecordsMutations is the table-driven shape check: each
// mutation sequence must log exactly its durable effects, in order.
func TestPersistLogRecordsMutations(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, f *FileSystem)
		want []PersistKind
	}{
		{
			name: "create and write",
			run: func(t *testing.T, f *FileSystem) {
				if _, err := f.Create("/a", 0o6, false); err != nil {
					t.Fatal(err)
				}
				o, err := f.Open("/a", false, true)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := o.Write([]byte("hello")); err != nil {
					t.Fatal(err)
				}
				o.Close()
			},
			want: []PersistKind{PersistCreate, PersistWrite},
		},
		{
			name: "truncating create of an existing file logs data only",
			run: func(t *testing.T, f *FileSystem) {
				if _, err := f.Create("/a", 0o6, false); err != nil {
					t.Fatal(err)
				}
				if _, err := f.Create("/a", 0o6, true); err != nil {
					t.Fatal(err)
				}
			},
			want: []PersistKind{PersistCreate, PersistTruncate},
		},
		{
			name: "mkdir, rename, link, remove",
			run: func(t *testing.T, f *FileSystem) {
				if err := f.Mkdir("/d", 0o7); err != nil {
					t.Fatal(err)
				}
				if _, err := f.Create("/a", 0o6, false); err != nil {
					t.Fatal(err)
				}
				if err := f.Rename("/a", "/d/b"); err != nil {
					t.Fatal(err)
				}
				if err := f.Link("/d/b", "/c"); err != nil {
					t.Fatal(err)
				}
				if err := f.Remove("/c"); err != nil {
					t.Fatal(err)
				}
			},
			want: []PersistKind{PersistMkdir, PersistCreate, PersistRename, PersistLink, PersistRemove},
		},
		{
			name: "fsync by path and by handle",
			run: func(t *testing.T, f *FileSystem) {
				if _, err := f.Create("/a", 0o6, false); err != nil {
					t.Fatal(err)
				}
				if err := f.Fsync("/a"); err != nil {
					t.Fatal(err)
				}
				o, err := f.Open("/a", false, true)
				if err != nil {
					t.Fatal(err)
				}
				if err := o.Sync(); err != nil {
					t.Fatal(err)
				}
				o.Close()
			},
			want: []PersistKind{PersistCreate, PersistFsync, PersistFsync},
		},
		{
			name: "rename onto itself is a no-op and logs nothing",
			run: func(t *testing.T, f *FileSystem) {
				if _, err := f.Create("/a", 0o6, false); err != nil {
					t.Fatal(err)
				}
				if err := f.Rename("/a", "/a"); err != nil {
					t.Fatal(err)
				}
			},
			want: []PersistKind{PersistCreate},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := New(nil)
			l := attachLog(f)
			tc.run(t, f)
			if got := kinds(l); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("log kinds %v, want %v", got, tc.want)
			}
		})
	}
}

// TestPersistTornWriteThenFsync: a chaos-torn write must log the bytes
// that actually landed (the TornSplit prefix), not the bytes requested —
// and the following fsync barrier commits exactly that prefix.
func TestPersistTornWriteThenFsync(t *testing.T) {
	plan := &chaos.Plan{Seed: 1, Rules: []chaos.Rule{
		{Op: chaos.OpFSWrite, Kind: chaos.KindShort, RatePerMille: 1000},
	}}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	f := New(nil)
	l := attachLog(f)
	f.SetInjector(plan.NewInjector(nil))

	if _, err := f.Create("/a", 0o6, false); err != nil {
		t.Fatal(err)
	}
	o, err := f.Open("/a", false, true)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("12345678")
	n, err := o.Write(payload)
	if err != nil {
		t.Fatal(err)
	}
	// POSIX short-write semantics: the torn prefix lands and its count
	// is reported without an error.
	if n != chaos.TornSplit(len(payload)) {
		t.Fatalf("torn write reported %d bytes, want the split %d", n, chaos.TornSplit(len(payload)))
	}
	if err := o.Sync(); err != nil {
		t.Fatal(err)
	}
	o.Close()

	landed := payload[:chaos.TornSplit(len(payload))]
	if !bytes.Equal(o.node.Data(), landed) {
		t.Errorf("node data %q, want the torn prefix %q", o.node.Data(), landed)
	}
	recs := l.Records()
	if got := kinds(l); !reflect.DeepEqual(got, []PersistKind{PersistCreate, PersistWrite, PersistFsync}) {
		t.Fatalf("log kinds %v", got)
	}
	w := recs[1]
	if w.Off != 0 || !bytes.Equal(w.Data, landed) {
		t.Errorf("write record off=%d data=%q, want off=0 data=%q", w.Off, w.Data, landed)
	}
	if recs[2].Node != w.Node {
		t.Errorf("fsync targets node %d, write landed on %d", recs[2].Node, w.Node)
	}
}

// TestPersistRenameOverHardLinkedTarget: replacing a hard-linked file by
// rename unlinks one of its names, so the node must survive under its
// other name with the link count decremented — and the rename record
// must identify the replaced node so crash-state enumeration can tear
// the replacement apart.
func TestPersistRenameOverHardLinkedTarget(t *testing.T) {
	f := New(nil)
	l := attachLog(f)
	if _, err := f.Create("/a", 0o6, false); err != nil {
		t.Fatal(err)
	}
	b, err := f.Create("/b", 0o6, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Link("/b", "/c"); err != nil {
		t.Fatal(err)
	}
	if b.Nlink() != 2 {
		t.Fatalf("linked node nlink=%d, want 2", b.Nlink())
	}
	if err := f.Rename("/a", "/b"); err != nil {
		t.Fatal(err)
	}
	if b.Nlink() != 1 {
		t.Errorf("replaced node nlink=%d, want 1 (still reachable via /c)", b.Nlink())
	}
	if n, err := f.Stat("/c"); err != nil || n != b {
		t.Errorf("/c no longer resolves to the replaced node (%v)", err)
	}
	if n, err := f.Stat("/b"); err != nil || n == b {
		t.Errorf("/b still resolves to the replaced node (%v)", err)
	}
	recs := l.Records()
	ren := recs[len(recs)-1]
	if ren.Kind != PersistRename {
		t.Fatalf("last record is %s, want rename", ren.Kind)
	}
	if ren.Prev != l.ID(b) {
		t.Errorf("rename record Prev=%d, want the replaced node id %d", ren.Prev, l.ID(b))
	}
	if ren.Path != "/a" || ren.Path2 != "/b" {
		t.Errorf("rename record paths %q -> %q", ren.Path, ren.Path2)
	}
}

// TestPersistDeleteOnCloseOfReplacedEntry: a delete-on-close handle must
// remove the entry only while it still names this node.  After a rename
// slides another file under the same name, closing the stale handle must
// not unlink the successor (and must log nothing).
func TestPersistDeleteOnCloseOfReplacedEntry(t *testing.T) {
	t.Run("entry still current: removed and logged", func(t *testing.T) {
		f := New(nil)
		l := attachLog(f)
		n, err := f.Create("/a", 0o6, false)
		if err != nil {
			t.Fatal(err)
		}
		o := f.OpenNode(n, true, true)
		o.DeleteOnC = true
		if err := o.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Stat("/a"); err == nil {
			t.Error("delete-on-close left /a in place")
		}
		if n.Nlink() != 0 {
			t.Errorf("nlink=%d after delete-on-close, want 0", n.Nlink())
		}
		if got := kinds(l); !reflect.DeepEqual(got, []PersistKind{PersistCreate, PersistRemove}) {
			t.Errorf("log kinds %v", got)
		}
	})
	t.Run("entry replaced by rename: successor survives", func(t *testing.T) {
		f := New(nil)
		l := attachLog(f)
		n, err := f.Create("/a", 0o6, false)
		if err != nil {
			t.Fatal(err)
		}
		o := f.OpenNode(n, true, true)
		o.DeleteOnC = true
		if _, err := f.Create("/b", 0o6, false); err != nil {
			t.Fatal(err)
		}
		if err := f.Rename("/b", "/a"); err != nil {
			t.Fatal(err)
		}
		before := l.Len()
		if err := o.Close(); err != nil {
			t.Fatal(err)
		}
		if l.Len() != before {
			t.Errorf("closing the stale handle logged %d extra records", l.Len()-before)
		}
		succ, err := f.Stat("/a")
		if err != nil {
			t.Fatalf("successor entry gone: %v", err)
		}
		if succ == n {
			t.Error("/a still resolves to the delete-on-close node")
		}
		if succ.Nlink() != 1 {
			t.Errorf("successor nlink=%d, want 1", succ.Nlink())
		}
	})
}

// TestPersistLogIsPureObservation: with no log attached every hook is a
// nil check, and attaching one must not change what the live tree does.
func TestPersistLogIsPureObservation(t *testing.T) {
	script := func(f *FileSystem) {
		f.MkdirAll("/d", 0o7)
		f.Create("/d/a", 0o6, false)
		o, _ := f.Open("/d/a", false, true)
		o.Write([]byte("payload"))
		o.Truncate(3)
		o.Sync()
		o.Close()
		f.Link("/d/a", "/d/b")
		f.Rename("/d/a", "/d/c")
		f.Fsync("/d/c")
		f.Remove("/d/b")
	}
	plain, logged := New(nil), New(nil)
	l := attachLog(logged)
	script(plain)
	script(logged)
	if plain.String() != logged.String() {
		t.Errorf("attaching a log changed the live tree:\n%s\nvs\n%s", plain.String(), logged.String())
	}
	if l.Len() == 0 {
		t.Error("log observed nothing")
	}
}
