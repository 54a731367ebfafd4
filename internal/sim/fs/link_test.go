package fs

import (
	"errors"
	"testing"
)

// TestRemoveUnlinksGivenPath: with hard links, Remove must unlink the
// directory entry at the path it was given — not the node's canonical
// parent/name, which belongs to a different entry.
func TestRemoveUnlinksGivenPath(t *testing.T) {
	f := newFS()
	if err := f.MkdirAll("/a", 0o7); err != nil {
		t.Fatal(err)
	}
	orig, err := f.Create("/orig.txt", 0o6, false)
	if err != nil {
		t.Fatal(err)
	}
	f.SetData(orig, []byte("x"))
	if err := f.Link("/orig.txt", "/a/alias.txt"); err != nil {
		t.Fatal(err)
	}
	if orig.Nlink() != 2 {
		t.Fatalf("nlink = %d after Link, want 2", orig.Nlink())
	}

	if err := f.Remove("/a/alias.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Stat("/orig.txt"); err != nil {
		t.Fatalf("removing the alias deleted the original: %v", err)
	}
	if _, err := f.Stat("/a/alias.txt"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("alias survived its own Remove: %v", err)
	}
	if orig.Nlink() != 1 {
		t.Errorf("nlink = %d after alias removal, want 1", orig.Nlink())
	}
}

// TestRenameMovesGivenPath: Rename of an alias must relocate the alias
// entry, leaving the original name in place.
func TestRenameMovesGivenPath(t *testing.T) {
	f := newFS()
	if _, err := f.Create("/orig.txt", 0o6, false); err != nil {
		t.Fatal(err)
	}
	if err := f.Link("/orig.txt", "/alias.txt"); err != nil {
		t.Fatal(err)
	}
	if err := f.Rename("/alias.txt", "/moved.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Stat("/orig.txt"); err != nil {
		t.Fatalf("renaming the alias disturbed the original: %v", err)
	}
	if _, err := f.Stat("/moved.txt"); err != nil {
		t.Fatalf("rename target missing: %v", err)
	}
	if _, err := f.Stat("/alias.txt"); !errors.Is(err, ErrNotFound) {
		t.Fatal("rename left the old alias name behind")
	}
}

// TestRenameOntoSameEntry: renaming a name onto an entry backed by the
// same node (itself, or a hard link to it) is a successful no-op.
func TestRenameOntoSameEntry(t *testing.T) {
	f := newFS()
	if _, err := f.Create("/orig.txt", 0o6, false); err != nil {
		t.Fatal(err)
	}
	if err := f.Rename("/orig.txt", "/orig.txt"); err != nil {
		t.Fatal(err)
	}
	if err := f.Link("/orig.txt", "/alias.txt"); err != nil {
		t.Fatal(err)
	}
	if err := f.Rename("/alias.txt", "/orig.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Stat("/orig.txt"); err != nil {
		t.Fatal("rename-onto-self lost the file")
	}
	if _, err := f.Stat("/alias.txt"); err != nil {
		t.Fatal("no-op rename removed the source alias")
	}
}

func TestClearLocks(t *testing.T) {
	f := newFS()
	if _, err := f.Create("/f.txt", 0o6, false); err != nil {
		t.Fatal(err)
	}
	of, err := f.Open("/f.txt", true, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := of.Lock(0, 100, true); err != nil {
		t.Fatal(err)
	}
	other, err := f.Open("/f.txt", true, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Write([]byte("blocked")); !errors.Is(err, ErrLocked) {
		t.Fatalf("write through exclusive lock: %v", err)
	}
	n, _ := f.Stat("/f.txt")
	f.ClearLocks(n)
	if _, err := other.Write([]byte("ok")); err != nil {
		t.Fatalf("write after ClearLocks: %v", err)
	}
}
