package suite_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"ballista"
	"ballista/internal/core"
	"ballista/internal/osprofile"
	"ballista/internal/sim/fs"
	"ballista/internal/sim/kern"
	"ballista/internal/suite"
)

// treeDigest renders every state the fixture restore repairs: the tree
// shape and, per node, data, mode, attributes, link count and lock
// count.  Timestamps are left out; the restore does not repair them.
func treeDigest(f *fs.FileSystem) string {
	var b strings.Builder
	var walk func(path string)
	walk = func(path string) {
		n, err := f.Stat(path)
		if err != nil {
			fmt.Fprintf(&b, "%s err=%v\n", path, err)
			return
		}
		fmt.Fprintf(&b, "%s dir=%v mode=%o attrs=%#x nlink=%d locks=%d data=%q\n",
			path, n.IsDir(), n.Mode(), n.Attrs(), n.Nlink(), n.LockCount(), n.Data())
		if !n.IsDir() {
			return
		}
		names, _ := f.List(path)
		if path != "/" {
			path += "/"
		}
		for _, name := range names {
			walk(path + name)
		}
	}
	walk("/")
	return b.String()
}

// netDigest renders the observable network state.
func netDigest(k *kern.Kernel) string {
	return fmt.Sprintf("live=%d opened=%d schedule=%q", k.Net.Live(), k.Net.Opened(), k.Net.Schedule())
}

// TestFixtureSkipIsSound is the oracle for the dirty-tracked restore.
// It runs a reduced campaign on every profile through a fixture that,
// whenever SetupFixtures takes its fast path, forces the full repair as
// well and requires it to change nothing: not the tree, not the clock,
// not the network.
func TestFixtureSkipIsSound(t *testing.T) {
	const cap = 12
	for _, o := range osprofile.All() {
		var skips, repairs int
		fixture := func(k *kern.Kernel) {
			if k.FS.Dirty() {
				repairs++
				suite.SetupFixtures(k)
				return
			}
			suite.SetupFixtures(k)
			skips++
			tree, ticks, netState := treeDigest(k.FS), k.Ticks(), netDigest(k)
			suite.RepairFixtures(k)
			if got := treeDigest(k.FS); got != tree {
				t.Fatalf("%s: skipped restore left a tree the full repair changes:\nskipped:\n%s\nrepaired:\n%s", o, tree, got)
			}
			if k.Ticks() != ticks {
				t.Fatalf("%s: full repair after a skip advanced the clock %d -> %d", o, ticks, k.Ticks())
			}
			if got := netDigest(k); got != netState {
				t.Fatalf("%s: full repair after a skip changed the network: %s -> %s", o, netState, got)
			}
			k.FS.MarkClean()
		}
		cfg := core.Config{OS: o, Cap: cap, StopMuTOnCrash: true}
		r := core.NewRunner(cfg, suite.NewRegistry(), ballista.Dispatch, fixture)
		if _, err := r.RunAll(context.Background()); err != nil {
			t.Fatalf("%s: %v", o, err)
		}
		if skips == 0 || repairs < 2 {
			t.Errorf("%s: %d skips, %d repairs; the oracle needs both paths exercised", o, skips, repairs)
		}
		t.Logf("%s: %d skips, %d repairs", o, skips, repairs)
	}
}
