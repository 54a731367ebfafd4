package crashsim

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"ballista/internal/osprofile"
	"ballista/internal/sim/fs"
)

// Key renders a readable canonical fingerprint of the state: each entry
// as path=id in path order, then each file object as id:nlink:hex-data
// in id order.  The oracle deduplicates through stateKeys' binary
// encoding; this form keeps expected states legible in tests.
func (st *DiskState) Key() string {
	paths := make([]string, 0, len(st.Entries))
	for p := range st.Entries {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	ids := make([]int, 0, len(st.Files))
	for id := range st.Files {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var b strings.Builder
	for _, p := range paths {
		fmt.Fprintf(&b, "%s=%d;", p, st.Entries[p])
	}
	b.WriteString("|")
	for _, id := range ids {
		f := st.Files[id]
		fmt.Fprintf(&b, "%d:%d:%x;", id, f.Nlink, f.Data)
	}
	return b.String()
}

// TestStateKeysPartitionLikeKey: the binary dedupe key and the readable
// Key split states into the same classes.  Within every legal-state set
// of every MaxOps-3 workload, crash point and policy, the states the
// binary key keeps apart have distinct Keys; across all those sets,
// equal binary keys and equal Keys coincide, which also exercises the
// states the dedupe merged.
func TestStateKeysPartitionLikeKey(t *testing.T) {
	var keys stateKeys
	toKey := make(map[string]string)   // binary key → Key
	fromKey := make(map[string]string) // Key → binary key
	sets, states := 0, 0
	for _, pol := range distinctPolicies(osprofile.All()) {
		for _, w := range Enumerate(nil, 3, 7, 0) {
			ex := run(w, nil, pol)
			base := baseState(ex)
			for cp := 1; cp <= len(w.Ops); cp++ {
				set := enumerateStates(ex, cp, pol, base)
				inSet := make(map[string]bool, len(set))
				for _, st := range set {
					bin, readable := string(keys.key(st)), st.Key()
					if inSet[readable] {
						t.Fatalf("%+v %s cp %d: two kept states share Key %q", pol, w.Key(), cp, readable)
					}
					inSet[readable] = true
					if k, ok := toKey[bin]; ok && k != readable {
						t.Fatalf("%+v %s cp %d: one binary key for Keys %q and %q", pol, w.Key(), cp, k, readable)
					}
					if b, ok := fromKey[readable]; ok && b != bin {
						t.Fatalf("%+v %s cp %d: Key %q has two binary keys", pol, w.Key(), cp, readable)
					}
					toKey[bin], fromKey[readable] = readable, bin
					states++
				}
				sets++
			}
		}
	}
	if len(toKey) == states {
		t.Fatal("no state repeated across sets; the cross-set check proves nothing")
	}
	t.Logf("%d states in %d sets, %d distinct", states, sets, len(toKey))
}

// TestCrashStatesAfterTruncateGrow pins the legal post-crash states of a
// file grown by truncate and then written inside the hole, under the
// Linux policy, which tears writes.  The persistence records carry the
// truncate's logical size, so the live file keeping only its written
// bytes must not change a single state.
func TestCrashStatesAfterTruncateGrow(t *testing.T) {
	fsys := fs.New(nil)
	log := fs.NewPersistLog()
	fsys.SetPersistLog(log)
	n, err := fsys.Create("/f0", 0o6, true)
	if err != nil {
		t.Fatal(err)
	}
	of := fsys.OpenNode(n, true, true)
	if _, err := of.Write([]byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	ex := &execution{log: log, baseLen: log.Len()}
	if err := of.Truncate(16); err != nil {
		t.Fatal(err)
	}
	if _, err := of.Seek(12, fs.SeekSet); err != nil {
		t.Fatal(err)
	}
	if _, err := of.Write([]byte("WXYZ")); err != nil {
		t.Fatal(err)
	}
	ex.marks = append(ex.marks, log.Len())

	var got []string
	for _, st := range enumerateStates(ex, 1, PolicyFor(osprofile.Linux), baseState(ex)) {
		got = append(got, st.Key())
	}
	want := []string{
		"/f0=0;|0:1:616263646566;",                     // neither record
		"/f0=0;|0:1:61626364656600000000000000000000;", // the grow alone
		"/f0=0;|0:1:61626364656600000000000057580000;", // the grow, the write torn
		"/f0=0;|0:1:6162636465660000000000005758595a;", // both
	}
	if len(got) != len(want) {
		t.Fatalf("%d states, want %d:\n%q", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("state %d = %q, want %q", i, got[i], want[i])
		}
	}
}
