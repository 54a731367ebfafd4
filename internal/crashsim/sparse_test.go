package crashsim

import (
	"testing"

	"ballista/internal/osprofile"
	"ballista/internal/sim/fs"
)

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
	for _, st := range enumerateStates(ex, 1, PolicyFor(osprofile.Linux)) {
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
