package crashsim

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ballista/internal/osprofile"
)

func wl(ops ...Op) Workload { return Workload{Seed: 7, Ops: ops} }

func verdictFor(t *testing.T, w Workload, o osprofile.OS) *Verdict {
	t.Helper()
	f := Evaluate(w, nil, []osprofile.OS{o})
	return f.Verdicts[o.WireName()]
}

func TestEnumerateIsExhaustiveAndDeterministic(t *testing.T) {
	// Two names: create/write/fsync/remove over each (8) plus the four
	// ordered two-name ops (rename×2, link×2) = 12 slots; seq-1 + seq-2
	// = 12 + 144.
	ws := Enumerate(nil, 2, 7, 0)
	if len(ws) != 156 {
		t.Fatalf("enumerated %d workloads, want 156", len(ws))
	}
	again := Enumerate(nil, 2, 7, 0)
	if !reflect.DeepEqual(ws, again) {
		t.Error("enumeration is not deterministic")
	}
	seen := make(map[string]bool)
	for _, w := range ws {
		if k := w.Key(); seen[k] {
			t.Fatalf("duplicate workload %s", k)
		} else {
			seen[k] = true
		}
	}
	if got := Enumerate(nil, 2, 7, 20); len(got) != 20 {
		t.Errorf("budget 20 returned %d workloads", len(got))
	}
	// A budget cut keeps the shortest chains first.
	for _, w := range Enumerate(nil, 2, 7, 12) {
		if len(w.Ops) != 1 {
			t.Fatalf("budget 12 should only contain seq-1 chains, got %s", w.Key())
		}
	}
}

func TestFullyPersistedStateAlwaysLegal(t *testing.T) {
	// "The crash changed nothing" must be a member of every legal-state
	// set, under every policy.
	for _, o := range osprofile.All() {
		pol := PolicyFor(o)
		for _, w := range Enumerate(nil, 2, 7, 40) {
			ex := run(w, nil, pol)
			base := baseState(ex)
			for cp := 1; cp <= len(w.Ops); cp++ {
				states := enumerateStates(ex, cp, pol, base)
				if len(states) < 1 {
					t.Fatalf("%s at %s cp %d: empty legal-state set", o.WireName(), w.Key(), cp)
				}
			}
		}
	}
}

func TestAtomicRenameAdmitsNoTornStates(t *testing.T) {
	// ext2/NTFS/CE renames are atomic: no reachable state may show the
	// file under both names or neither.
	w := wl(Op{Kind: OpRename, File: "f0", To: "f1"})
	for _, o := range []osprofile.OS{osprofile.Linux, osprofile.WinNT, osprofile.WinCE} {
		v := verdictFor(t, w, o)
		if v.Results[0] != "ok" {
			t.Fatalf("%s: rename result %q", o.WireName(), v.Results[0])
		}
		if len(v.Violations[0]) != 0 {
			t.Errorf("%s: atomic rename produced violations %v", o.WireName(), v.Violations[0])
		}
	}
}

func TestFATRenameTearsIntoDupAndLoss(t *testing.T) {
	// FAT's delete-then-insert rename can crash with both names present
	// or neither, and the lost-chain orphan in between.
	v := verdictFor(t, wl(Op{Kind: OpRename, File: "f0", To: "f1"}), osprofile.Win98)
	want := []string{InvOrphanInode, InvRenameDup, InvRenameLoss}
	if !reflect.DeepEqual(v.Violations[0], want) {
		t.Errorf("FAT rename violations %v, want %v", v.Violations[0], want)
	}
}

func TestFsyncEntriesDivergence(t *testing.T) {
	// create+fsync: ext2-era fsync flushes data only, so the entry can
	// vanish; NTFS's journal and CE's transactional store keep it.
	w := wl(Op{Kind: OpCreate, File: "f1"}, Op{Kind: OpFsync, File: "f1"})
	for o, wantViol := range map[osprofile.OS]bool{
		osprofile.Linux:   true,
		osprofile.Win95:   true,
		osprofile.WinNT:   false,
		osprofile.Win2000: false,
		osprofile.WinCE:   false,
	} {
		v := verdictFor(t, w, o)
		has := false
		for _, viol := range v.Violations[1] {
			if viol == InvFsyncUnreachable {
				has = true
			}
		}
		if has != wantViol {
			t.Errorf("%s: fsync-unreachable=%v, want %v (violations %v)",
				o.WireName(), has, wantViol, v.Violations[1])
		}
	}
}

func TestFsyncForcesWrites(t *testing.T) {
	// write+fsync: the barrier commits the bytes, so no state may show
	// a torn or missing tail — and without the barrier the torn tail is
	// a legal state, not a violation.
	synced := wl(Op{Kind: OpWrite, File: "f0"}, Op{Kind: OpFsync, File: "f0"})
	v := verdictFor(t, synced, osprofile.Linux)
	if len(v.Violations[1]) != 0 {
		t.Errorf("synced write violations %v, want none", v.Violations[1])
	}
	if v.States[1] != 1 {
		t.Errorf("post-fsync crash point admits %d states, want exactly 1", v.States[1])
	}

	bare := wl(Op{Kind: OpWrite, File: "f0"})
	vb := verdictFor(t, bare, osprofile.Linux)
	if vb.States[0] != 3 { // unapplied, torn, full
		t.Errorf("bare write admits %d states, want 3", vb.States[0])
	}
	if len(vb.Violations[0]) != 0 {
		t.Errorf("bare torn write is legal, got violations %v", vb.Violations[0])
	}
	// CE's object store commits records whole: no torn middle state.
	vc := verdictFor(t, bare, osprofile.WinCE)
	if vc.States[0] != 2 {
		t.Errorf("CE bare write admits %d states, want 2 (no torn)", vc.States[0])
	}
}

func TestLinkUnsupportedDiverges(t *testing.T) {
	f := Evaluate(wl(Op{Kind: OpLink, File: "f0", To: "f1"}), nil, osprofile.All())
	if !f.Divergent {
		t.Fatal("link across profiles should diverge")
	}
	if got := f.Verdicts["win98"].Results[0]; got != "unsupported" {
		t.Errorf("FAT link result %q, want unsupported", got)
	}
	if got := f.Verdicts["linux"].Results[0]; got != "ok" {
		t.Errorf("linux link result %q, want ok", got)
	}
	if got := f.Verdicts["winnt"].Results[0]; got != "ok" {
		t.Errorf("NTFS link result %q, want ok", got)
	}
}

func TestMinimizePreservesEssence(t *testing.T) {
	// fsync(f0);rename(f0,f1) on FAT loses the fsync'd file; dropping
	// the fsync changes the violation set, so minimization keeps both.
	w := wl(Op{Kind: OpFsync, File: "f0"}, Op{Kind: OpRename, File: "f0", To: "f1"})
	oses := osprofile.All()
	f := Evaluate(w, nil, oses)
	if !f.Violating {
		t.Fatal("expected violations")
	}
	m := Minimize(f, nil, oses)
	if len(m.Workload.Ops) != 2 {
		t.Errorf("minimized to %s; the 2-op chain is already minimal", m.Workload.Key())
	}

	// A chain whose second op is irrelevant minimizes to one op.
	w2 := wl(Op{Kind: OpRemove, File: "f0"}, Op{Kind: OpFsync, File: "f1"})
	f2 := Evaluate(w2, nil, oses)
	m2 := Minimize(f2, nil, oses)
	if len(m2.Workload.Ops) != 1 || m2.Workload.Ops[0].Kind != OpRemove {
		t.Errorf("minimized %s to %s, want remove(f0)", w2.Key(), m2.Workload.Key())
	}
}

func TestReproducerRoundTripAndVerify(t *testing.T) {
	oses := osprofile.All()
	f := Evaluate(wl(Op{Kind: OpRename, File: "f0", To: "f1"}), nil, oses)
	rep := NewReproducer(f, oses)
	rep.Name = "fat-rename-tear"
	data, err := rep.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseReproducer(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Verify(); err != nil {
		t.Errorf("round-tripped reproducer fails verify: %v", err)
	}
	// A tampered verdict must fail verification.
	tampered := strings.Replace(string(data), `"rename-dup"`, `"rename-xyz"`, 1)
	bad, err := ParseReproducer([]byte(tampered))
	if err != nil {
		t.Fatal(err)
	}
	if err := bad.Verify(); err == nil {
		t.Error("tampered reproducer still verifies")
	}
}

func TestSweepReportShape(t *testing.T) {
	rep, err := Sweep(context.Background(), Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workloads != 156 || rep.CrashPoints != 300 {
		t.Errorf("sweep covered %d workloads / %d crash points, want 156/300",
			rep.Workloads, rep.CrashPoints)
	}
	if rep.Divergent == 0 || rep.Violating == 0 || len(rep.Findings) == 0 {
		t.Errorf("sweep found divergent=%d violating=%d findings=%d, want all > 0",
			rep.Divergent, rep.Violating, len(rep.Findings))
	}
	for _, f := range rep.Findings {
		if !f.Interesting() {
			t.Errorf("finding %s is neither divergent nor violating", f.Workload.Key())
		}
	}
}

// TestVerdictInternerSharesEqualVerdicts: interning leaves every verdict
// equal to what Evaluate returned, and equal verdicts — across profiles
// and across workloads — become one shared value.
func TestVerdictInternerSharesEqualVerdicts(t *testing.T) {
	oses := osprofile.All()
	var in verdictInterner
	var findings, fresh []*Finding
	for _, w := range Enumerate(nil, 2, 7, 40) {
		findings = append(findings, Evaluate(w, nil, oses))
		fresh = append(fresh, Evaluate(w, nil, oses))
	}
	for _, f := range findings {
		in.intern(f)
	}
	byContent := make(map[string]*Verdict)
	shared := 0
	for i, f := range findings {
		if !reflect.DeepEqual(f.Verdicts, fresh[i].Verdicts) {
			t.Fatalf("interning changed the verdicts of %s", f.Workload.Key())
		}
		for _, v := range f.Verdicts {
			key := fmt.Sprintf("%q", *v)
			if first, ok := byContent[key]; !ok {
				byContent[key] = v
			} else if first != v {
				t.Fatalf("two equal verdicts of %s are distinct values", f.Workload.Key())
			} else {
				shared++
			}
		}
	}
	if shared == 0 {
		t.Fatal("no verdict repeated; the test proves nothing")
	}
}
