package crashsim

import (
	"bytes"
	"reflect"
	"slices"
	"sort"
	"testing"

	"ballista/internal/osprofile"
	"ballista/internal/sim/fs"
)

// distinctPolicies returns the durability policies of oses, each once,
// in first-seen order.
func distinctPolicies(oses []osprofile.OS) []Policy {
	var out []Policy
	for _, o := range oses {
		if pol := PolicyFor(o); !slices.Contains(out, pol) {
			out = append(out, pol)
		}
	}
	return out
}

// evaluatePerOS is the reference oracle: it replays, enumerates and
// checks w once per profile, judging every legal state with
// checkStatePerState, and compares the verdicts with reflect.DeepEqual.
// Evaluate must return a finding equal to this one.
func evaluatePerOS(w Workload, names []string, oses []osprofile.OS) *Finding {
	if len(names) == 0 {
		names = DefaultNames()
	}
	if len(oses) == 0 {
		oses = osprofile.All()
	}
	f := &Finding{Workload: w, Verdicts: make(map[string]*Verdict, len(oses))}
	for _, o := range oses {
		pol := PolicyFor(o)
		ex := run(w, names, pol)
		v := &Verdict{Results: ex.results}
		base := baseState(ex)
		for cp := 1; cp <= len(w.Ops); cp++ {
			states := enumerateStates(ex, cp, pol, base)
			pending := ex.pending(cp)
			union := make(map[string]bool)
			for _, st := range states {
				for _, viol := range checkStatePerState(st, base, pending, pol) {
					union[viol] = true
				}
			}
			vs := make([]string, 0, len(union))
			for name := range union {
				vs = append(vs, name)
			}
			sort.Strings(vs)
			v.States = append(v.States, len(states))
			v.Violations = append(v.Violations, vs)
		}
		f.Verdicts[o.WireName()] = v
		if v.violating() {
			f.Violating = true
		}
	}
	first := f.Verdicts[oses[0].WireName()]
	for _, o := range oses[1:] {
		v := f.Verdicts[o.WireName()]
		if !reflect.DeepEqual(v.Results, first.Results) ||
			!reflect.DeepEqual(v.Violations, first.Violations) {
			f.Divergent = true
			break
		}
	}
	f.Signature = signature(w, f.Verdicts, oses)
	return f
}

// checkStatePerState is the reference invariant check: every obligation
// is worked out afresh from base and pending for each state.
func checkStatePerState(st *DiskState, base *DiskState, pending []fs.PersistRecord, pol Policy) []string {
	found := make(map[string]bool)

	for i, r := range pending {
		switch r.Kind {
		case fs.PersistFsync:
			removedLater := false
			dataLater := false
			for _, p := range pending[i+1:] {
				if p.Kind == fs.PersistRemove && p.Node == r.Node {
					removedLater = true
				}
				if isData(p.Kind) && p.Node == r.Node {
					dataLater = true
				}
			}
			if !removedLater && st.entryCount(r.Node) == 0 {
				found[InvFsyncUnreachable] = true
			}
			if !dataLater {
				want := syncedData(base, pending[:i], r.Node)
				f := st.Files[r.Node]
				if f == nil && len(want) > 0 || f != nil && !bytes.Equal(f.Data, want) {
					found[InvFsyncData] = true
				}
			}
		case fs.PersistRename:
			reMade := false
			for _, p := range pending[i+1:] {
				if p.Node != r.Node {
					continue
				}
				if (p.Kind == fs.PersistCreate && p.Path == r.Path) ||
					(p.Kind == fs.PersistLink || p.Kind == fs.PersistRename) && p.Path2 == r.Path {
					reMade = true
				}
			}
			if id, ok := st.Entries[r.Path]; !reMade && ok && id == r.Node {
				if id2, ok2 := st.Entries[r.Path2]; ok2 && id2 == r.Node {
					found[InvRenameDup] = true
				}
			}
			removed := false
			for _, p := range pending {
				if p.Kind == fs.PersistRemove && p.Node == r.Node {
					removed = true
				}
			}
			if !removed && base.entryCount(r.Node) > 0 && st.entryCount(r.Node) == 0 {
				found[InvRenameLoss] = true
			}
		}
	}

	targets := make([]int, 0, len(st.Entries))
	for _, id := range st.Entries {
		targets = append(targets, id)
	}
	sort.Ints(targets)
	for _, id := range targets {
		f := st.Files[id]
		if f == nil || (pol.Links && f.Nlink <= 0) {
			found[InvOrphanEntry] = true
		}
	}
	for id, f := range st.Files {
		cnt := st.entryCount(id)
		if f.Nlink > 0 && cnt == 0 {
			found[InvOrphanInode] = true
		}
		if pol.Links && cnt > 0 && cnt != f.Nlink {
			found[InvLinkCount] = true
		}
	}

	out := make([]string, 0, len(found))
	for v := range found {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// TestEvaluateMatchesPerOSLoop: evaluating once per policy and sharing
// the verdict yields the finding the per-profile loop does — verdicts,
// divergence, violation and signature — for every MaxOps-3 workload, on
// all seven profiles, a reordered subset and a single profile.
func TestEvaluateMatchesPerOSLoop(t *testing.T) {
	sets := map[string][]osprofile.OS{
		"all":               osprofile.All(),
		"win98,linux,win95": {osprofile.Win98, osprofile.Linux, osprofile.Win95},
		"wince":             {osprofile.WinCE},
	}
	for _, seed := range []uint64{1, 7} {
		workloads := Enumerate(nil, 3, seed, 0)
		for name, oses := range sets {
			interesting := 0
			for _, w := range workloads {
				got, want := Evaluate(w, nil, oses), evaluatePerOS(w, nil, oses)
				if got.Interesting() {
					interesting++
				}
				if reflect.DeepEqual(got, want) {
					continue
				}
				for _, o := range oses {
					if g, p := got.Verdicts[o.WireName()], want.Verdicts[o.WireName()]; !reflect.DeepEqual(g, p) {
						t.Fatalf("seed %d, %s, %s on %s: Evaluate's verdict %+v, the per-profile loop's %+v",
							seed, name, w.Key(), o.WireName(), *g, *p)
					}
				}
				t.Fatalf("seed %d, %s, %s: Evaluate found divergent=%v violating=%v %q, the per-profile loop %v %v %q",
					seed, name, w.Key(), got.Divergent, got.Violating, got.Signature,
					want.Divergent, want.Violating, want.Signature)
			}
			if name != "wince" && interesting == 0 {
				t.Fatalf("seed %d, %s: no finding was interesting; the comparison proves little", seed, name)
			}
		}
	}
}

// TestEvaluateRunsOncePerPolicy is a count gate on Evaluate's cost: over
// the seven profiles it replays a workload once per distinct durability
// policy, four times, not once per profile.
func TestEvaluateRunsOncePerPolicy(t *testing.T) {
	oses := osprofile.All()
	if n := len(distinctPolicies(oses)); n != 4 {
		t.Fatalf("the seven profiles have %d distinct policies, want 4", n)
	}
	w := wl(Op{Kind: OpCreate, File: "f1"}, Op{Kind: OpRename, File: "f0", To: "f1"})
	before := runs.Load()
	f := Evaluate(w, nil, oses)
	if n := runs.Load() - before; n != 4 {
		t.Errorf("Evaluate over %d profiles called run %d times, want 4", len(oses), n)
	}
	if len(f.Verdicts) != len(oses) {
		t.Errorf("finding holds %d verdicts, want one per profile (%d)", len(f.Verdicts), len(oses))
	}
	if f.Verdicts["win95"] != f.Verdicts["win98"] || f.Verdicts["winnt"] != f.Verdicts["win2000"] {
		t.Error("profiles with one policy do not share its verdict")
	}
}

// TestViolationSetNames: each violation bit names its invariant, and
// names come out sorted because invariantNames is.
func TestViolationSetNames(t *testing.T) {
	if !sort.StringsAreSorted(invariantNames[:]) {
		t.Errorf("invariantNames %v are not sorted", invariantNames)
	}
	for bit, want := range map[violationSet]string{
		violFsyncData: InvFsyncData, violFsyncUnreachable: InvFsyncUnreachable,
		violLinkCount: InvLinkCount, violOrphanEntry: InvOrphanEntry,
		violOrphanInode: InvOrphanInode, violRenameDup: InvRenameDup,
		violRenameLoss: InvRenameLoss,
	} {
		if got := bit.names(); len(got) != 1 || got[0] != want {
			t.Errorf("bit %#x names %v, want [%s]", uint8(bit), got, want)
		}
	}
	all := violationSet(1<<len(invariantNames) - 1)
	if got := all.names(); !slices.Equal(got, invariantNames[:]) {
		t.Errorf("every bit names %v, want %v", got, invariantNames)
	}
	if got := violationSet(0).names(); got == nil || len(got) != 0 {
		t.Errorf("the empty set names %#v, want an empty non-nil slice", got)
	}
}
