package crashsim

import (
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"ballista/internal/osprofile"
)

// Verdict is one durability policy's view of a workload, shared by the
// OS profiles with that policy: the per-op outcome tokens, and per
// crash point the count of legal post-crash states and the union of
// invariant violations found across them.
type Verdict struct {
	Results    []string   `json:"results"`
	States     []int      `json:"states"`
	Violations [][]string `json:"violations"`
}

// violationUnion flattens a verdict's violations into one sorted set.
func (v *Verdict) violationUnion() []string {
	set := make(map[string]bool)
	for _, vs := range v.Violations {
		for _, name := range vs {
			set[name] = true
		}
	}
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// violating reports whether any crash point violated any invariant.
func (v *Verdict) violating() bool {
	for _, vs := range v.Violations {
		if len(vs) > 0 {
			return true
		}
	}
	return false
}

// appendKey appends an encoding of v that two verdicts share exactly
// when they are equal: NUL ends each token, 1 ends each field and 2
// each crash point's violation set.
func (v *Verdict) appendKey(b []byte) []byte {
	for _, r := range v.Results {
		b = append(append(b, r...), 0)
	}
	b = append(b, 1)
	for _, n := range v.States {
		b = append(strconv.AppendInt(b, int64(n), 10), 0)
	}
	b = append(b, 1)
	for _, vs := range v.Violations {
		for _, name := range vs {
			b = append(append(b, name...), 0)
		}
		b = append(b, 2)
	}
	return b
}

// verdictInterner hands out one shared *Verdict per distinct verdict.
// A sweep retains every interesting finding until its merge, seven
// verdicts each, and most of those verdicts repeat across workloads and
// profiles.  Safe for concurrent use.
type verdictInterner struct {
	mu sync.Mutex
	m  map[string]*Verdict
}

// intern replaces each of f's verdicts with the shared equal one,
// making it the shared one when it is the first of its kind.
func (in *verdictInterner) intern(f *Finding) {
	var buf [512]byte
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.m == nil {
		in.m = make(map[string]*Verdict)
	}
	for name, v := range f.Verdicts {
		key := v.appendKey(buf[:0])
		if shared, ok := in.m[string(key)]; ok {
			f.Verdicts[name] = shared
		} else {
			in.m[string(key)] = v
		}
	}
}

// Finding is one evaluated workload: its per-OS verdicts and the
// differential analysis over them.
type Finding struct {
	Workload  Workload            `json:"workload"`
	Verdicts  map[string]*Verdict `json:"verdicts"`
	Divergent bool                `json:"divergent,omitempty"`
	Violating bool                `json:"violating,omitempty"`
	Signature string              `json:"signature"`
}

// Interesting reports whether the finding earns a place in a report:
// either the OS set diverged, or an invariant was violated somewhere.
func (f *Finding) Interesting() bool { return f.Divergent || f.Violating }

// evaluations counts Evaluate calls, for the gate that a sweep
// evaluates each workload exactly once.
var evaluations atomic.Int64

// Evaluate replays one workload across the OS set and runs the full
// crash-state enumeration and invariant check under each profile's
// durability policy.  A verdict is a pure function of (w, names,
// policy), so the evaluation runs once per distinct policy and the
// profiles that share one share its *Verdict; the finding still holds a
// verdict for every profile.  Sweeps stay deterministic for any worker
// count because evaluation order cannot matter.  Nothing changes the
// returned verdicts afterwards, so findings may share equal ones.
func Evaluate(w Workload, names []string, oses []osprofile.OS) *Finding {
	evaluations.Add(1)
	if len(names) == 0 {
		names = DefaultNames()
	}
	if len(oses) == 0 {
		oses = osprofile.All()
	}
	f := &Finding{Workload: w, Verdicts: make(map[string]*Verdict, len(oses))}
	byPolicy := make(map[Policy]*Verdict, len(oses))
	for _, o := range oses {
		pol := PolicyFor(o)
		v, ok := byPolicy[pol]
		if !ok {
			v = evaluatePolicy(w, names, pol)
			byPolicy[pol] = v
			if v.violating() {
				f.Violating = true
			}
		}
		f.Verdicts[o.WireName()] = v
	}
	first := f.Verdicts[oses[0].WireName()]
	for _, o := range oses[1:] {
		if v := f.Verdicts[o.WireName()]; v != first && !sameOutcome(v, first) {
			f.Divergent = true
			break
		}
	}
	f.Signature = signature(w, f.Verdicts, oses)
	return f
}

// evaluatePolicy replays w under one durability policy and judges every
// crash point: the count of legal post-crash states and the sorted
// union of the invariants they violate.
func evaluatePolicy(w Workload, names []string, pol Policy) *Verdict {
	ex := run(w, names, pol)
	v := &Verdict{Results: ex.results}
	base := baseState(ex)
	for cp := 1; cp <= len(w.Ops); cp++ {
		states := enumerateStates(ex, cp, pol, base)
		checks := newPointChecks(base, ex.pending(cp), pol)
		var union violationSet
		for _, st := range states {
			union |= checks.check(st)
		}
		v.States = append(v.States, len(states))
		v.Violations = append(v.Violations, union.names())
	}
	return v
}

// sameOutcome reports whether two verdicts agree on every op result and
// every crash point's violation set, the differential comparison.
func sameOutcome(a, b *Verdict) bool {
	return slices.Equal(a.Results, b.Results) &&
		slices.EqualFunc(a.Violations, b.Violations, slices.Equal[[]string])
}

// signature abstracts a finding to its bug class — the op-kind chain,
// the cross-OS equivalence pattern of op results, and each profile's
// violation set — so near-identical findings (same chain shape over
// different names) deduplicate.
func signature(w Workload, verdicts map[string]*Verdict, oses []osprofile.OS) string {
	var b strings.Builder
	b.WriteString(w.Kinds())
	b.WriteString("|")
	classes := make(map[string]byte)
	for _, o := range oses {
		key := strings.Join(verdicts[o.WireName()].Results, ",")
		c, ok := classes[key]
		if !ok {
			c = byte('a' + len(classes))
			classes[key] = c
		}
		b.WriteByte(c)
	}
	b.WriteString("|")
	for i, o := range oses {
		if i > 0 {
			b.WriteString("/")
		}
		b.WriteString(strings.Join(verdicts[o.WireName()].violationUnion(), ","))
	}
	return b.String()
}

// essence is the part of a finding minimization must preserve: the
// divergence bit plus each profile's violation set.
func essence(f *Finding, oses []osprofile.OS) string {
	var b strings.Builder
	b.WriteString(strconv.FormatBool(f.Divergent))
	b.WriteByte('|')
	for i, o := range oses {
		if i > 0 {
			b.WriteString("/")
		}
		b.WriteString(strings.Join(f.Verdicts[o.WireName()].violationUnion(), ","))
	}
	return b.String()
}

// Minimize greedily drops workload ops while the finding's essence
// (divergence and per-OS violation sets) is preserved, evaluating each
// candidate afresh.  Deterministic: ops are tried in order, first
// successful drop wins each round.  Sweep runs the same greedy search
// over the results it already holds.
func Minimize(f *Finding, names []string, oses []osprofile.OS) *Finding {
	if len(oses) == 0 {
		oses = osprofile.All()
	}
	m, _ := minimize(f, oses, func(w Workload) (*Finding, error) {
		return Evaluate(w, names, oses), nil
	})
	return m
}

// minimize is the greedy search: each round drops the first op whose
// one-op-shorter candidate is interesting with f's essence.  eval
// returns a candidate's finding, or nil for an uninteresting candidate;
// its error ends the search.
func minimize(f *Finding, oses []osprofile.OS, eval func(Workload) (*Finding, error)) (*Finding, error) {
	want := essence(f, oses)
	cur := f
	for len(cur.Workload.Ops) > 1 {
		dropped := false
		for i := range cur.Workload.Ops {
			ops := make([]Op, 0, len(cur.Workload.Ops)-1)
			ops = append(ops, cur.Workload.Ops[:i]...)
			ops = append(ops, cur.Workload.Ops[i+1:]...)
			cand, err := eval(Workload{Seed: cur.Workload.Seed, Ops: ops})
			if err != nil {
				return nil, err
			}
			if cand != nil && cand.Interesting() && essence(cand, oses) == want {
				cur = cand
				dropped = true
				break
			}
		}
		if !dropped {
			break
		}
	}
	return cur, nil
}
