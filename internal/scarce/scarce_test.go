package scarce

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ballista/internal/api"
	"ballista/internal/catalog"
	"ballista/internal/core"
	"ballista/internal/osprofile"
	"ballista/internal/sim/kern"
)

// fakeMuTs builds a tiny parameterless catalog whose implementations
// exercise the oracles directly, without depending on the real suite.
func fakeMuTs() []catalog.MuT {
	return []catalog.MuT{
		{Name: "leaky_open", API: catalog.CLib},
		{Name: "fixed_open", API: catalog.CLib},
		{Name: "liar_create", API: catalog.CLib},
	}
}

// fakeDispatch implements the three fixture MuTs:
//
//   - leaky_open allocates a handle, then an FD; when the FD table is
//     full it reports EMFILE but FORGETS the handle — the seeded
//     error-path leak the leak oracle must catch.
//   - fixed_open is the corrected twin: it backs the handle out before
//     reporting EMFILE.
//   - liar_create swallows a failed handle allocation and reports
//     success anyway — a silent lie for the degradation oracle.
func fakeDispatch(m catalog.MuT) (core.Impl, bool) {
	switch m.Name {
	case "leaky_open":
		return func(c *api.Call) {
			h := c.P.AddHandle(&kern.Object{Kind: kern.KEvent})
			if h == 0 {
				c.FailErrno(api.ENFILE)
				return
			}
			fd := c.P.AddFD(&kern.FD{})
			if fd < 0 {
				c.FailErrno(api.EMFILE) // handle h is never closed: leak
				return
			}
			c.P.CloseFD(fd)
			c.P.CloseHandle(h)
			c.Ret(0)
		}, true
	case "fixed_open":
		return func(c *api.Call) {
			h := c.P.AddHandle(&kern.Object{Kind: kern.KEvent})
			if h == 0 {
				c.FailErrno(api.ENFILE)
				return
			}
			fd := c.P.AddFD(&kern.FD{})
			if fd < 0 {
				c.P.CloseHandle(h)
				c.FailErrno(api.EMFILE)
				return
			}
			c.P.CloseFD(fd)
			c.P.CloseHandle(h)
			c.Ret(0)
		}, true
	case "liar_create":
		return func(c *api.Call) {
			_ = c.P.AddHandle(&kern.Object{Kind: kern.KEvent})
			c.Ret(1) // success claimed whether or not the table had room
		}, true
	}
	return nil, false
}

func testDeps() *Deps {
	return &Deps{
		NewRunner: func(o osprofile.OS) *core.Runner {
			return core.NewRunner(core.Config{OS: o, Cap: core.DefaultCap, StopMuTOnCrash: true},
				core.NewRegistry(), fakeDispatch, nil)
		},
		MuTs:     func(osprofile.OS) []catalog.MuT { return fakeMuTs() },
		Registry: core.NewRegistry(),
	}
}

func fdFull() Env {
	return Env{Name: "fd-full", Handles: -1, FDs: 0, HeapPages: -1, DiskOps: -1, Procs: -1, Socks: -1}
}

func handleFull() Env {
	return Env{Name: "handle-full", Handles: 0, FDs: -1, HeapPages: -1, DiskOps: -1, Procs: -1, Socks: -1}
}

// TestLeakOracleCatchesSeededLeak is the acceptance regression: the
// intentionally-leaky fixture MuT must produce a leak finding, and its
// corrected twin must not.
func TestLeakOracleCatchesSeededLeak(t *testing.T) {
	deps := testDeps()
	oses := []osprofile.OS{osprofile.Linux}

	leaky := catalog.MuT{Name: "leaky_open", API: catalog.CLib}
	r := evalItem(deps, fdFull(), leaky, oses, 7)
	if r.Finding == nil {
		t.Fatal("leaky_open under fd-full produced no finding")
	}
	v := r.Finding.Verdicts["linux"]
	if v == nil {
		t.Fatal("no linux verdict")
	}
	if v.Degrade != DegradeGraceful {
		t.Errorf("leaky_open degrade = %q, want graceful (EMFILE is documented)", v.Degrade)
	}
	if !v.Leaked || v.Leak.Handles != 1 {
		t.Errorf("leak oracle missed the seeded leak: leaked=%v delta=%v", v.Leaked, v.Leak)
	}
	if !r.Finding.Violating {
		t.Error("leak finding not marked violating")
	}
	if r.Leaked != 1 {
		t.Errorf("item leak count = %d, want 1", r.Leaked)
	}

	fixed := catalog.MuT{Name: "fixed_open", API: catalog.CLib}
	r = evalItem(deps, fdFull(), fixed, oses, 7)
	if r.Finding != nil {
		t.Errorf("fixed_open produced a finding: %+v", r.Finding.Verdicts["linux"])
	}
}

// TestDegradationOracleFlagsSilentLie: success claimed over a depleted
// handle table grades "silent".
func TestDegradationOracleFlagsSilentLie(t *testing.T) {
	deps := testDeps()
	oses := []osprofile.OS{osprofile.Linux}
	liar := catalog.MuT{Name: "liar_create", API: catalog.CLib}
	r := evalItem(deps, handleFull(), liar, oses, 7)
	if r.Finding == nil {
		t.Fatal("liar_create under handle-full produced no finding")
	}
	v := r.Finding.Verdicts["linux"]
	if v.Degrade != DegradeSilent {
		t.Errorf("degrade = %q, want silent", v.Degrade)
	}
	if r.Ungraceful != 1 {
		t.Errorf("ungraceful count = %d, want 1", r.Ungraceful)
	}
}

// TestUntouchedWhenEnvironmentIdle: a MuT probed under a depleted
// resource it never touches grades "untouched" and yields no finding.
func TestUntouchedWhenEnvironmentIdle(t *testing.T) {
	deps := testDeps()
	oses := []osprofile.OS{osprofile.Linux}
	// fixed_open never spawns a process, so proc-full cannot fire.
	procFull := Env{Name: "proc-full", Handles: -1, FDs: -1, HeapPages: -1, DiskOps: -1, Procs: 0, Socks: -1}
	r := evalItem(deps, procFull, catalog.MuT{Name: "fixed_open", API: catalog.CLib}, oses, 7)
	if r.Finding != nil {
		t.Fatalf("unexpected finding: %+v", r.Finding)
	}
}

// TestMinimizeCollapsesComposite: a finding from the composite
// environment minimizes to its fd axis and its signature collapses onto
// the plain fd-full finding.
func TestMinimizeCollapsesComposite(t *testing.T) {
	deps := testDeps()
	oses := []osprofile.OS{osprofile.Linux}
	leaky := catalog.MuT{Name: "leaky_open", API: catalog.CLib}

	thrash := Env{Name: "thrashing", Handles: 5, FDs: 0, HeapPages: -1, DiskOps: -1, Procs: -1, Socks: -1}
	r := evalItem(deps, thrash, leaky, oses, 7)
	if r.Finding == nil {
		t.Fatal("no composite finding")
	}
	min := Minimize(r.Finding, deps, oses, 7)
	if min.Env.Key() != "fds=0" {
		t.Fatalf("minimized to %q, want fds=0", min.Env.Key())
	}
	single := evalItem(deps, fdFull(), leaky, oses, 7)
	if single.Finding == nil {
		t.Fatal("no single-axis finding")
	}
	if min.Signature != single.Finding.Signature {
		t.Errorf("minimized signature %q != single-axis %q", min.Signature, single.Finding.Signature)
	}
}

func sweepCfg(deps *Deps, envs []Env) Config {
	return Config{
		OSes: []osprofile.OS{osprofile.Linux, osprofile.WinNT},
		Envs: envs,
		Seed: 7,
		Deps: deps,
	}
}

// TestSweepWorkerDeterminism: byte-identical reports for any worker
// count.
func TestSweepWorkerDeterminism(t *testing.T) {
	deps := testDeps()
	envs := []Env{fdFull(), handleFull()}
	ref, err := Sweep(context.Background(), sweepCfg(deps, envs))
	if err != nil {
		t.Fatal(err)
	}
	refJSON, _ := json.Marshal(ref)
	for _, workers := range []int{2, 4} {
		cfg := sweepCfg(deps, envs)
		cfg.Workers = workers
		got, err := Sweep(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, _ := json.Marshal(got)
		if string(gotJSON) != string(refJSON) {
			t.Errorf("report with %d workers differs from 1-worker reference", workers)
		}
	}
	if ref.Probes == 0 || len(ref.Findings) == 0 {
		t.Fatalf("trivial sweep: probes=%d findings=%d", ref.Probes, len(ref.Findings))
	}
}

// TestSweepDedupeAcrossEnvs: the thrashing composite minimizes onto the
// fd-full witness, so the merged findings list holds one leak finding,
// not two.
func TestSweepDedupeAcrossEnvs(t *testing.T) {
	deps := testDeps()
	thrash := Env{Name: "thrashing", Handles: 5, FDs: 0, HeapPages: -1, DiskOps: -1, Procs: -1, Socks: -1}
	rep, err := Sweep(context.Background(), sweepCfg(deps, []Env{fdFull(), thrash}))
	if err != nil {
		t.Fatal(err)
	}
	var leakSigs []string
	for _, f := range rep.Findings {
		if f.MuT == "leaky_open" {
			leakSigs = append(leakSigs, f.Signature)
		}
	}
	if len(leakSigs) != 1 {
		t.Errorf("leaky_open findings after dedupe = %d (%v), want 1", len(leakSigs), leakSigs)
	}
}

// TestSweepCheckpointResume: a journaled sweep resumes without
// re-evaluating a single item, and the resumed report is identical.
// After a kill leaves a torn half-line at the tail, the resumed sweep
// must journal every item it re-evaluates — its first record must not
// fuse onto the fragment — so the sweep after it evaluates nothing and
// leaves the journal byte-identical.
func TestSweepCheckpointResume(t *testing.T) {
	deps := testDeps()
	envs := []Env{fdFull(), handleFull()}
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")

	cfg := sweepCfg(deps, envs)
	cfg.Checkpoint = path
	ref, err := Sweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	refJSON, _ := json.Marshal(ref)

	// resumeFromJournal sweeps with a substrate that counts probes: an
	// item that comes from the journal runs none.  (Minimization
	// re-probes single-axis environments via Split, which is a no-op
	// here.)
	resumeFromJournal := func(t *testing.T) (calls int) {
		t.Helper()
		counting := &Deps{
			NewRunner: func(o osprofile.OS) *core.Runner {
				calls++
				return deps.NewRunner(o)
			},
			MuTs:     deps.MuTs,
			Registry: deps.Registry,
		}
		cfg := sweepCfg(counting, envs)
		cfg.Checkpoint = path
		got, err := Sweep(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if gotJSON, _ := json.Marshal(got); string(gotJSON) != string(refJSON) {
			t.Error("resumed report differs from original")
		}
		return calls
	}
	if calls := resumeFromJournal(t); calls != 0 {
		t.Errorf("resume re-evaluated %d probes, want 0", calls)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != ref.Items+1 {
		t.Fatalf("journal has %d lines, want header + %d", len(lines), ref.Items)
	}
	half := 1 + ref.Items/2
	torn := strings.Join(lines[:half], "\n") + "\n" + lines[half][:len(lines[half])/2]
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	if calls := resumeFromJournal(t); calls == 0 {
		t.Fatal("resume from a truncated journal re-evaluated nothing")
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if calls := resumeFromJournal(t); calls != 0 {
		t.Errorf("sweep after the torn-tail resume re-evaluated %d probes, want 0", calls)
	}
	if after, _ := os.ReadFile(path); string(after) != string(before) {
		t.Error("sweep after the torn-tail resume changed the journal")
	}
}

// TestSweepResumesV1Journal: testdata/v1-journal.jsonl was written by
// the first journal implementation.  The same sweep journaled today
// writes identical bytes, and resuming from the old file probes nothing,
// leaves it unchanged, and reports what a fresh run does.
func TestSweepResumesV1Journal(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("testdata", "v1-journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	deps := testDeps()
	envs := []Env{fdFull(), handleFull()}
	dir := t.TempDir()
	cfg := sweepCfg(deps, envs)
	cfg.Checkpoint = filepath.Join(dir, "fresh.jsonl")
	fresh, err := Sweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(cfg.Checkpoint); string(got) != string(v1) {
		t.Error("a fresh journal differs from the v1 journal of the same sweep")
	}

	calls := 0
	counting := &Deps{
		NewRunner: func(o osprofile.OS) *core.Runner {
			calls++
			return deps.NewRunner(o)
		},
		MuTs:     deps.MuTs,
		Registry: deps.Registry,
	}
	cfg = sweepCfg(counting, envs)
	cfg.Checkpoint = filepath.Join(dir, "v1.jsonl")
	if err := os.WriteFile(cfg.Checkpoint, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	resumed, err := Sweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Errorf("resuming from the v1 journal ran %d probes, want 0", calls)
	}
	if got, _ := os.ReadFile(cfg.Checkpoint); string(got) != string(v1) {
		t.Error("resuming from the v1 journal changed it")
	}
	freshJSON, _ := json.Marshal(fresh)
	resumedJSON, _ := json.Marshal(resumed)
	if string(freshJSON) != string(resumedJSON) {
		t.Error("report resumed from the v1 journal differs from a fresh run")
	}
}

// TestCheckpointRejectsForeignJournal: a journal written by a different
// configuration must be an error, not a silent restart.
func TestCheckpointRejectsForeignJournal(t *testing.T) {
	deps := testDeps()
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")

	cfg := sweepCfg(deps, []Env{fdFull()})
	cfg.Checkpoint = path
	if _, err := Sweep(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	cfg2 := sweepCfg(deps, []Env{handleFull()}) // different identity
	cfg2.Checkpoint = path
	if _, err := Sweep(context.Background(), cfg2); err == nil {
		t.Error("sweep accepted a journal from a different configuration")
	}

	// A corrupt header is also an error.
	bad := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(bad, []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg3 := sweepCfg(deps, []Env{fdFull()})
	cfg3.Checkpoint = bad
	if _, err := Sweep(context.Background(), cfg3); err == nil {
		t.Error("sweep accepted a corrupt journal header")
	}
}

// TestReproducerRoundTripAndVerify: findings survive the reproducer
// round trip, and Verify re-derives identical verdicts.
func TestReproducerRoundTripAndVerify(t *testing.T) {
	deps := testDeps()
	rep, err := Sweep(context.Background(), sweepCfg(deps, []Env{fdFull()}))
	if err != nil {
		t.Fatal(err)
	}
	docs := rep.Reproducers()
	if len(docs) == 0 {
		t.Fatal("no reproducers")
	}
	for _, doc := range docs {
		data, err := doc.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		// muTByWire cannot resolve fixture MuTs, so patch the parse check
		// by round-tripping fields rather than ParseReproducer here.
		var back Reproducer
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if back.Env.Key() != doc.Env.Key() || back.MuT != doc.MuT {
			t.Errorf("round trip changed identity: %q/%q", back.MuT, back.Env.Key())
		}
		// Verify is exercised against the recorded verdicts directly.
		m := catalog.MuT{Name: doc.MuT, API: catalog.CLib}
		for _, name := range doc.OSes {
			o, _ := osprofile.Parse(name)
			got := evalVerdict(deps, o, m, doc.Case, doc.Env, rep.Seed)
			want := doc.Verdicts[name]
			gj, _ := json.Marshal(got)
			wj, _ := json.Marshal(want)
			if string(gj) != string(wj) {
				t.Errorf("%s %s: fresh verdict %s != recorded %s", doc.MuT, name, gj, wj)
			}
		}
	}
}

// TestParseReproducerRejectsBadDocs: version, MuT, case arity,
// environment and OS coverage are all checked.
func TestParseReproducerRejectsBadDocs(t *testing.T) {
	good := &Reproducer{
		V: reproVersion, API: "win32", MuT: "CreateEvent",
		Env:  handleFull(),
		Case: core.Case{0, 0, 0, 0},
		OSes: []string{"winnt"},
		Verdicts: map[string]*Verdict{
			"winnt": {Degrade: DegradeGraceful},
		},
	}
	data, err := good.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseReproducer(data); err != nil {
		t.Fatalf("good doc rejected: %v", err)
	}
	for name, mangle := range map[string]func(s string) string{
		"bad version":    func(s string) string { return strings.Replace(s, `"v": 1`, `"v": 99`, 1) },
		"unknown MuT":    func(s string) string { return strings.Replace(s, "CreateEvent", "NoSuchCall", 1) },
		"unknown OS":     func(s string) string { return strings.Replace(s, `"winnt"`, `"plan9"`, 2) },
		"missing axis":   func(s string) string { return strings.Replace(s, `"handles": 0`, `"handles": -1`, 1) },
		"orphan verdict": func(s string) string { return strings.Replace(s, `"oses": [`, `"oses": ["linux",`, 1) },
		"short case":     func(s string) string { return strings.Replace(s, "0,\n    0,\n    0,\n    0\n", "0\n", 1) },
	} {
		if _, err := ParseReproducer([]byte(mangle(string(data)))); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	// A corpus reproducer whose case lost an index names no test case;
	// verifying it used to index past the end of the case.
	corpus, err := LoadReproducer(filepath.Join("..", "..", "testdata", "corpus", "scarce", "scarce-051.json"))
	if err != nil {
		t.Fatal(err)
	}
	corpus.Case = corpus.Case[:1]
	truncated, err := corpus.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseReproducer(truncated); err == nil {
		t.Errorf("reproducer with truncated case %v accepted", corpus.Case)
	}
}

func TestParseEnv(t *testing.T) {
	for _, e := range DefaultEnvs() {
		got, err := ParseEnv(e.Name)
		if err != nil {
			t.Fatalf("ParseEnv(%q): %v", e.Name, err)
		}
		if got.Key() != e.Key() {
			t.Errorf("ParseEnv(%q).Key() = %q, want %q", e.Name, got.Key(), e.Key())
		}
	}
	if _, err := ParseEnv("no-such-env"); err == nil {
		t.Error("ParseEnv accepted an unknown name")
	}

	// Raw axis specs parse to normalized environments whose name is the
	// canonical key; unnamed axes stay disabled.
	e, err := ParseEnv("handles=1, fds=0")
	if err != nil {
		t.Fatalf("ParseEnv(spec): %v", err)
	}
	if e.Handles != 1 || e.FDs != 0 || e.HeapPages != -1 || e.DiskOps != -1 || e.Procs != -1 {
		t.Errorf("spec parsed to %+v", e)
	}
	if e.Name != "handles=1,fds=0" {
		t.Errorf("spec name %q, want canonical key", e.Name)
	}
	for _, bad := range []string{"handles=", "handles=-1", "handles=1x", "ram=0", "handles=0,,", "=3"} {
		if _, err := ParseEnv(bad); err == nil {
			t.Errorf("ParseEnv(%q) accepted a malformed spec", bad)
		}
	}
}

func TestEnvKeySplitNormalize(t *testing.T) {
	e := Env{Name: "x", Handles: 1, FDs: -1, HeapPages: 2, DiskOps: -1, Procs: 0, Socks: -1}
	if got, want := e.Key(), "handles=1,heap_pages=2,procs=0"; got != want {
		t.Errorf("Key = %q, want %q", got, want)
	}
	subs := e.Split()
	if len(subs) != 3 {
		t.Fatalf("Split returned %d envs, want 3", len(subs))
	}
	for _, s := range subs {
		if s.Name != s.Key() {
			t.Errorf("split env name %q != key %q", s.Name, s.Key())
		}
		if len(s.Plan(1).Rules) != 1 {
			t.Errorf("split env %q has %d rules, want 1", s.Name, len(s.Plan(1).Rules))
		}
	}
	n := Env{Handles: -99, FDs: 1 << 30, HeapPages: 3, Socks: 70000}.Normalize()
	if n.Handles != -1 || n.FDs != maxSlack || n.HeapPages != 3 || n.Socks != maxSlack {
		t.Errorf("Normalize = %+v", n)
	}
	if n.Name == "" {
		t.Error("Normalize left the name empty")
	}
	disabled := Env{Handles: -1, FDs: -1, HeapPages: -1, DiskOps: -1, Procs: -1, Socks: -1}
	if disabled.Enabled() {
		t.Error("all-disabled env reports Enabled")
	}
	if disabled.Key() != "none" {
		t.Errorf("all-disabled Key = %q", disabled.Key())
	}
}

// FuzzScarceEnv: any normalized environment yields a plan whose rule
// count matches its enabled axes, a stable key, and single-axis splits.
func FuzzScarceEnv(f *testing.F) {
	f.Add(0, -1, -1, -1, -1, -1)
	f.Add(1, 1, 2, 0, 0, 1)
	f.Add(-5, 70000, 3, -1, 2, 0)
	f.Fuzz(func(t *testing.T, h, fd, hp, d, p, sk int) {
		e := Env{Handles: h, FDs: fd, HeapPages: hp, DiskOps: d, Procs: p, Socks: sk}.Normalize()
		if e2 := e.Normalize(); e2 != e {
			t.Fatalf("Normalize not idempotent: %+v vs %+v", e, e2)
		}
		enabled := 0
		for _, a := range e.axes() {
			if a.slack >= 0 {
				enabled++
			}
		}
		plan := e.Plan(7)
		if len(plan.Rules) != enabled {
			t.Fatalf("plan has %d rules for %d enabled axes", len(plan.Rules), enabled)
		}
		if err := plan.Validate(); err != nil {
			t.Fatalf("normalized env plan invalid: %v", err)
		}
		subs := e.Split()
		if len(subs) != enabled {
			t.Fatalf("Split returned %d envs for %d enabled axes", len(subs), enabled)
		}
		keys := make(map[string]bool)
		for _, s := range subs {
			if len(s.Plan(7).Rules) != 1 {
				t.Fatalf("split env %q not single-axis", s.Name)
			}
			keys[s.Key()] = true
		}
		if len(keys) != enabled {
			t.Fatalf("split keys collide: %v", keys)
		}
		if e.Key() == "" {
			t.Fatal("empty key")
		}
	})
}
