package core_test

// The case arena's differential oracle: a runner that reuses one arena
// for every case must be indistinguishable from one that runs every case
// in brand-new memory.

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"ballista"
	"ballista/internal/api"
	"ballista/internal/catalog"
	"ballista/internal/chaos"
	"ballista/internal/core"
	"ballista/internal/sim/mem"
)

// arenaOracleCap keeps each profile's campaign to about ten thousand
// cases while still reaching every MuT.
const arenaOracleCap = 50

// caseRecord is everything the oracle compares of one case.  The event
// is kept as handed out, not deep-copied, so a slice or string that
// pointed into the arena would be overwritten by later cases and show.
type caseRecord struct {
	ev    core.CaseEvent
	state core.CaseState
}

// arenaRecorder records each case's event and arena state as it is
// observed, and, when fresh is set, drops the runner's arena after every
// case so that each case runs in brand-new memory.
type arenaRecorder struct {
	r     *core.Runner
	fresh bool
	recs  []caseRecord
}

func (o *arenaRecorder) Observe(e core.Event) {
	ev, ok := e.(*core.CaseEvent)
	if !ok {
		return
	}
	c := *ev
	c.Wall = 0
	o.recs = append(o.recs, caseRecord{ev: c, state: core.LastCase(o.r)})
	if o.fresh {
		core.DropArena(o.r)
	}
}

// runArenaCampaign runs o's reduced campaign and returns its result and
// per-case records.
func runArenaCampaign(t *testing.T, o ballista.OS, fresh bool, opts ...ballista.Option) (*core.OSResult, []caseRecord) {
	t.Helper()
	rec := &arenaRecorder{fresh: fresh}
	opts = append([]ballista.Option{ballista.WithCap(arenaOracleCap), ballista.WithObserver(rec)}, opts...)
	rec.r = ballista.NewRunner(o, opts...)
	res, err := rec.r.RunAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res, rec.recs
}

// sameState compares two case states, floating-point returns by bits
// (a NaN return must equal itself).
func sameState(a, b core.CaseState) bool {
	if math.Float64bits(a.Outcome.RetF) != math.Float64bits(b.Outcome.RetF) {
		return false
	}
	a.Outcome.RetF, b.Outcome.RetF = 0, 0
	return a == b
}

// TestArenaDifferentialOracle runs every case of a reduced campaign on
// all seven profiles twice, once through one recycling runner and once
// with every case in brand-new memory, on the shared machine, in
// Isolated mode and under the "all" chaos preset (whose wedges condemn
// machines and whose faults land mid-case), and compares every case's
// classification, event, outcome, fault address and kind and the bytes
// of every page its process wrote.
func TestArenaDifferentialOracle(t *testing.T) {
	all, err := chaos.Preset("all", 7)
	if err != nil {
		t.Fatal(err)
	}
	modes := []struct {
		name string
		opts []ballista.Option
	}{
		{"shared", nil},
		{"isolated", []ballista.Option{ballista.WithIsolation()}},
		{"chaos-all", []ballista.Option{ballista.WithChaos(all), ballista.WithCaseDeadline(20 * time.Millisecond)}},
	}
	for _, mode := range modes {
		for _, o := range ballista.AllOSes() {
			t.Run(mode.name+"/"+o.WireName(), func(t *testing.T) {
				t.Parallel()
				got, gotRecs := runArenaCampaign(t, o, false, mode.opts...)
				want, wantRecs := runArenaCampaign(t, o, true, mode.opts...)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("campaign results differ: %d cases, %d reboots; fresh memory %d, %d",
						got.CasesRun, got.Reboots, want.CasesRun, want.Reboots)
				}
				if len(gotRecs) != len(wantRecs) {
					t.Fatalf("%d cases observed, %d in fresh memory", len(gotRecs), len(wantRecs))
				}
				faulted, written := 0, 0
				for i, g := range gotRecs {
					w := wantRecs[i]
					if !reflect.DeepEqual(g.ev, w.ev) {
						t.Fatalf("case %d (%s %v): event\n%+v\nin fresh memory\n%+v", i, g.ev.MuT, g.ev.Case, g.ev, w.ev)
					}
					if !sameState(g.state, w.state) {
						t.Fatalf("case %d (%s %v): outcome %+v, %d pages %x\nin fresh memory %+v, %d pages %x",
							i, g.ev.MuT, g.ev.Case, g.state.Outcome, g.state.Pages, g.state.Digest[:6],
							w.state.Outcome, w.state.Pages, w.state.Digest[:6])
					}
					if g.state.Outcome.Faulted {
						faulted++
					}
					written += g.state.Pages
				}
				if faulted == 0 || written == 0 {
					t.Errorf("%d cases faulted and %d pages were written: the oracle compared nothing", faulted, written)
				}
			})
		}
	}
}

// TestCondemnedMachineDropsArena: a wedged call that the watchdog
// abandons may still be running when the next case starts, holding its
// frame and process.  The runner must drop its arena with the condemned
// machine, so the straggler's late writes land in memory no case uses.
// The wedged call here holds on past the watchdog's grace and then, while
// the next case runs, writes its process's memory and its outcome; the
// next case must see exactly what it sees on a brand-new runner.
func TestCondemnedMachineDropsArena(t *testing.T) {
	proceed := make(chan struct{})
	wrote := make(chan struct{})
	var once sync.Once
	wedge := catalog.MuT{Name: "WedgeThenScribble", API: catalog.Win32}
	probe := catalog.MuT{Name: "ReadFirstUserPage", API: catalog.Win32}
	impls := map[string]core.Impl{
		wedge.Name: func(c *api.Call) {
			<-proceed
			defer close(wrote)
			if err := c.P.AS.Map(mem.UserBase, mem.PageSize, mem.ProtRW); err == nil {
				_ = c.P.AS.WriteU32(mem.UserBase, 0xDEADBEEF)
			}
			c.Ret(0xBAD)
		},
		probe.Name: func(c *api.Call) {
			// Let the abandoned call loose and wait until it has done
			// its worst before looking.
			once.Do(func() { close(proceed) })
			<-wrote
			v, f := c.P.AS.ReadU32(mem.UserBase)
			if f != nil {
				c.Ret(-1)
				return
			}
			c.Ret(int64(v))
		},
	}
	dispatch := func(m catalog.MuT) (core.Impl, bool) {
		impl, ok := impls[m.Name]
		return impl, ok
	}
	plan := &chaos.Plan{Seed: 1, Rules: []chaos.Rule{
		{Op: chaos.OpKernWedge, Site: wedge.Name, RatePerMille: 1000},
	}}
	cfg := core.Config{OS: ballista.WinNT, Chaos: plan, CaseDeadline: 20 * time.Millisecond}

	r := core.NewRunner(cfg, core.NewRegistry(), dispatch, nil)
	if cls, err := r.RunCase(wedge, core.Case{}, false); err != nil || cls != core.RawRestart {
		t.Fatalf("wedged case classified %v, %v; want restart", cls, err)
	}
	var got core.CaseState
	var gotCls core.RawClass
	done := make(chan struct{})
	go func() {
		defer close(done)
		gotCls, _ = r.RunCase(probe, core.Case{}, false)
		got = core.LastCase(r)
	}()
	<-done

	// The reference: the same probe on a brand-new runner.
	ref := core.NewRunner(cfg, core.NewRegistry(), dispatch, nil)
	wantCls, err := ref.RunCase(probe, core.Case{}, false)
	if err != nil {
		t.Fatal(err)
	}
	want := core.LastCase(ref)
	if gotCls != wantCls || !sameState(got, want) {
		t.Errorf("case after a condemned machine: %v %+v; on a brand-new runner %v %+v", gotCls, got.Outcome, wantCls, want.Outcome)
	}
	if got.Outcome.Ret != -1 {
		t.Errorf("the next case read %#x at the user base, want a fault (-1)", got.Outcome.Ret)
	}
}
