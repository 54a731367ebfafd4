package ballista

import (
	"bytes"
	"context"
	"testing"

	"ballista/internal/catalog"
	"ballista/internal/core"
	"ballista/internal/telemetry"
)

// tallyObserver counts the runner's events and remembers campaign totals.
type tallyObserver struct {
	muts, cases, reboots int
	campaign             *CampaignEvent
}

func (o *tallyObserver) Observe(e Event) {
	switch ev := e.(type) {
	case *MuTStartEvent:
		o.muts++
	case *CaseEvent:
		o.cases++
	case *RebootEvent:
		o.reboots++
	case *CampaignEvent:
		cp := *ev
		o.campaign = &cp
	}
}

// TestObserverRebootCount: the observer's reboot stream agrees exactly
// with the campaign's own accounting on a crashy OS (Windows 98 reboots
// dozens of times per full campaign in Table 1).
func TestObserverRebootCount(t *testing.T) {
	tally := &tallyObserver{}
	res, err := Run(Win98, WithCap(150), WithObserver(tally))
	if err != nil {
		t.Fatal(err)
	}
	if res.Reboots == 0 {
		t.Fatal("Windows 98 campaign had no reboots; the test needs a crashy OS")
	}
	if tally.reboots != res.Reboots {
		t.Errorf("RebootEvent fired %d times, campaign recorded %d reboots", tally.reboots, res.Reboots)
	}
	if tally.cases != res.CasesRun {
		t.Errorf("CaseEvent fired %d times, campaign ran %d cases", tally.cases, res.CasesRun)
	}
	if tally.muts != len(res.Results) {
		t.Errorf("MuTStartEvent fired %d times, campaign has %d MuT results", tally.muts, len(res.Results))
	}
	if tally.campaign == nil {
		t.Fatal("no CampaignEvent fired")
	}
	if tally.campaign.CasesRun != res.CasesRun || tally.campaign.Reboots != res.Reboots {
		t.Errorf("campaign event %+v disagrees with result (%d cases, %d reboots)",
			tally.campaign, res.CasesRun, res.Reboots)
	}
}

// TestTraceReplay records a campaign trace and replays its Catastrophic
// case records through RunCase — the paper's single-test reproduction
// program, generated from the trace instead of by hand.  Immediate
// pointer crashes must reproduce; accumulated-corruption crashes are the
// paper's non-reproducing "*" entries and are skipped.
func TestTraceReplay(t *testing.T) {
	var buf bytes.Buffer
	tw := telemetry.NewTraceWriter(&buf)
	mut, ok := mutByName(Win98, "GetThreadContext")
	if !ok {
		t.Fatal("GetThreadContext missing from the win98 catalog")
	}
	runner := NewRunner(Win98, WithCap(200), WithObserver(tw))
	if _, err := runner.RunMuT(context.Background(), mut, false); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := telemetry.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replayed := 0
	for _, rec := range recs {
		if rec.Type != "case" || rec.Class != "catastrophic" || rec.Epoch != 0 {
			continue
		}
		if rec.Corruption > 0 {
			continue // delayed-corruption crash: not reproducible in isolation
		}
		replay := NewRunner(Win98, WithIsolation())
		cls, err := replay.RunCase(mut, core.Case(rec.Case), rec.Wide)
		if err != nil {
			t.Fatalf("replaying %v: %v", rec.Case, err)
		}
		if cls != Catastrophic {
			t.Errorf("trace case %v recorded catastrophic, replayed %v", rec.Case, cls)
		}
		replayed++
	}
	if replayed == 0 {
		t.Fatal("trace contained no immediately-reproducible Catastrophic case")
	}
}

// mutByName finds a catalog entry for one OS.
func mutByName(o OS, name string) (catalog.MuT, bool) {
	for _, c := range catalog.MuTsFor(o) {
		if c.Name == name {
			return c, true
		}
	}
	return catalog.MuT{}, false
}
