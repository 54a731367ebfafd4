package ballista_test

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"

	"ballista"
	"ballista/internal/fleet"
	"ballista/internal/report"
	"ballista/internal/telemetry"
	"ballista/internal/telemetry/span"
)

// mutCSV renders the merged campaign report the way the CLI's -csv
// flag does — the deterministic artifact the spans must not perturb.
func mutCSV(t *testing.T, o ballista.OS, res *ballista.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := report.WriteMuTCSV(&buf, map[ballista.OS]*ballista.Result{o: res}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSpansArePureObservation is the flight recorder's determinism
// oracle: a campaign's merged CSV must be byte-identical with spans off
// and spans on (full sink + flight ring), at 1 and 8 workers, and under
// a retryable chaos plan.  A recorder that influenced scheduling, case
// generation or classification would show up here.
func TestSpansArePureObservation(t *testing.T) {
	run := func(workers int, plan *ballista.ChaosPlan, rec *ballista.SpanRecorder) []byte {
		opts := []ballista.Option{ballista.WithCap(chaosSmokeCap)}
		if plan != nil {
			opts = append(opts, ballista.WithChaos(plan))
		}
		if rec != nil {
			opts = append(opts, ballista.WithSpans(rec))
		}
		res, err := ballista.RunFarm(context.Background(), ballista.WinNT,
			ballista.FarmConfig{Workers: workers}, opts...)
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		return mutCSV(t, ballista.WinNT, res)
	}
	for _, tc := range []struct {
		name    string
		workers int
		chaos   bool
	}{
		{"1-worker", 1, false},
		{"8-worker", 8, false},
		{"8-worker-chaos", 8, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var plan *ballista.ChaosPlan
			if tc.chaos {
				plan = smokePlan(t, "disk", 42)
			}
			off := run(tc.workers, plan, nil)
			var sink bytes.Buffer
			rec := ballista.NewSpanRecorder(ballista.SpanOptions{Sink: &sink})
			on := run(tc.workers, plan, rec)
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(off, on) {
				t.Error("merged CSV differs with spans on")
			}
			if rec.Seen() == 0 || sink.Len() == 0 {
				t.Fatal("spans-on run recorded nothing; the oracle tested nothing")
			}
		})
	}
}

// TestFleetSpanTraceLinkage runs a distributed campaign over the HTTP
// loopback and asserts the observability contract end to end: the
// worker's recorder adopts the coordinator's campaign identity as its
// trace ID at join, and a fleet-run case span's parent chain walks
// case -> mut -> unit inside that single trace.
func TestFleetSpanTraceLinkage(t *testing.T) {
	coordRec := span.New(span.Options{})
	coord, err := fleet.New(fleet.Config{
		Spec:  fleet.CampaignSpec{Kind: fleet.KindFarm, OS: "winnt", Cap: 30},
		Spans: coordRec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	workerRec := ballista.NewSpanRecorder(ballista.SpanOptions{Ring: 1 << 16})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	werr := make(chan error, 1)
	go func() {
		werr <- ballista.RunFleetWorker(ctx, ballista.FleetWorkerConfig{
			URL: ts.URL, Name: "span-w", Slots: 2, Spans: workerRec,
		})
	}()
	if _, err := coord.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := <-werr; err != nil && err != context.Canceled {
		t.Fatal(err)
	}

	campaign := coord.ID()
	if got := coordRec.Trace(); got != campaign {
		t.Fatalf("coordinator trace %q, want campaign %q", got, campaign)
	}
	if got := workerRec.Trace(); got != campaign {
		t.Fatalf("worker trace %q did not adopt campaign %q at join", got, campaign)
	}

	// The coordinator's control plane must have recorded the fabric.
	phases := coordRec.PhaseStats()
	for _, phase := range []string{"join", "lease", "upload"} {
		if phases[phase].Count == 0 {
			t.Errorf("coordinator recorded no %q spans", phase)
		}
	}

	// Index the worker ring and walk one case span's ancestry.
	records := workerRec.Last(0)
	byID := make(map[string]span.Record, len(records))
	for _, r := range records {
		byID[r.ID] = r
	}
	linked := 0
	for _, r := range records {
		if r.Phase != "case" {
			continue
		}
		if r.Trace != campaign {
			t.Fatalf("case span %s carries trace %q, want %q", r.ID, r.Trace, campaign)
		}
		mut, ok := byID[r.Parent]
		if !ok || mut.Phase != "mut" {
			continue // parent evicted from the ring or still open at snapshot time
		}
		unit, ok := byID[mut.Parent]
		if !ok || unit.Phase != "unit" {
			continue
		}
		if mut.Trace != campaign || unit.Trace != campaign {
			t.Fatalf("ancestry of case %s leaves the campaign trace", r.ID)
		}
		linked++
	}
	if linked == 0 {
		t.Fatal("no case span's chain linked back through mut and unit to the campaign trace")
	}
}

// TestFleetWorkerTraceRecordsEveryCase: a fleet worker's observer sees
// the cases it executes, as a local campaign's does.  One worker with a
// trace writer works a whole loopback campaign, so its trace must hold
// exactly one "case" record per case the merged report counts.
func TestFleetWorkerTraceRecordsEveryCase(t *testing.T) {
	coord, err := fleet.New(fleet.Config{
		Spec: fleet.CampaignSpec{Kind: fleet.KindFarm, OS: "winnt", Cap: 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	var trace bytes.Buffer
	tw := telemetry.NewTraceWriter(&trace)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	werr := make(chan error, 1)
	go func() {
		werr <- ballista.RunFleetWorker(ctx, ballista.FleetWorkerConfig{
			URL: ts.URL, Name: "trace-w", Slots: 2, Observer: tw,
		})
	}()
	res, err := coord.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := <-werr; err != nil && err != context.Canceled {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	cases := bytes.Count(trace.Bytes(), []byte(`"type":"case"`))
	if res.CasesRun == 0 || cases != res.CasesRun {
		t.Errorf("worker trace holds %d case records, the campaign ran %d cases", cases, res.CasesRun)
	}
}
