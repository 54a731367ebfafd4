package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ballista"
	"ballista/internal/fleet"
	"ballista/internal/telemetry/span"
)

// queueServer builds a server whose queue is actually shut down at test
// end (the leak checker would flag a lingering dispatcher otherwise).
func queueServer(t *testing.T, opts ...ServerOption) (*Server, *httptest.Server) {
	t.Helper()
	svc := NewServer(opts...)
	ts := httptest.NewServer(svc)
	t.Cleanup(func() {
		if err := svc.Close(); err != nil {
			t.Errorf("closing server: %v", err)
		}
		ts.Close()
	})
	return svc, ts
}

// postRaw is postJSON when the test needs the response headers too.
func postRaw(t *testing.T, url string, in any) *http.Response {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// waitTerminal polls one campaign until it leaves the queue/running
// states.
func waitTerminal(t *testing.T, base, id string) CampaignDetail {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var d CampaignDetail
		if code := getJSON(t, base+"/api/campaigns/"+id, &d); code != http.StatusOK {
			t.Fatalf("campaign %s: status %d", id, code)
		}
		switch d.State {
		case StateDone, StateFailed, StateCanceled:
			return d
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("campaign %s did not finish", id)
	return CampaignDetail{}
}

// readSSE consumes a campaign's event stream until the server closes it
// at the terminal state.
func readSSE(t *testing.T, url string) []queueEvent {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}
	var evs []queueEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var ev queueEvent
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				t.Fatalf("bad SSE data %q: %v", data, err)
			}
			evs = append(evs, ev)
		}
	}
	if err := sc.Err(); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	return evs
}

// TestQueuePriorityOrderUnit pins the scheduling rule without timing:
// highest priority first, submission order within a priority, bounded by
// the executor count.
func TestQueuePriorityOrderUnit(t *testing.T) {
	q := newQueue(1, 4)
	mk := func(pri int) *campaign {
		c := &campaign{
			seq: q.seq, id: fmt.Sprintf("c%06d", q.seq),
			priority: pri, state: StateQueued, events: newEventLog(),
		}
		q.seq++
		q.all = append(q.all, c)
		q.byID[c.id] = c
		return c
	}
	low := mk(1)
	highA := mk(9)
	highB := mk(9)

	if got := q.nextRunnableLocked(); got != highA {
		t.Fatalf("next = %v, want first-submitted high-priority %s", got, highA.id)
	}
	highA.state = StateRunning
	q.running++
	if got := q.nextRunnableLocked(); got != nil {
		t.Fatalf("executor slot busy but next = %s", got.id)
	}
	q.running--
	highA.state = StateDone
	if got := q.nextRunnableLocked(); got != highB {
		t.Fatalf("next = %v, want FIFO peer %s", got, highB.id)
	}
	highB.state = StateDone
	if got := q.nextRunnableLocked(); got != low {
		t.Fatalf("next = %v, want %s", got, low.id)
	}
}

// TestQueueSubmitValidation covers the submit-side error surface.
func TestQueueSubmitValidation(t *testing.T) {
	_, ts := queueServer(t)
	cases := []struct {
		name string
		req  QueueSubmitRequest
		code int
	}{
		{"unknown os", QueueSubmitRequest{CampaignRequest: CampaignRequest{OS: "beos"}}, http.StatusBadRequest},
		{"unknown mut", QueueSubmitRequest{CampaignRequest: CampaignRequest{OS: "win98", MuT: "NtQuarks"}}, http.StatusNotFound},
		{"bad workers", QueueSubmitRequest{CampaignRequest: CampaignRequest{OS: "win98", Workers: -1}}, http.StatusBadRequest},
		{"bad engine", QueueSubmitRequest{CampaignRequest: CampaignRequest{OS: "win98"}, Engine: "mainframe"}, http.StatusBadRequest},
		{"bad chaos", QueueSubmitRequest{CampaignRequest: CampaignRequest{OS: "win98", Chaos: &ChaosSpec{Preset: "nope", Seed: 1}}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		var errResp map[string]string
		if code := postJSON(t, ts.URL+"/api/campaigns", tc.req, &errResp); code != tc.code {
			t.Errorf("%s: status %d, want %d", tc.name, code, tc.code)
		}
	}
	if code := getJSON(t, ts.URL+"/api/campaigns/c999999", new(map[string]string)); code != http.StatusNotFound {
		t.Errorf("unknown campaign: status %d, want 404", code)
	}
}

// TestQueuedCampaignLifecycle drives one campaign from submission to
// artifacts: 202 with an id, SSE stream showing queued -> running ->
// shard progress -> done, then history, detail and CSV endpoints.
func TestQueuedCampaignLifecycle(t *testing.T) {
	_, ts := queueServer(t)
	var ack QueueSubmitResponse
	code := postJSON(t, ts.URL+"/api/campaigns", QueueSubmitRequest{
		CampaignRequest: CampaignRequest{OS: "winnt", MuT: "*", Cap: 40, Workers: 2},
		Tenant:          "acme", Priority: 3,
	}, &ack)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	if ack.ID == "" || ack.State != StateQueued {
		t.Fatalf("ack = %+v", ack)
	}

	evs := readSSE(t, ts.URL+"/api/campaigns/"+ack.ID+"/events")
	var states []string
	shards := 0
	for _, ev := range evs {
		switch ev.Kind {
		case "state":
			states = append(states, ev.State)
		case "shard":
			shards++
			if ev.MuT == "" || ev.Cases <= 0 {
				t.Errorf("shard event missing detail: %+v", ev)
			}
		}
	}
	want := []string{StateQueued, StateRunning, StateDone}
	if len(states) != len(want) {
		t.Fatalf("state transitions %v, want %v", states, want)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("state transitions %v, want %v", states, want)
		}
	}
	if shards == 0 {
		t.Error("no shard progress events on the SSE stream")
	}
	if last := evs[len(evs)-1]; last.Kind != "done" || last.State != StateDone {
		t.Errorf("last event = %+v, want terminal done", last)
	}

	d := waitTerminal(t, ts.URL, ack.ID)
	if d.Tenant != "acme" || d.Priority != 3 || d.Result == nil {
		t.Fatalf("detail = %+v", d)
	}
	if d.Result.CasesRun == 0 || len(d.Result.Results) == 0 {
		t.Fatalf("result = %+v", d.Result)
	}
	if d.Started == nil || d.Finished == nil || d.Finished.Before(*d.Started) {
		t.Errorf("timestamps: started=%v finished=%v", d.Started, d.Finished)
	}

	var list []CampaignSummary
	if code := getJSON(t, ts.URL+"/api/campaigns?tenant=acme&state=done", &list); code != http.StatusOK {
		t.Fatalf("list status %d", code)
	}
	if len(list) != 1 || list[0].ID != ack.ID {
		t.Fatalf("list = %+v", list)
	}

	resp, err := http.Get(ts.URL + "/api/campaigns/" + ack.ID + "/csv")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	csv, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "text/csv" {
		t.Fatalf("csv status %d, type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if !strings.HasPrefix(string(csv), "os,api,group,mut,") {
		t.Errorf("csv starts %q", string(csv[:min(len(csv), 40)]))
	}
}

// TestQueuePriorityAcrossTenants is the acceptance scenario: with one
// executor busy, a later high-priority submission from one tenant runs
// before an earlier low-priority one from another.
func TestQueuePriorityAcrossTenants(t *testing.T) {
	_, ts := queueServer(t, WithQueueExecutors(1))
	submit := func(tenant string, priority, cap int) string {
		var ack QueueSubmitResponse
		code := postJSON(t, ts.URL+"/api/campaigns", QueueSubmitRequest{
			CampaignRequest: CampaignRequest{OS: "winnt", MuT: "*", Cap: cap, Workers: 2},
			Tenant:          tenant, Priority: priority,
		}, &ack)
		if code != http.StatusAccepted {
			t.Fatalf("submit(%s): status %d", tenant, code)
		}
		return ack.ID
	}
	// The blocker occupies the only executor slot while the two
	// contenders are queued behind it.
	blocker := submit("ops", 5, 120)
	lowID := submit("alice", 1, 30)
	highID := submit("bob", 8, 30)

	waitTerminal(t, ts.URL, blocker)
	low := waitTerminal(t, ts.URL, lowID)
	high := waitTerminal(t, ts.URL, highID)
	if low.State != StateDone || high.State != StateDone {
		t.Fatalf("low=%s high=%s, want both done", low.State, high.State)
	}
	if high.Started == nil || low.Started == nil {
		t.Fatal("missing start timestamps")
	}
	if high.Started.After(*low.Started) {
		t.Errorf("priority inversion: bob (priority 8, started %v) ran after alice (priority 1, started %v)",
			high.Started, low.Started)
	}
}

// TestQueueTenantQuota verifies the per-tenant admission bound: the
// tenant at quota sheds with 429 + Retry-After while other tenants stay
// admitted.
func TestQueueTenantQuota(t *testing.T) {
	_, ts := queueServer(t, WithTenantQuota(1), WithQueueExecutors(1))
	var ack QueueSubmitResponse
	if code := postJSON(t, ts.URL+"/api/campaigns", QueueSubmitRequest{
		CampaignRequest: CampaignRequest{OS: "winnt", MuT: "*", Cap: 150, Workers: 2},
		Tenant:          "t",
	}, &ack); code != http.StatusAccepted {
		t.Fatalf("first submit status %d", code)
	}

	resp := postRaw(t, ts.URL+"/api/campaigns", QueueSubmitRequest{
		CampaignRequest: CampaignRequest{OS: "win98", MuT: "*", Cap: 30},
		Tenant:          "t",
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}

	var ack2 QueueSubmitResponse
	if code := postJSON(t, ts.URL+"/api/campaigns", QueueSubmitRequest{
		CampaignRequest: CampaignRequest{OS: "win98", MuT: "*", Cap: 30},
		Tenant:          "u",
	}, &ack2); code != http.StatusAccepted {
		t.Fatalf("other tenant status %d, want 202", code)
	}

	var status StatusResponse
	if code := getJSON(t, ts.URL+"/api/status", &status); code != http.StatusOK {
		t.Fatalf("status endpoint: %d", code)
	}
	if status.Queue.Rejected != 1 || status.Queue.Submitted != 2 {
		t.Errorf("queue counters = %+v", status.Queue)
	}
	waitTerminal(t, ts.URL, ack.ID)
	waitTerminal(t, ts.URL, ack2.ID)
}

// TestQueueJournalResume is the journal-before-acknowledge contract end
// to end: a completed campaign's history and artifacts survive a server
// restart byte for byte, and an acknowledged-but-unfinished submission
// re-enqueues and completes on the restarted server.
func TestQueueJournalResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.jsonl")

	qj, err := OpenQueueJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	svc := NewServer(WithQueueJournal(qj))
	ts := httptest.NewServer(svc)
	var ack QueueSubmitResponse
	if code := postJSON(t, ts.URL+"/api/campaigns", QueueSubmitRequest{
		CampaignRequest: CampaignRequest{OS: "win98", MuT: "ReadFile", Cap: 80},
		Tenant:          "acme", Priority: 2,
	}, &ack); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	first := waitTerminal(t, ts.URL, ack.ID)
	if first.State != StateDone {
		t.Fatalf("campaign state %s: %s", first.State, first.Error)
	}
	resp, err := http.Get(ts.URL + "/api/campaigns/" + ack.ID + "/csv")
	if err != nil {
		t.Fatal(err)
	}
	firstCSV, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	ts.Close()

	// Restart: history, result and CSV must come back from the journal.
	qj2, err := OpenQueueJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	svc2 := NewServer(WithQueueJournal(qj2))
	ts2 := httptest.NewServer(svc2)
	t.Cleanup(func() {
		svc2.Close()
		ts2.Close()
	})
	var d CampaignDetail
	if code := getJSON(t, ts2.URL+"/api/campaigns/"+ack.ID, &d); code != http.StatusOK {
		t.Fatalf("restarted detail status %d", code)
	}
	if d.State != StateDone || d.Tenant != "acme" || d.Priority != 2 || d.Result == nil {
		t.Fatalf("restarted detail = %+v", d)
	}
	if d.Result.CasesRun != first.Result.CasesRun {
		t.Errorf("restored cases_run %d, want %d", d.Result.CasesRun, first.Result.CasesRun)
	}
	resp2, err := http.Get(ts2.URL + "/api/campaigns/" + ack.ID + "/csv")
	if err != nil {
		t.Fatal(err)
	}
	secondCSV, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if string(firstCSV) != string(secondCSV) {
		t.Error("restored CSV artifact differs from the original")
	}

	// An unfinished submission (journaled, never terminal) re-enqueues
	// and runs to completion on the next server.
	pending := filepath.Join(t.TempDir(), "pending.jsonl")
	qj3, err := OpenQueueJournal(pending)
	if err != nil {
		t.Fatal(err)
	}
	if err := qj3.append(queueRecord{
		Op: "submit", Seq: 0, ID: "c000000", Tenant: "acme",
		Req: &CampaignRequest{OS: "win98", MuT: "ReadFile", Cap: 40},
		At: time.Now(),
	}); err != nil {
		t.Fatal(err)
	}
	if err := qj3.Close(); err != nil {
		t.Fatal(err)
	}
	qj4, err := OpenQueueJournal(pending)
	if err != nil {
		t.Fatal(err)
	}
	svc3 := NewServer(WithQueueJournal(qj4))
	ts3 := httptest.NewServer(svc3)
	t.Cleanup(func() {
		svc3.Close()
		ts3.Close()
	})
	resumed := waitTerminal(t, ts3.URL, "c000000")
	if resumed.State != StateDone || resumed.Result == nil {
		t.Fatalf("resumed campaign = %+v (err %q)", resumed.CampaignSummary, resumed.Error)
	}
}

// TestStatusEndpoint checks the server identity surface: a code-version
// stamp, queue health, and store counters when a store is attached.
func TestStatusEndpoint(t *testing.T) {
	st, err := ballista.OpenStore(ballista.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := queueServer(t, WithStore(st))
	var status StatusResponse
	if code := getJSON(t, ts.URL+"/api/status", &status); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if status.Version == "" {
		t.Error("no code-version stamp")
	}
	if status.Store == nil {
		t.Error("store attached but /api/status has no store section")
	}
	if status.Queue.TenantQuota != DefaultTenantQuota || status.Queue.Executors != 1 {
		t.Errorf("queue defaults = %+v", status.Queue)
	}
}

// TestFleetConflictIncludesActiveCampaign: the 409 for a second fleet
// campaign names the campaign holding the slot and sets Retry-After.
func TestFleetConflictIncludesActiveCampaign(t *testing.T) {
	svc, ts := queueServer(t)
	coord, err := fleet.New(fleet.Config{
		Spec: fleet.CampaignSpec{Kind: fleet.KindFarm, OS: "winnt", Cap: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	svc.fleetMu.Lock()
	svc.fleetCoord = coord
	svc.fleetMu.Unlock()
	defer func() {
		svc.fleetMu.Lock()
		svc.fleetCoord = nil
		svc.fleetMu.Unlock()
	}()

	resp := postRaw(t, ts.URL+"/api/fleet/campaign", FleetCampaignRequest{OS: "winnt", Cap: 50})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status %d, want 409", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != fmt.Sprint(DefaultRetryAfter) {
		t.Errorf("Retry-After = %q, want %d", got, DefaultRetryAfter)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["active_campaign"] != coord.ID() {
		t.Errorf("active_campaign = %q, want %q", body["active_campaign"], coord.ID())
	}
	if body["error"] == "" {
		t.Error("409 body lost its error message")
	}
}

// TestSpansLimitAndPhaseFilters covers the ?limit= and ?phase= query
// parameters on GET /api/spans.
func TestSpansLimitAndPhaseFilters(t *testing.T) {
	rec := span.New(span.Options{})
	_, ts := queueServer(t, WithSpanRecorder(rec))
	var resp CampaignResponse
	if code := postJSON(t, ts.URL+"/api/campaign",
		CampaignRequest{OS: "win98", MuT: "ReadFile", Cap: 60}, &resp); code != http.StatusOK {
		t.Fatalf("campaign status %d", code)
	}

	var all SpansResponse
	if code := getJSON(t, ts.URL+"/api/spans", &all); code != http.StatusOK {
		t.Fatalf("spans status %d", code)
	}
	if len(all.Spans) < 2 {
		t.Fatalf("campaign recorded %d spans", len(all.Spans))
	}

	var limited SpansResponse
	if code := getJSON(t, ts.URL+"/api/spans?limit=1", &limited); code != http.StatusOK {
		t.Fatalf("limit status %d", code)
	}
	if len(limited.Spans) != 1 {
		t.Errorf("limit=1 returned %d spans", len(limited.Spans))
	}
	if limited.Spans[0] != all.Spans[len(all.Spans)-1] {
		t.Error("limit=1 did not return the most recent span")
	}

	var muts SpansResponse
	if code := getJSON(t, ts.URL+"/api/spans?phase=mut", &muts); code != http.StatusOK {
		t.Fatalf("phase status %d", code)
	}
	if len(muts.Spans) == 0 {
		t.Fatal("phase=mut matched nothing")
	}
	for _, sp := range muts.Spans {
		if sp.Phase != "mut" {
			t.Errorf("phase filter leaked span %+v", sp)
		}
	}

	var errResp map[string]string
	if code := getJSON(t, ts.URL+"/api/spans?limit=bogus", &errResp); code != http.StatusBadRequest {
		t.Errorf("bad limit: status %d, want 400", code)
	}
}
