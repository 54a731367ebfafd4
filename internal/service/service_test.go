package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"ballista"
	"ballista/internal/core"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(NewServer())
	t.Cleanup(ts.Close)
	return ts
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url string, in, out any) int {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode
}

func TestOSesEndpoint(t *testing.T) {
	ts := testServer(t)
	var names []string
	if code := getJSON(t, ts.URL+"/api/oses", &names); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(names) != 7 {
		t.Errorf("oses = %v", names)
	}
}

func TestMuTsEndpoint(t *testing.T) {
	ts := testServer(t)
	var muts []MuTInfo
	if code := getJSON(t, ts.URL+"/api/muts?os=win98", &muts); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(muts) != 247 { // paper's 237 + the 10 Winsock calls
		t.Errorf("win98 MuTs = %d, want 247", len(muts))
	}
	var bad map[string]string
	if code := getJSON(t, ts.URL+"/api/muts?os=beos", &bad); code != http.StatusBadRequest {
		t.Errorf("unknown os status %d", code)
	}
}

func TestCampaignEndpoint(t *testing.T) {
	ts := testServer(t)
	var resp CampaignResponse
	code := postJSON(t, ts.URL+"/api/campaign",
		CampaignRequest{OS: "winnt", MuT: "ReadFile", Cap: 200}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.Cases == 0 || resp.Abort == 0 {
		t.Errorf("campaign response: %+v", resp)
	}
	if resp.Catastrophic != 0 {
		t.Errorf("NT ReadFile crashed: %+v", resp)
	}
	// Unknown MuT for the OS.
	var errResp map[string]string
	code = postJSON(t, ts.URL+"/api/campaign",
		CampaignRequest{OS: "linux", MuT: "ReadFile"}, &errResp)
	if code != http.StatusNotFound {
		t.Errorf("ReadFile on Linux status %d", code)
	}
}

// TestCaseEndpointListing1: the service reproduces Listing 1 remotely,
// as the paper's testing-service architecture did for its clients.
func TestCaseEndpointListing1(t *testing.T) {
	ts := testServer(t)
	idxHandle, idxNull := listing1Indices(t)
	for _, tt := range []struct {
		os   string
		want string
	}{
		{"win95", "catastrophic"},
		{"win98", "catastrophic"},
		{"wince", "catastrophic"},
		{"winnt", "abort"},
		{"win2000", "abort"},
	} {
		var resp CaseResponse
		code := postJSON(t, ts.URL+"/api/case",
			CaseRequest{OS: tt.os, MuT: "GetThreadContext", Case: []int{idxHandle, idxNull}}, &resp)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d", tt.os, code)
		}
		if resp.Class != tt.want {
			t.Errorf("%s: class %q, want %q", tt.os, resp.Class, tt.want)
		}
	}
	// Arity validation.
	var errResp map[string]string
	code := postJSON(t, ts.URL+"/api/case",
		CaseRequest{OS: "win98", MuT: "GetThreadContext", Case: []int{0}}, &errResp)
	if code != http.StatusBadRequest {
		t.Errorf("bad arity status %d", code)
	}
}

func TestSummaryEndpoint(t *testing.T) {
	ts := testServer(t)
	var resp SummaryResponse
	code := getJSON(t, ts.URL+"/api/summary?os=win98&cap=60", &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.SysTested != 153 || resp.CLibTested != 94 { // 143 + 10 Winsock
		t.Errorf("summary census: %+v", resp)
	}
	if resp.TotalCatastrophic == 0 {
		t.Error("Windows 98 summary shows no Catastrophic MuTs")
	}
}

// listing1Indices finds the pool indices for the Listing 1 case.
func listing1Indices(t *testing.T) (handleIdx, nullIdx int) {
	t.Helper()
	reg := registryForTest()
	find := func(typeName, valueName string) int {
		dt, ok := reg.Lookup(typeName)
		if !ok {
			t.Fatalf("type %s missing", typeName)
		}
		for i, v := range dt.Values {
			if v.Name == valueName {
				return i
			}
		}
		t.Fatalf("value %s/%s missing", typeName, valueName)
		return -1
	}
	return find("HTHREAD", "PSEUDO_THREAD"), find("LPCONTEXT", "NULL")
}

func registryForTest() *core.Registry { return ballista.Registry() }

// TestHandlerErrors walks every 4xx path the service can produce and
// checks both the status code and that the error body is well-formed
// JSON with an "error" key.
func TestHandlerErrors(t *testing.T) {
	ts := testServer(t)
	for _, tt := range []struct {
		name   string
		method string
		path   string
		body   string
		want   int
	}{
		{"campaign bad JSON", "POST", "/api/campaign", `{"os":`, http.StatusBadRequest},
		{"campaign unknown os", "POST", "/api/campaign", `{"os":"beos","mut":"ReadFile"}`, http.StatusBadRequest},
		{"campaign unknown mut", "POST", "/api/campaign", `{"os":"win98","mut":"NtQuarks"}`, http.StatusNotFound},
		{"case bad JSON", "POST", "/api/case", `not json`, http.StatusBadRequest},
		{"case unknown os", "POST", "/api/case", `{"os":"os2","mut":"ReadFile","case":[0]}`, http.StatusBadRequest},
		{"case unknown mut", "POST", "/api/case", `{"os":"win98","mut":"NtQuarks","case":[0]}`, http.StatusNotFound},
		{"case arity mismatch", "POST", "/api/case", `{"os":"win98","mut":"GetThreadContext","case":[0]}`, http.StatusBadRequest},
		{"muts missing os", "GET", "/api/muts", "", http.StatusBadRequest},
		{"muts unknown os", "GET", "/api/muts?os=solaris", "", http.StatusBadRequest},
		{"summary unknown os", "GET", "/api/summary?os=beos", "", http.StatusBadRequest},
		{"summary bad cap", "GET", "/api/summary?os=win98&cap=zero", "", http.StatusBadRequest},
		{"summary negative cap", "GET", "/api/summary?os=win98&cap=-5", "", http.StatusBadRequest},
		{"events bad n", "GET", "/api/events?n=plenty", "", http.StatusBadRequest},
		{"events negative n", "GET", "/api/events?n=-1", "", http.StatusBadRequest},
	} {
		t.Run(tt.name, func(t *testing.T) {
			var resp *http.Response
			var err error
			switch tt.method {
			case "GET":
				resp, err = http.Get(ts.URL + tt.path)
			default:
				resp, err = http.Post(ts.URL+tt.path, "application/json", strings.NewReader(tt.body))
			}
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tt.want {
				t.Fatalf("status %d, want %d", resp.StatusCode, tt.want)
			}
			var body map[string]string
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatalf("error body is not JSON: %v", err)
			}
			if body["error"] == "" {
				t.Errorf("error body %v has no error key", body)
			}
		})
	}
}

func TestEventsEndpoint(t *testing.T) {
	ts := testServer(t)
	idxHandle, idxNull := listing1Indices(t)
	var caseResp CaseResponse
	if code := postJSON(t, ts.URL+"/api/case",
		CaseRequest{OS: "winnt", MuT: "GetThreadContext", Case: []int{idxHandle, idxNull}}, &caseResp); code != http.StatusOK {
		t.Fatalf("case status %d", code)
	}
	var ev EventsResponse
	if code := getJSON(t, ts.URL+"/api/events?n=10", &ev); code != http.StatusOK {
		t.Fatalf("events status %d", code)
	}
	if ev.Seen == 0 || len(ev.Events) == 0 {
		t.Fatalf("events after a case run: %+v", ev)
	}
	last := ev.Events[len(ev.Events)-1]
	if last.Type != "case" || last.OS != "winnt" || last.MuT != "GetThreadContext" {
		t.Errorf("last event = %+v", last)
	}
	if last.Class != caseResp.Class {
		t.Errorf("event class %q, case response class %q", last.Class, caseResp.Class)
	}
	// The ring starts empty on a fresh server.
	fresh := testServer(t)
	if code := getJSON(t, fresh.URL+"/api/events", &ev); code != http.StatusOK {
		t.Fatalf("fresh events status %d", code)
	}
	if ev.Seen != 0 || len(ev.Events) != 0 {
		t.Errorf("fresh server events: %+v", ev)
	}
}

// promLine matches the Prometheus text exposition format's sample lines:
// metric_name{label="v",...} value
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (?:[-+]?[0-9.eE+-]+|NaN|\+Inf)$`)

func TestMetricsEndpoint(t *testing.T) {
	ts := testServer(t)
	var resp CampaignResponse
	if code := postJSON(t, ts.URL+"/api/campaign",
		CampaignRequest{OS: "winnt", MuT: "ReadFile", Cap: 120}, &resp); code != http.StatusOK {
		t.Fatalf("campaign status %d", code)
	}
	httpResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", httpResp.StatusCode)
	}
	if ct := httpResp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(httpResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)

	// Every non-comment, non-blank line must parse as a Prometheus sample.
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("unparseable metrics line: %q", line)
		}
	}

	// Per-class case counters from the campaign.
	for _, class := range []string{"clean", "error-return", "abort"} {
		want := "ballista_cases_total{class=\"" + class + "\"}"
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %s", want)
		}
	}
	// Kernel gauges (the acceptance floor is three).
	for _, gauge := range []string{
		"ballista_kernel_corruption_level",
		"ballista_kernel_live_handles",
		"ballista_kernel_mapped_pages",
		"ballista_kernel_epoch",
		"ballista_kernel_heap_blocks",
	} {
		if !strings.Contains(text, gauge+"{os=\"winnt\"}") {
			t.Errorf("metrics missing kernel gauge %s", gauge)
		}
	}
	// The middleware counted the campaign POST.
	if !strings.Contains(text, `ballista_http_requests_total{method="POST",path="/api/campaign",status="200"}`) {
		t.Error("metrics missing http request counter for the campaign POST")
	}
	if !strings.Contains(text, "ballista_http_request_duration_seconds_bucket") {
		t.Error("metrics missing http latency histogram")
	}
}

// TestCaseReplayFromEvents closes the observability loop the ISSUE asks
// for: a Catastrophic case recorded during a campaign replays to
// Catastrophic through POST /api/case, using the trace record's own
// {os, mut, case, wide} fields as the request.
func TestCaseReplayFromEvents(t *testing.T) {
	ts := testServer(t)
	var camp CampaignResponse
	if code := postJSON(t, ts.URL+"/api/campaign",
		CampaignRequest{OS: "win98", MuT: "GetThreadContext", Cap: 200}, &camp); code != http.StatusOK {
		t.Fatalf("campaign status %d", code)
	}
	if camp.Catastrophic == 0 {
		t.Fatal("win98 GetThreadContext campaign produced no Catastrophic case")
	}
	var ev EventsResponse
	if code := getJSON(t, ts.URL+"/api/events?n=1000", &ev); code != http.StatusOK {
		t.Fatalf("events status %d", code)
	}
	var replayed bool
	for _, rec := range ev.Events {
		// Immediate pointer crashes reproduce in isolation; accumulated-
		// corruption crashes are exactly the paper's non-reproducing "*"
		// cases, so skip them.
		if rec.Type != "case" || rec.Class != "catastrophic" ||
			!strings.Contains(rec.CrashReason, "invalid pointer") {
			continue
		}
		var resp CaseResponse
		if code := postJSON(t, ts.URL+"/api/case",
			CaseRequest{OS: rec.OS, MuT: rec.MuT, Case: rec.Case, Wide: rec.Wide}, &resp); code != http.StatusOK {
			t.Fatalf("replay status %d", code)
		}
		if resp.Class != "catastrophic" {
			t.Errorf("replay of %s%v on %s = %q, want catastrophic", rec.MuT, rec.Case, rec.OS, resp.Class)
		}
		replayed = true
		break
	}
	if !replayed {
		t.Fatal("no immediate-crash Catastrophic case record found to replay")
	}
}

func TestExploreEndpoint(t *testing.T) {
	ts := testServer(t)

	var rep ballista.ExploreReport
	status := postJSON(t, ts.URL+"/api/explore", ExploreRequest{
		OS: "win98", Seed: 1, Chains: 60, Workers: 2,
	}, &rep)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if rep.Executed != 60 {
		t.Errorf("executed %d, requested 60", rep.Executed)
	}
	if rep.CorpusSize == 0 {
		t.Error("no corpus growth")
	}
	if len(rep.Divergences) == 0 {
		t.Error("no divergences reported")
	}

	// The campaign's chain events must be visible on the ring and in the
	// metrics registry.
	var evs EventsResponse
	if status := getJSON(t, ts.URL+"/api/events?n=2000", &evs); status != http.StatusOK {
		t.Fatalf("events status %d", status)
	}
	chains := 0
	for _, rec := range evs.Events {
		if rec.Type == "chain" {
			chains++
			if len(rec.Steps) == 0 {
				t.Error("chain event without steps")
			}
		}
	}
	if chains == 0 {
		t.Error("no chain events on the ring")
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "ballista_explore_chains_total 60") {
		t.Error("explore chain counter missing from /metrics")
	}

	// Same seed again: the report must be identical (the second run adds
	// another 60 chains to the counters, but the report body matches).
	var rep2 ballista.ExploreReport
	postJSON(t, ts.URL+"/api/explore", ExploreRequest{
		OS: "win98", Seed: 1, Chains: 60, Workers: 7,
	}, &rep2)
	b1, _ := json.Marshal(rep)
	b2, _ := json.Marshal(rep2)
	if !bytes.Equal(b1, b2) {
		t.Error("same-seed explore reports differ across requests/worker counts")
	}
}

func TestExploreEndpointErrors(t *testing.T) {
	ts := testServer(t)
	var out map[string]any
	if status := postJSON(t, ts.URL+"/api/explore", ExploreRequest{OS: "beos"}, &out); status != http.StatusBadRequest {
		t.Errorf("unknown os: status %d", status)
	}
	if status := postJSON(t, ts.URL+"/api/explore", ExploreRequest{OSes: []string{"win98", "beos"}}, &out); status != http.StatusBadRequest {
		t.Errorf("unknown oracle os: status %d", status)
	}
	if status := postJSON(t, ts.URL+"/api/explore", ExploreRequest{Chains: MaxExploreChains + 1}, &out); status != http.StatusBadRequest {
		t.Errorf("over-budget: status %d", status)
	}
	if status := postJSON(t, ts.URL+"/api/explore", ExploreRequest{MuTs: []string{"no_such"}}, &out); status != http.StatusBadRequest {
		t.Errorf("unknown mut: status %d", status)
	}
}

// TestSweepEventsEndpoint: crash and scarcity sweeps run through the
// service land in /api/events as one "crash" record per workload and one
// "scarce" record per item, like every other engine's events.
func TestSweepEventsEndpoint(t *testing.T) {
	ts := testServer(t)
	var crash ballista.CrashReport
	if code := postJSON(t, ts.URL+"/api/crashcheck",
		CrashcheckRequest{OSes: []string{"winnt", "linux"}, Seed: 7, MaxOps: 1}, &crash); code != http.StatusOK {
		t.Fatalf("crashcheck status %d", code)
	}
	var scarce ballista.ScarceReport
	if code := postJSON(t, ts.URL+"/api/scarcecheck",
		ScarcecheckRequest{OSes: []string{"winnt"}, Envs: []string{"handle-full"}, Seed: 7, Budget: 3}, &scarce); code != http.StatusOK {
		t.Fatalf("scarcecheck status %d", code)
	}
	var ev EventsResponse
	if code := getJSON(t, ts.URL+"/api/events?n=4096", &ev); code != http.StatusOK {
		t.Fatalf("events status %d", code)
	}
	kinds := map[string]int{}
	for _, rec := range ev.Events {
		kinds[rec.Type]++
	}
	if kinds["crash"] != crash.Workloads || crash.Workloads == 0 {
		t.Errorf("/api/events holds %d crash records, sweep evaluated %d workloads", kinds["crash"], crash.Workloads)
	}
	if kinds["scarce"] != scarce.Items || scarce.Items == 0 {
		t.Errorf("/api/events holds %d scarce records, sweep evaluated %d items", kinds["scarce"], scarce.Items)
	}
	if want := uint64(crash.Workloads + scarce.Items); ev.Seen != want {
		t.Errorf("ring saw %d events, want %d", ev.Seen, want)
	}
}
