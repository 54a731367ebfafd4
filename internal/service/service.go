// Package service exposes the Ballista harness the way the paper's §2
// describes the original: "publicly available as an Internet-based
// testing service involving a central testing server and a portable
// testing client".  The server owns the campaign machinery; clients
// submit a Module under Test (or a single identified test case — the
// paper's single-test reproduction programs) and receive the CRASH
// classification over HTTP.
//
// Endpoints:
//
//	GET  /api/oses                      the seven systems under test
//	GET  /api/muts?os=<name>            the MuT catalog for one OS
//	POST /api/campaign                  run one MuT's capped campaign
//	                                    (mut "*": full catalog, farmed
//	                                    across parallel workers)
//	POST /api/crashcheck                run a bounded crash-consistency
//	                                    sweep across the OS profiles
//	POST /api/scarcecheck               run a bounded resource-scarcity
//	                                    sweep across the OS profiles
//	POST /api/hinder                    run the Hindering-failure oracle
//	                                    for one OS
//	POST /api/case                      run one identified test case
//	GET  /api/summary?os=<name>&cap=N&workers=W   Table 1 row for one OS
//	GET  /api/events?n=K                most recent K trace events
//	GET  /api/spans?n=K                 most recent K flight-recorder spans
//	GET  /metrics                       Prometheus text exposition
//	POST /api/fleet/campaign            coordinate a distributed campaign
//	                                    (ballista -join workers execute it)
//	GET  /api/fleet/status              active fleet campaign progress
//	ANY  /fleet/v1/...                  worker fabric (see internal/fleet)
//
// Campaigns honor the request context: a client that disconnects — or a
// server drain that cancels base contexts — stops the campaign at the
// next test-case boundary instead of grinding to the cap.
//
// The server degrades gracefully under pressure: heavy requests
// (campaigns, fuzzing runs, summaries) are capped at a fixed in-flight
// count, excess load is shed with 429 + Retry-After, and an optional
// per-request timeout bounds how long one campaign can hold a slot.
// Campaign requests may carry a "chaos" block selecting a seeded
// environmental-fault plan (see internal/chaos); injection counters
// surface at /metrics as ballista_chaos_*.
//
// Every campaign the server runs is observed: per-case trace events
// land in an in-memory ring (and any attached trace writer), and the
// metrics registry accumulates CRASH-class counters, latency histograms
// and sim-kernel gauges.  All requests pass through counting/latency
// middleware feeding the same registry.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"ballista"
	"ballista/internal/catalog"
	"ballista/internal/chaos"
	"ballista/internal/core"
	"ballista/internal/fleet"
	"ballista/internal/osprofile"
	"ballista/internal/report"
	"ballista/internal/store"
	"ballista/internal/telemetry"
	"ballista/internal/telemetry/span"
)

// CampaignRequest asks the server to test one MuT — or, with MuT "*",
// the OS's full catalog, sharded across a farm of parallel workers.
type CampaignRequest struct {
	OS       string `json:"os"`
	MuT      string `json:"mut"`
	Wide     bool   `json:"wide,omitempty"`
	Cap      int    `json:"cap,omitempty"`
	Isolated bool   `json:"isolated,omitempty"`
	// Workers sizes the farm for full-catalog ("*") campaigns; 0 means
	// one worker per CPU.  Ignored for single-MuT requests.
	Workers int `json:"workers,omitempty"`
	// Chaos, when present, runs the campaign under a seeded
	// environmental-fault plan (see internal/chaos).
	Chaos *ChaosSpec `json:"chaos,omitempty"`
}

// ChaosSpec selects a fault plan for one campaign request: either a
// named preset ("disk", "mem", "hang", "harness", "all") with a seed, or
// explicit rules.  CaseDeadlineMS arms the per-case watchdog; plans with
// kern.wedge rules need it (wedge points stay disarmed without one).
type ChaosSpec struct {
	Preset         string       `json:"preset,omitempty"`
	Seed           uint64       `json:"seed,omitempty"`
	Rules          []chaos.Rule `json:"rules,omitempty"`
	CaseDeadlineMS int          `json:"case_deadline_ms,omitempty"`
}

// plan resolves the spec into a validated chaos plan.
func (cs *ChaosSpec) plan() (*chaos.Plan, error) {
	if cs.Preset != "" {
		if len(cs.Rules) > 0 {
			return nil, errors.New("chaos: preset and rules are mutually exclusive")
		}
		return chaos.Preset(cs.Preset, cs.Seed)
	}
	p := &chaos.Plan{Seed: cs.Seed, Rules: cs.Rules}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// CampaignResponse carries one MuT's campaign outcome.
type CampaignResponse struct {
	OS           string  `json:"os"`
	MuT          string  `json:"mut"`
	Group        string  `json:"group"`
	Cases        int     `json:"cases"`
	Clean        int     `json:"clean"`
	ErrorReturn  int     `json:"error_return"`
	Abort        int     `json:"abort"`
	Restart      int     `json:"restart"`
	Catastrophic int     `json:"catastrophic"`
	Skip         int     `json:"skip"`
	AbortRate    float64 `json:"abort_rate"`
	RestartRate  float64 `json:"restart_rate"`
	Incomplete   bool    `json:"incomplete"`
}

// FarmCampaignResponse summarizes a full-catalog parallel campaign: the
// merged (deterministic, catalog-ordered) per-MuT rows plus farm-level
// totals.
type FarmCampaignResponse struct {
	OS           string             `json:"os"`
	Workers      int                `json:"workers"`
	MuTs         int                `json:"muts"`
	CasesRun     int                `json:"cases_run"`
	Reboots      int                `json:"reboots"`
	Catastrophic []string           `json:"catastrophic,omitempty"`
	Results      []CampaignResponse `json:"results"`
}

// FleetCampaignRequest asks the server to coordinate one distributed
// full-catalog campaign: the server becomes the fleet coordinator
// (leases at /fleet/v1/) and the request blocks until `ballista -join`
// workers drain the shard catalog.  One fleet campaign runs at a time;
// a second request is rejected with 409 while the first is active.
// Journalled resume is a CLI-coordinator feature (-serve-fleet
// -checkpoint); the service keeps its fleet campaigns in memory.
type FleetCampaignRequest struct {
	OS  string `json:"os"`
	Cap int    `json:"cap,omitempty"`
	// Chaos arms the campaign spec's fault plan: workers inherit it and
	// run their shards under it.  Absent, the server's default fleet
	// plan (WithFleetChaos) applies.
	Chaos *ChaosSpec `json:"chaos,omitempty"`
	// TTLMS overrides the server's lease TTL for this campaign.
	TTLMS int64 `json:"ttl_ms,omitempty"`
}

// ExploreRequest asks for a coverage-guided differential fuzzing
// campaign (see internal/explore): chains of catalog calls mutated
// under kernel-state-coverage feedback, every candidate judged by the
// cross-OS differential oracle.
type ExploreRequest struct {
	// OS is the primary (coverage) variant; empty selects win98.
	OS string `json:"os,omitempty"`
	// OSes is the differential-oracle set; empty selects all seven.
	OSes []string `json:"oses,omitempty"`
	// MuTs restricts the chain alphabet; empty selects the cross-OS
	// intersection.
	MuTs []string `json:"muts,omitempty"`
	Seed uint64   `json:"seed,omitempty"`
	// Chains is the candidate budget (default 500, bounded server-side).
	Chains int `json:"chains,omitempty"`
	// MaxLen caps chain length (2-8; default 8).
	MaxLen  int `json:"max_len,omitempty"`
	Workers int `json:"workers,omitempty"`
}

// MaxExploreChains bounds the per-request fuzzing budget so one HTTP
// call cannot monopolize the server.
const MaxExploreChains = 20000

// CrashcheckRequest asks for a bounded crash-consistency sweep (see
// internal/crashsim): every workload in the B3-style bounded set is
// executed against the simulated filesystem's persistence model, each
// crash point's legal post-crash states are enumerated under the OS
// profile's durability policy, and the invariant checker's verdicts are
// compared across profiles.
type CrashcheckRequest struct {
	// OSes is the differential set; empty selects all seven.
	OSes []string `json:"oses,omitempty"`
	Seed uint64   `json:"seed,omitempty"`
	// MaxOps bounds workload chain length (1-3; default 2, B3's seq-2).
	MaxOps int `json:"max_ops,omitempty"`
	// Budget caps the enumerated workload set (bounded server-side).
	Budget  int `json:"budget,omitempty"`
	Workers int `json:"workers,omitempty"`
}

// MaxCrashWorkloads bounds the per-request crash-sweep workload budget.
const MaxCrashWorkloads = 2000

// MaxCrashOps bounds the workload chain length a crashcheck request may
// ask for (the state enumeration is exponential in chain length).
const MaxCrashOps = 3

// ScarcecheckRequest parameterizes POST /api/scarcecheck.
type ScarcecheckRequest struct {
	// OSes is the differential set; empty selects all seven.
	OSes []string `json:"oses,omitempty"`
	// Envs names default scarcity environments; empty selects the full
	// matrix.
	Envs []string `json:"envs,omitempty"`
	Seed uint64   `json:"seed,omitempty"`
	// Budget caps the MuT union (bounded server-side).
	Budget  int `json:"budget,omitempty"`
	Workers int `json:"workers,omitempty"`
}

// MaxScarceMuTs bounds the per-request scarcity-sweep MuT budget (each
// MuT costs environments x OSes machine boots).
const MaxScarceMuTs = 500

// HinderRequest parameterizes POST /api/hinder.
type HinderRequest struct {
	OS string `json:"os"`
}

// CaseRequest asks for one identified test case (the paper's
// single-test-program mode; Listing 1 is {"os":"win98",
// "mut":"GetThreadContext","case":[3,0]} with the pseudo-handle and NULL
// value indices).
type CaseRequest struct {
	OS   string `json:"os"`
	MuT  string `json:"mut"`
	Case []int  `json:"case"`
	Wide bool   `json:"wide,omitempty"`
}

// CaseResponse reports the CRASH classification of a single case.
type CaseResponse struct {
	Class string `json:"class"`
}

// MuTInfo describes one catalog entry on the wire.
type MuTInfo struct {
	Name    string   `json:"name"`
	API     string   `json:"api"`
	Group   string   `json:"group"`
	Params  []string `json:"params"`
	HasWide bool     `json:"has_wide,omitempty"`
}

// SummaryResponse is a Table 1 row.
type SummaryResponse struct {
	OS                string  `json:"os"`
	SysTested         int     `json:"sys_tested"`
	SysCatastrophic   int     `json:"sys_catastrophic"`
	SysAbortPct       float64 `json:"sys_abort_pct"`
	SysRestartPct     float64 `json:"sys_restart_pct"`
	CLibTested        int     `json:"clib_tested"`
	CLibCatastrophic  int     `json:"clib_catastrophic"`
	CLibAbortPct      float64 `json:"clib_abort_pct"`
	CLibRestartPct    float64 `json:"clib_restart_pct"`
	TotalCatastrophic int     `json:"total_catastrophic"`
	CasesRun          int     `json:"cases_run"`
	Reboots           int     `json:"reboots"`
}

// EventsResponse carries the recent-events ring content.
type EventsResponse struct {
	// Seen is the total number of events the server has observed.
	Seen uint64 `json:"seen"`
	// Events holds up to the requested number of most recent records,
	// oldest first.
	Events []telemetry.TraceRecord `json:"events"`
}

// SpansResponse carries the flight-recorder ring content.
type SpansResponse struct {
	// Trace is the recorder's current trace ID (set while a fleet
	// campaign is coordinated; empty otherwise).
	Trace string `json:"trace,omitempty"`
	// Seen is the total number of spans recorded since startup.
	Seen uint64 `json:"seen"`
	// Spans holds up to the requested number of most recent spans,
	// oldest first.
	Spans []span.Record `json:"spans"`
}

// DefaultEventRing is how many recent trace events the server retains.
const DefaultEventRing = 4096

// DefaultMaxCampaigns bounds how many heavy requests (campaigns,
// fuzzing runs, summaries) the server executes at once; excess load is
// shed with 429 + Retry-After instead of queueing until collapse.
const DefaultMaxCampaigns = 8

// DefaultRetryAfter is the Retry-After hint, in seconds, sent with a
// load-shedding 429.
const DefaultRetryAfter = 5

// Server is the Ballista testing service.  The zero value is not usable;
// call NewServer.
type Server struct {
	mux     *http.ServeMux
	handler http.Handler

	metrics *telemetry.Metrics
	ring    *telemetry.Ring
	extra   core.Observer
	log     *telemetry.Logger

	// sem caps in-flight heavy requests (graceful degradation).
	sem chan struct{}
	// reqTimeout bounds each heavy request's campaign context; 0 means
	// only the client's own disconnect cancels it.
	reqTimeout time.Duration
	// chaosStats accumulates injection counters across every campaign
	// the server runs with a chaos plan; exported at /metrics.
	chaosStats *chaos.Stats
	// spans is the flight recorder threaded through every campaign the
	// server runs; its ring serves /api/spans and its per-phase stats
	// surface at /metrics as ballista_span_*.
	spans *span.Recorder

	// fleetTTL is the default lease TTL for fleet campaigns; fleetChaos
	// the default fault plan for fleet campaigns without their own.
	fleetTTL   time.Duration
	fleetChaos *chaos.Plan
	// fleetMu guards the single active fleet coordinator, whose handler
	// serves /fleet/v1/ while a campaign is in flight.
	fleetMu    sync.Mutex
	fleetCoord *fleet.Coordinator

	// store, when set, is the content-addressed result cache threaded
	// through every campaign the server runs; its counters surface at
	// /metrics as ballista_store_* and on GET /api/status.
	store *store.Store
	// queue is the multi-tenant campaign queue (always present); its
	// journal, when configured, makes accepted campaigns survive
	// restarts.
	queue        *queue
	queueJournal *QueueJournal
}

// ServerOption configures NewServer.
type ServerOption func(*Server)

// WithLogger routes server logs (including JSON-encode failures) to lg.
func WithLogger(lg *telemetry.Logger) ServerOption {
	return func(s *Server) { s.log = lg }
}

// WithCampaignObserver attaches an extra observer (e.g. a persistent
// trace writer) to every campaign the server runs, alongside the
// built-in metrics registry and event ring.
func WithCampaignObserver(o core.Observer) ServerOption {
	return func(s *Server) { s.extra = o }
}

// WithCampaignLimit overrides DefaultMaxCampaigns; n <= 0 keeps the
// default.
func WithCampaignLimit(n int) ServerOption {
	return func(s *Server) {
		if n > 0 {
			s.sem = make(chan struct{}, n)
		}
	}
}

// WithRequestTimeout bounds every heavy request's campaign context, so
// one runaway campaign cannot hold a server slot forever.
func WithRequestTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.reqTimeout = d }
}

// WithFleetTTL sets the default lease TTL for fleet campaigns the
// server coordinates; d <= 0 keeps the fleet package default.
func WithFleetTTL(d time.Duration) ServerOption {
	return func(s *Server) { s.fleetTTL = d }
}

// WithFleetChaos arms plan on every fleet campaign that does not carry
// its own chaos block.
func WithFleetChaos(plan *chaos.Plan) ServerOption {
	return func(s *Server) { s.fleetChaos = plan }
}

// WithSpanRecorder replaces the server's built-in ring-only flight
// recorder (e.g. with one that also streams JSONL to disk or writes
// crash flight dumps).  The server closes neither; the caller owns rec.
func WithSpanRecorder(rec *span.Recorder) ServerOption {
	return func(s *Server) { s.spans = rec }
}

// WithStore threads a content-addressed result cache through every
// campaign the server runs.  The caller owns the store and closes it
// after the server shuts down.
func WithStore(st *store.Store) ServerOption {
	return func(s *Server) { s.store = st }
}

// WithQueueJournal makes the campaign queue persistent: qj's replayed
// records rebuild history and re-enqueue acknowledged-but-unfinished
// campaigns, and every subsequent submission/outcome appends to it.
// Server.Close closes the journal.
func WithQueueJournal(qj *QueueJournal) ServerOption {
	return func(s *Server) { s.queueJournal = qj }
}

// WithTenantQuota bounds one tenant's active (queued + running)
// campaigns; n <= 0 keeps DefaultTenantQuota.
func WithTenantQuota(n int) ServerOption {
	return func(s *Server) {
		if n > 0 {
			s.queue.quota = n
		}
	}
}

// WithQueueExecutors sets how many queued campaigns execute at once
// (default 1: strict priority order).
func WithQueueExecutors(n int) ServerOption {
	return func(s *Server) {
		if n > 0 {
			s.queue.executors = n
		}
	}
}

// NewServer builds the service with all routes installed.
func NewServer(opts ...ServerOption) *Server {
	s := &Server{
		mux:        http.NewServeMux(),
		metrics:    telemetry.NewMetrics(),
		ring:       telemetry.NewRing(DefaultEventRing),
		sem:        make(chan struct{}, DefaultMaxCampaigns),
		chaosStats: chaos.NewStats(),
		queue:      newQueue(0, 0),
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.log == nil {
		s.log = telemetry.NewLogger(nil, "ballistad")
	}
	if s.spans == nil {
		s.spans = span.New(span.Options{})
	}
	s.metrics.SetChaosStats(s.chaosStats)
	s.metrics.SetSpanRecorder(s.spans)
	s.metrics.SetQueueStats(s.queue.stats)
	if s.store != nil {
		s.metrics.SetStore(s.store)
	}
	if s.queueJournal != nil {
		s.resumeQueue()
	}
	s.mux.HandleFunc("GET /api/oses", s.handleOSes)
	s.mux.HandleFunc("GET /api/muts", s.handleMuTs)
	s.mux.HandleFunc("POST /api/campaign", s.handleCampaign)
	s.mux.HandleFunc("POST /api/explore", s.handleExplore)
	s.mux.HandleFunc("POST /api/crashcheck", s.handleCrashcheck)
	s.mux.HandleFunc("POST /api/scarcecheck", s.handleScarcecheck)
	s.mux.HandleFunc("POST /api/hinder", s.handleHinder)
	s.mux.HandleFunc("POST /api/case", s.handleCase)
	s.mux.HandleFunc("GET /api/summary", s.handleSummary)
	s.mux.HandleFunc("GET /api/events", s.handleEvents)
	s.mux.HandleFunc("GET /api/spans", s.handleSpans)
	s.mux.HandleFunc("GET /api/status", s.handleStatus)
	s.mux.HandleFunc("POST /api/campaigns", s.handleQueueSubmit)
	s.mux.HandleFunc("GET /api/campaigns", s.handleQueueList)
	s.mux.HandleFunc("GET /api/campaigns/{id}", s.handleQueueGet)
	s.mux.HandleFunc("GET /api/campaigns/{id}/csv", s.handleQueueCSV)
	s.mux.HandleFunc("GET /api/campaigns/{id}/events", s.handleQueueEvents)
	s.mux.HandleFunc("POST /api/fleet/campaign", s.handleFleetCampaign)
	s.mux.HandleFunc("GET /api/fleet/status", s.handleFleetStatus)
	s.mux.Handle("/fleet/v1/", http.HandlerFunc(s.serveFleet))
	s.mux.Handle("GET /metrics", s.metrics.Handler())
	s.handler = s.instrument(s.mux)
	return s
}

// Metrics exposes the server's metrics registry (for a second listener
// or for tests).
func (s *Server) Metrics() *telemetry.Metrics { return s.metrics }

// observer bundles the per-campaign telemetry sinks.
func (s *Server) observer() core.Observer {
	if s.extra != nil {
		return telemetry.Multi(s.metrics, s.ring, s.extra)
	}
	return telemetry.Multi(s.metrics, s.ring)
}

// acquire claims a heavy-request slot, shedding load with 429 +
// Retry-After when the server is at campaign capacity.  The caller must
// release() after the campaign finishes if acquire returned true.
func (s *Server) acquire(w http.ResponseWriter) bool {
	select {
	case s.sem <- struct{}{}:
		return true
	default:
		w.Header().Set("Retry-After", strconv.Itoa(DefaultRetryAfter))
		s.httpError(w, http.StatusTooManyRequests,
			fmt.Sprintf("server at campaign capacity (%d in flight); retry later", cap(s.sem)))
		return false
	}
}

func (s *Server) release() { <-s.sem }

// campaignCtx derives the context a heavy request's campaign runs under:
// the client's own, bounded by the server's request timeout when one is
// configured.
func (s *Server) campaignCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.reqTimeout > 0 {
		return context.WithTimeout(r.Context(), s.reqTimeout)
	}
	return r.Context(), func() {}
}

// statusRecorder captures the status code written by a handler.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so handlers that hold the
// connection after responding (the fleet drain grace) can push the
// completed body to the client first.
func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps the mux with request-count, latency and in-flight
// accounting.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.metrics.AddInFlight(1)
		defer s.metrics.AddInFlight(-1)
		sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sr, r)
		s.metrics.ObserveHTTP(r.Method, r.URL.Path, sr.status, time.Since(start))
	})
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	n := 100
	if v := r.URL.Query().Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed <= 0 {
			s.httpError(w, http.StatusBadRequest, "bad n")
			return
		}
		n = parsed
	}
	events := s.ring.Last(n)
	if events == nil {
		events = []telemetry.TraceRecord{}
	}
	s.writeJSON(w, http.StatusOK, EventsResponse{Seen: s.ring.Seen(), Events: events})
}

func (s *Server) handleSpans(w http.ResponseWriter, r *http.Request) {
	n := 100
	for _, key := range []string{"n", "limit"} { // ?limit= is the documented alias
		if v := r.URL.Query().Get(key); v != "" {
			parsed, err := strconv.Atoi(v)
			if err != nil || parsed <= 0 {
				s.httpError(w, http.StatusBadRequest, "bad "+key)
				return
			}
			n = parsed
		}
	}
	spans := s.spans.LastFiltered(n, r.URL.Query().Get("phase"))
	if spans == nil {
		spans = []span.Record{}
	}
	s.writeJSON(w, http.StatusOK, SpansResponse{
		Trace: s.spans.Trace(), Seen: s.spans.Seen(), Spans: spans,
	})
}

func (s *Server) handleOSes(w http.ResponseWriter, _ *http.Request) {
	names := make([]string, 0, 7)
	for _, o := range ballista.AllOSes() {
		names = append(names, o.WireName())
	}
	s.writeJSON(w, http.StatusOK, names)
}

func (s *Server) handleMuTs(w http.ResponseWriter, r *http.Request) {
	o, ok := parseOS(r.URL.Query().Get("os"))
	if !ok {
		s.httpError(w, http.StatusBadRequest, "unknown or missing os")
		return
	}
	var out []MuTInfo
	for _, m := range catalog.MuTsFor(o) {
		out = append(out, MuTInfo{
			Name: m.Name, API: m.API.String(), Group: m.Group.String(),
			Params: m.Params, HasWide: m.HasWide,
		})
	}
	s.writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	var req CampaignRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.httpError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return
	}
	o, ok := parseOS(req.OS)
	if !ok {
		s.httpError(w, http.StatusBadRequest, "unknown os")
		return
	}
	opts := []ballista.Option{ballista.WithObserver(s.observer()), ballista.WithSpans(s.spans)}
	if s.store != nil {
		opts = append(opts, ballista.WithStore(s.store))
	}
	if req.Cap > 0 {
		opts = append(opts, ballista.WithCap(req.Cap))
	}
	if req.Isolated {
		opts = append(opts, ballista.WithIsolation())
	}
	if req.Chaos != nil {
		plan, err := req.Chaos.plan()
		if err != nil {
			s.httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		opts = append(opts,
			ballista.WithChaos(plan),
			ballista.WithChaosStats(s.chaosStats))
		if req.Chaos.CaseDeadlineMS > 0 {
			opts = append(opts, ballista.WithCaseDeadline(time.Duration(req.Chaos.CaseDeadlineMS)*time.Millisecond))
		}
	}
	if !s.acquire(w) {
		return
	}
	defer s.release()
	ctx, cancel := s.campaignCtx(r)
	defer cancel()
	if req.MuT == "*" {
		s.handleFarmCampaign(ctx, w, o, req, opts)
		return
	}
	m, ok := mutFor(o, req.MuT)
	if !ok {
		s.httpError(w, http.StatusNotFound, fmt.Sprintf("%q is not tested on %s", req.MuT, o))
		return
	}
	res, err := ballista.NewRunner(o, opts...).RunMuT(ctx, m, req.Wide)
	if err != nil {
		s.httpError(w, campaignErrStatus(err), err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, campaignRow(o, res))
}

// handleExplore runs one bounded fuzzing campaign and returns the full
// deterministic report.  Chain events stream into the server's metrics
// registry and event ring as the campaign runs.
func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	var req ExploreRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.httpError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return
	}
	if req.OS == "" {
		req.OS = "win98"
	}
	primary, ok := parseOS(req.OS)
	if !ok {
		s.httpError(w, http.StatusBadRequest, "unknown os")
		return
	}
	var oses []ballista.OS
	for _, name := range req.OSes {
		o, ok := parseOS(name)
		if !ok {
			s.httpError(w, http.StatusBadRequest, fmt.Sprintf("unknown os %q in oses", name))
			return
		}
		oses = append(oses, o)
	}
	if req.Chains <= 0 {
		req.Chains = 500
	}
	if req.Chains > MaxExploreChains {
		s.httpError(w, http.StatusBadRequest,
			fmt.Sprintf("chains %d exceeds the server bound %d", req.Chains, MaxExploreChains))
		return
	}
	if req.Workers < 0 {
		s.httpError(w, http.StatusBadRequest, "bad workers")
		return
	}
	cfg := ballista.ExploreConfig{
		Primary: primary, OSes: oses, MuTs: req.MuTs,
		Seed: req.Seed, Budget: req.Chains, MaxLen: req.MaxLen,
		Workers: req.Workers, Spans: s.spans, Observer: s.observer(),
	}
	if !s.acquire(w) {
		return
	}
	defer s.release()
	ctx, cancel := s.campaignCtx(r)
	defer cancel()
	rep, err := ballista.Explore(ctx, cfg)
	if err != nil {
		status := campaignErrStatus(err)
		if strings.Contains(err.Error(), "is not tested on") ||
			strings.Contains(err.Error(), "empty alphabet") {
			status = http.StatusBadRequest
		}
		s.httpError(w, status, err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, rep)
}

// handleCrashcheck runs one bounded crash-consistency sweep and returns
// the full deterministic report.  Per-workload crash events stream into
// the server's metrics registry (ballista_crash_*) as the sweep runs.
func (s *Server) handleCrashcheck(w http.ResponseWriter, r *http.Request) {
	var req CrashcheckRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.httpError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return
	}
	var oses []ballista.OS
	for _, name := range req.OSes {
		o, ok := parseOS(name)
		if !ok {
			s.httpError(w, http.StatusBadRequest, fmt.Sprintf("unknown os %q in oses", name))
			return
		}
		oses = append(oses, o)
	}
	if req.MaxOps < 0 || req.MaxOps > MaxCrashOps {
		s.httpError(w, http.StatusBadRequest,
			fmt.Sprintf("max_ops %d exceeds the server bound %d", req.MaxOps, MaxCrashOps))
		return
	}
	if req.Budget < 0 || req.Budget > MaxCrashWorkloads {
		s.httpError(w, http.StatusBadRequest,
			fmt.Sprintf("budget %d exceeds the server bound %d", req.Budget, MaxCrashWorkloads))
		return
	}
	if req.Budget == 0 {
		// The exhaustive seq-3 set outruns the request bound; cap it so an
		// unbudgeted request cannot monopolize the slot.  The default
		// seq-2 set (156 workloads) fits under the cap untouched.
		req.Budget = MaxCrashWorkloads
	}
	if req.Workers < 0 {
		s.httpError(w, http.StatusBadRequest, "bad workers")
		return
	}
	cfg := ballista.CrashConfig{
		OSes: oses, Seed: req.Seed, MaxOps: req.MaxOps,
		Budget: req.Budget, Workers: req.Workers,
		Observer: s.observer(), Spans: s.spans,
	}
	if !s.acquire(w) {
		return
	}
	defer s.release()
	ctx, cancel := s.campaignCtx(r)
	defer cancel()
	rep, err := ballista.CrashSweep(ctx, cfg)
	if err != nil {
		s.httpError(w, campaignErrStatus(err), err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, rep)
}

// handleScarcecheck runs one bounded resource-scarcity sweep and
// returns the full deterministic report.  Per-item scarce events stream
// into the server's metrics registry (ballista_scarce_*) as the sweep
// runs.
func (s *Server) handleScarcecheck(w http.ResponseWriter, r *http.Request) {
	var req ScarcecheckRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.httpError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return
	}
	var oses []ballista.OS
	for _, name := range req.OSes {
		o, ok := parseOS(name)
		if !ok {
			s.httpError(w, http.StatusBadRequest, fmt.Sprintf("unknown os %q in oses", name))
			return
		}
		oses = append(oses, o)
	}
	var envs []ballista.ScarceEnv
	for _, name := range req.Envs {
		e, err := ballista.ParseScarceEnv(name)
		if err != nil {
			s.httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		envs = append(envs, e)
	}
	if req.Budget < 0 || req.Budget > MaxScarceMuTs {
		s.httpError(w, http.StatusBadRequest,
			fmt.Sprintf("budget %d exceeds the server bound %d", req.Budget, MaxScarceMuTs))
		return
	}
	if req.Budget == 0 {
		// An unbudgeted request must not monopolize the heavy slot: every
		// MuT in the union costs environments x OSes machine boots.
		req.Budget = MaxScarceMuTs
	}
	if req.Workers < 0 {
		s.httpError(w, http.StatusBadRequest, "bad workers")
		return
	}
	cfg := ballista.ScarceConfig{
		OSes: oses, Envs: envs, Seed: req.Seed,
		Budget: req.Budget, Workers: req.Workers,
		Observer: s.observer(), Spans: s.spans,
	}
	if !s.acquire(w) {
		return
	}
	defer s.release()
	ctx, cancel := s.campaignCtx(r)
	defer cancel()
	rep, err := ballista.ScarceSweep(ctx, cfg)
	if err != nil {
		s.httpError(w, campaignErrStatus(err), err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, rep)
}

// handleHinder runs the Hindering-failure oracle (wrong error codes)
// for one OS and returns the probe results.
func (s *Server) handleHinder(w http.ResponseWriter, r *http.Request) {
	var req HinderRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.httpError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return
	}
	o, ok := parseOS(req.OS)
	if !ok {
		s.httpError(w, http.StatusBadRequest, fmt.Sprintf("unknown os %q", req.OS))
		return
	}
	if !s.acquire(w) {
		return
	}
	defer s.release()
	results, err := ballista.AuditHindering(o)
	if err != nil {
		s.httpError(w, campaignErrStatus(err), err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, results)
}

// handleFarmCampaign runs the full catalog for one OS across a farm of
// parallel workers and returns the merged, catalog-ordered rows.  The
// caller holds the heavy-request slot and owns ctx.
func (s *Server) handleFarmCampaign(ctx context.Context, w http.ResponseWriter, o ballista.OS, req CampaignRequest, opts []ballista.Option) {
	if req.Workers < 0 {
		s.httpError(w, http.StatusBadRequest, "bad workers")
		return
	}
	res, err := ballista.RunFarm(ctx, o, ballista.FarmConfig{Workers: req.Workers}, opts...)
	if err != nil {
		s.httpError(w, campaignErrStatus(err), err.Error())
		return
	}
	out := FarmCampaignResponse{
		OS: o.String(), Workers: req.Workers,
		MuTs: len(res.Results), CasesRun: res.CasesRun, Reboots: res.Reboots,
		Catastrophic: res.CatastrophicMuTs(),
		Results:      make([]CampaignResponse, 0, len(res.Results)),
	}
	for _, mr := range res.Results {
		out.Results = append(out.Results, campaignRow(o, mr))
	}
	s.writeJSON(w, http.StatusOK, out)
}

// handleFleetCampaign turns the server into a fleet coordinator for one
// distributed full-catalog campaign and blocks (holding a heavy slot)
// until joined workers drain the shard catalog.  The merged rows are
// byte-identical to what /api/campaign with mut "*" computes in-process.
func (s *Server) handleFleetCampaign(w http.ResponseWriter, r *http.Request) {
	var req FleetCampaignRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.httpError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return
	}
	o, ok := parseOS(req.OS)
	if !ok {
		s.httpError(w, http.StatusBadRequest, "unknown os")
		return
	}
	plan := s.fleetChaos
	if req.Chaos != nil {
		p, err := req.Chaos.plan()
		if err != nil {
			s.httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		plan = p
	}
	spec := fleet.CampaignSpec{Kind: fleet.KindFarm, OS: o.WireName(), Cap: req.Cap, Chaos: plan}
	if req.Chaos != nil && req.Chaos.CaseDeadlineMS > 0 {
		spec.CaseDeadlineMS = int64(req.Chaos.CaseDeadlineMS)
	}
	ttl := s.fleetTTL
	if req.TTLMS > 0 {
		ttl = time.Duration(req.TTLMS) * time.Millisecond
	}
	coord, err := fleet.New(fleet.Config{
		Spec: spec, TTL: ttl, ChaosStats: s.chaosStats, Spans: s.spans, Log: s.log,
		Observer: s.observer(),
	})
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if !s.acquire(w) {
		return
	}
	defer s.release()
	s.fleetMu.Lock()
	if s.fleetCoord != nil {
		active := s.fleetCoord.ID()
		s.fleetMu.Unlock()
		// Tell the queued client which campaign holds the slot and when
		// to come back, so it can back off intelligently.
		w.Header().Set("Retry-After", strconv.Itoa(DefaultRetryAfter))
		s.writeJSON(w, http.StatusConflict, map[string]string{
			"error":           "a fleet campaign is already active",
			"active_campaign": active,
		})
		return
	}
	s.fleetCoord = coord
	s.fleetMu.Unlock()
	defer func() {
		s.fleetMu.Lock()
		s.fleetCoord = nil
		s.fleetMu.Unlock()
		coord.Close()
	}()
	ctx, cancel := s.campaignCtx(r)
	defer cancel()
	res, err := coord.Wait(ctx)
	if err != nil {
		s.httpError(w, campaignErrStatus(err), err.Error())
		return
	}
	out := FarmCampaignResponse{
		OS: o.String(), Workers: coord.WorkersSeen(),
		MuTs: len(res.Results), CasesRun: res.CasesRun, Reboots: res.Reboots,
		Catastrophic: res.CatastrophicMuTs(),
		Results:      make([]CampaignResponse, 0, len(res.Results)),
	}
	for _, mr := range res.Results {
		out.Results = append(out.Results, campaignRow(o, mr))
	}
	s.writeJSON(w, http.StatusOK, out)
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
	// Drain grace: the response is out, but idle workers only poll for
	// completion every half heartbeat.  Keep the coordinator registered
	// a little longer so they observe Done and exit instead of spinning
	// on 503s; a client that has hung up releases the slot immediately.
	drainTTL := ttl
	if drainTTL <= 0 {
		drainTTL = 15 * time.Second
	}
	drain := drainTTL / 3
	if drain < 250*time.Millisecond {
		drain = 250 * time.Millisecond
	}
	select {
	case <-r.Context().Done():
	case <-time.After(drain):
	}
}

func (s *Server) handleFleetStatus(w http.ResponseWriter, _ *http.Request) {
	s.fleetMu.Lock()
	coord := s.fleetCoord
	s.fleetMu.Unlock()
	if coord == nil {
		s.httpError(w, http.StatusNotFound, "no fleet campaign active")
		return
	}
	s.writeJSON(w, http.StatusOK, coord.Status())
}

// serveFleet delegates worker-fabric RPCs to the active coordinator.
// Before a campaign is posted the fabric answers 503, which the fleet
// client treats as retryable — workers may join early and back off
// until a campaign arrives.
func (s *Server) serveFleet(w http.ResponseWriter, r *http.Request) {
	s.fleetMu.Lock()
	coord := s.fleetCoord
	s.fleetMu.Unlock()
	if coord == nil {
		s.httpError(w, http.StatusServiceUnavailable, "no fleet campaign active")
		return
	}
	coord.Handler().ServeHTTP(w, r)
}

// campaignRow flattens one MuT's result into the wire row.
func campaignRow(o ballista.OS, res *core.MuTResult) CampaignResponse {
	return CampaignResponse{
		OS: o.String(), MuT: res.Name(), Group: res.MuT.Group.String(),
		Cases:        res.Executed(),
		Clean:        res.Count(core.RawClean),
		ErrorReturn:  res.Count(core.RawError),
		Abort:        res.Count(core.RawAbort),
		Restart:      res.Count(core.RawRestart),
		Catastrophic: res.Count(core.RawCatastrophic),
		Skip:         res.Count(core.RawSkip),
		AbortRate:    res.AbortRate(),
		RestartRate:  res.RestartRate(),
		Incomplete:   res.Incomplete,
	}
}

// campaignErrStatus maps a campaign failure to an HTTP status: a
// cancelled context (client gone, server draining) is 503, anything
// else a plain 500.
func campaignErrStatus(err error) int {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

func (s *Server) handleCase(w http.ResponseWriter, r *http.Request) {
	var req CaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.httpError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return
	}
	o, ok := parseOS(req.OS)
	if !ok {
		s.httpError(w, http.StatusBadRequest, "unknown os")
		return
	}
	m, ok := mutFor(o, req.MuT)
	if !ok {
		s.httpError(w, http.StatusNotFound, fmt.Sprintf("%q is not tested on %s", req.MuT, o))
		return
	}
	if len(req.Case) != len(m.Params) {
		s.httpError(w, http.StatusBadRequest,
			fmt.Sprintf("%s takes %d parameters, case has %d", m.Name, len(m.Params), len(req.Case)))
		return
	}
	runner := ballista.NewRunner(o, ballista.WithIsolation(), ballista.WithObserver(s.observer()))
	cls, err := runner.RunCase(m, core.Case(req.Case), req.Wide)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, CaseResponse{Class: cls.String()})
}

func (s *Server) handleSummary(w http.ResponseWriter, r *http.Request) {
	o, ok := parseOS(r.URL.Query().Get("os"))
	if !ok {
		s.httpError(w, http.StatusBadRequest, "unknown or missing os")
		return
	}
	cap := 300
	if v := r.URL.Query().Get("cap"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			s.httpError(w, http.StatusBadRequest, "bad cap")
			return
		}
		cap = n
	}
	workers := 1
	if v := r.URL.Query().Get("workers"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			s.httpError(w, http.StatusBadRequest, "bad workers")
			return
		}
		workers = n
	}
	opts := []ballista.Option{ballista.WithCap(cap), ballista.WithObserver(s.observer())}
	if s.store != nil {
		opts = append(opts, ballista.WithStore(s.store))
	}
	if !s.acquire(w) {
		return
	}
	defer s.release()
	ctx, cancel := s.campaignCtx(r)
	defer cancel()
	var res *ballista.Result
	var err error
	if workers == 1 {
		res, err = ballista.RunContext(ctx, o, opts...)
	} else {
		res, err = ballista.RunFarm(ctx, o, ballista.FarmConfig{Workers: workers}, opts...)
	}
	if err != nil {
		s.httpError(w, campaignErrStatus(err), err.Error())
		return
	}
	sum := report.Summarize(o, res)
	s.writeJSON(w, http.StatusOK, SummaryResponse{
		OS:                o.String(),
		SysTested:         sum.SysTested,
		SysCatastrophic:   sum.SysCatastrophic,
		SysAbortPct:       sum.SysAbortPct,
		SysRestartPct:     sum.SysRestartPct,
		CLibTested:        sum.CLibTested,
		CLibCatastrophic:  sum.CLibCatastrophic,
		CLibAbortPct:      sum.CLibAbortPct,
		CLibRestartPct:    sum.CLibRestartPct,
		TotalCatastrophic: sum.TotalCatastrophic,
		CasesRun:          res.CasesRun,
		Reboots:           res.Reboots,
	})
}

func parseOS(name string) (ballista.OS, bool) {
	return osprofile.Parse(name)
}

func mutFor(o ballista.OS, name string) (catalog.MuT, bool) {
	for _, m := range catalog.MuTsFor(o) {
		if m.Name == name {
			return m, true
		}
	}
	return catalog.MuT{}, false
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The status line is gone; all that is left is diagnosis.
		s.log.Errorf("encoding %T response: %v", v, err)
	}
}

func (s *Server) httpError(w http.ResponseWriter, status int, msg string) {
	s.writeJSON(w, status, map[string]string{"error": msg})
}
