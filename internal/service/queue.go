// The multi-tenant campaign queue: ballistad's growth from "one active
// campaign per request" into a platform.  Submissions land in a
// persistent prioritized queue (per-tenant quotas, FIFO within
// priority), are journaled before they are acknowledged — a restarted
// server re-enqueues everything accepted but unfinished — and execute
// on a bounded dispatcher with the farm (in-process) or fleet
// (distributed) backend.  Progress streams over SSE from a per-campaign
// event log; terminal results and their CSV artifacts persist in the
// journal and serve from the history endpoints.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"ballista"
	"ballista/internal/core"
	"ballista/internal/fleet"
	"ballista/internal/journal"
	"ballista/internal/osprofile"
	"ballista/internal/report"
	"ballista/internal/telemetry"
	"ballista/internal/telemetry/span"
)

// Campaign lifecycle states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// DefaultTenantQuota bounds one tenant's active (queued + running)
// campaigns; excess submissions shed with 429 + Retry-After.
const DefaultTenantQuota = 4

// MaxPriority is the top of the priority range (0..MaxPriority, higher
// runs first; FIFO within a priority).
const MaxPriority = 9

// QueueSubmitRequest enqueues one campaign for a tenant.  The embedded
// CampaignRequest fields (os, mut, cap, workers, chaos, ...) describe
// the campaign itself; mut defaults to "*" (the full catalog).
type QueueSubmitRequest struct {
	CampaignRequest
	Tenant   string `json:"tenant,omitempty"`
	Priority int    `json:"priority,omitempty"`
	// Engine selects the execution backend: "farm" (default, in-process
	// workers) or "fleet" (the server coordinates `ballista -join`
	// workers, like POST /api/fleet/campaign).
	Engine string `json:"engine,omitempty"`
}

// QueueSubmitResponse acknowledges an accepted submission.  The journal
// record is fsynced before this response is written.
type QueueSubmitResponse struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Position int    `json:"position"`
}

// CampaignSummary is one queue/history row.
type CampaignSummary struct {
	ID        string     `json:"id"`
	Tenant    string     `json:"tenant"`
	Priority  int        `json:"priority"`
	Engine    string     `json:"engine,omitempty"`
	State     string     `json:"state"`
	OS        string     `json:"os"`
	MuT       string     `json:"mut"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	Error     string     `json:"error,omitempty"`
}

// CampaignDetail is a summary plus the merged result once terminal.
type CampaignDetail struct {
	CampaignSummary
	Result *FarmCampaignResponse `json:"result,omitempty"`
}

// campaign is the queue's internal record.  Immutable identity fields
// are set at submit; mutable state is guarded by the queue mutex.
type campaign struct {
	seq      uint64
	id       string
	tenant   string
	priority int
	engine   string
	req      CampaignRequest

	state     string
	submitted time.Time
	started   time.Time
	finished  time.Time
	err       string
	result    *FarmCampaignResponse
	csv       []byte

	events *eventLog
	qspan  *span.Span // time-in-queue span, ended at dispatch
}

func (c *campaign) terminal() bool {
	return c.state == StateDone || c.state == StateFailed || c.state == StateCanceled
}

func (c *campaign) summary() CampaignSummary {
	out := CampaignSummary{
		ID: c.id, Tenant: c.tenant, Priority: c.priority, Engine: c.engine,
		State: c.state, OS: c.req.OS, MuT: c.req.MuT, Submitted: c.submitted,
		Error: c.err,
	}
	if !c.started.IsZero() {
		t := c.started
		out.Started = &t
	}
	if !c.finished.IsZero() {
		t := c.finished
		out.Finished = &t
	}
	return out
}

// queue is the campaign queue state machine.
type queue struct {
	mu   sync.Mutex
	cond *sync.Cond

	byID map[string]*campaign
	all  []*campaign // submission order

	seq       uint64
	running   int
	executors int
	quota     int

	closed      bool
	dispatching bool
	wg          sync.WaitGroup
	ctx         context.Context
	cancel      context.CancelFunc

	submitted, rejected uint64
	done, failed        uint64
	canceled            uint64
}

func newQueue(executors, quota int) *queue {
	if executors <= 0 {
		executors = 1
	}
	if quota <= 0 {
		quota = DefaultTenantQuota
	}
	q := &queue{
		byID:      make(map[string]*campaign),
		executors: executors,
		quota:     quota,
	}
	q.cond = sync.NewCond(&q.mu)
	q.ctx, q.cancel = context.WithCancel(context.Background())
	return q
}

// activeForTenantLocked counts a tenant's queued + running campaigns
// (the quota domain).
func (q *queue) activeForTenantLocked(tenant string) int {
	n := 0
	for _, c := range q.all {
		if c.tenant == tenant && !c.terminal() {
			n++
		}
	}
	return n
}

func (q *queue) queuedCountLocked() int {
	n := 0
	for _, c := range q.all {
		if c.state == StateQueued {
			n++
		}
	}
	return n
}

// nextRunnableLocked picks the queued campaign that runs next — highest
// priority first, submission order within a priority — or nil when
// nothing is runnable or all executor slots are busy.
func (q *queue) nextRunnableLocked() *campaign {
	if q.running >= q.executors {
		return nil
	}
	var best *campaign
	for _, c := range q.all {
		if c.state != StateQueued {
			continue
		}
		if best == nil || c.priority > best.priority {
			best = c
		}
	}
	return best
}

// stats snapshots the queue for /metrics and /api/status.
func (q *queue) stats() telemetry.QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return telemetry.QueueStats{
		Queued:    q.queuedCountLocked(),
		Running:   q.running,
		Submitted: q.submitted,
		Rejected:  q.rejected,
		Done:      q.done,
		Failed:    q.failed,
		Canceled:  q.canceled,
	}
}

// ---- per-campaign event log (the SSE feed) ----

// queueEvent is one progress record: a state transition, a completed
// shard, or the terminal event.
type queueEvent struct {
	Seq   uint64    `json:"seq"`
	Kind  string    `json:"kind"` // "state", "shard", "done"
	At    time.Time `json:"at"`
	State string    `json:"state,omitempty"`
	Error string    `json:"error,omitempty"`
	// Shard progress (kind "shard").
	MuT    string `json:"mut,omitempty"`
	Shard  int    `json:"shard,omitempty"`
	Worker int    `json:"worker,omitempty"`
	Cases  int    `json:"cases,omitempty"`
	Shards int    `json:"shards_done,omitempty"`
}

// eventLogCap bounds the replay buffer; live subscribers see everything,
// late ones the most recent eventLogCap records.
const eventLogCap = 512

// subChanCap bounds one subscriber's delivery channel; a consumer that
// falls further behind drops progress events (they are advisory — the
// terminal event closes the channel, which cannot be missed).
const subChanCap = 64

type eventLog struct {
	mu     sync.Mutex
	seq    uint64
	buf    []queueEvent
	subs   map[chan queueEvent]struct{}
	closed bool
}

func newEventLog() *eventLog {
	return &eventLog{subs: make(map[chan queueEvent]struct{})}
}

func (el *eventLog) emit(ev queueEvent) {
	el.mu.Lock()
	defer el.mu.Unlock()
	if el.closed {
		return
	}
	el.seq++
	ev.Seq = el.seq
	ev.At = time.Now()
	el.buf = append(el.buf, ev)
	if len(el.buf) > eventLogCap {
		el.buf = el.buf[len(el.buf)-eventLogCap:]
	}
	for ch := range el.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// subscribe returns the replay buffer and a live channel.  The channel
// closes when the log closes (campaign terminal or server shutdown);
// cancel detaches early.
func (el *eventLog) subscribe() (replay []queueEvent, ch chan queueEvent, cancel func()) {
	el.mu.Lock()
	defer el.mu.Unlock()
	replay = append([]queueEvent(nil), el.buf...)
	ch = make(chan queueEvent, subChanCap)
	if el.closed {
		close(ch)
		return replay, ch, func() {}
	}
	el.subs[ch] = struct{}{}
	return replay, ch, func() {
		el.mu.Lock()
		defer el.mu.Unlock()
		if _, ok := el.subs[ch]; ok {
			delete(el.subs, ch)
			close(ch)
		}
	}
}

// close seals the log: subscribers' channels close after any buffered
// events drain.
func (el *eventLog) close() {
	el.mu.Lock()
	defer el.mu.Unlock()
	if el.closed {
		return
	}
	el.closed = true
	for ch := range el.subs {
		close(ch)
	}
	el.subs = make(map[chan queueEvent]struct{})
}

// campaignProgress forwards farm shard completions into the campaign's
// event log (alongside the server-wide observers it is Multi'd with).
type campaignProgress struct {
	c      *campaign
	mu     sync.Mutex
	shards int
}

// Observe implements core.Observer; only shard completions count.
func (p *campaignProgress) Observe(e core.Event) {
	ev, ok := e.(*core.ShardEvent)
	if !ok {
		return
	}
	p.mu.Lock()
	p.shards++
	n := p.shards
	p.mu.Unlock()
	p.c.events.emit(queueEvent{
		Kind: "shard", MuT: ev.MuT, Shard: ev.Shard, Worker: ev.Worker,
		Cases: ev.Cases, Shards: n,
	})
}

// ---- journal (journal-before-acknowledge resume) ----

// queueJournalVersion is the on-disk schema version.
const queueJournalVersion = 1

// queueRecord is one journal line: a submission (written and fsynced
// before the 202 acknowledgement) or a terminal outcome with its
// artifacts.  A submission without a matching terminal record
// re-enqueues on restart.
type queueRecord struct {
	V        int                   `json:"v"`
	Op       string                `json:"op"` // "submit" or "done"
	Seq      uint64                `json:"seq,omitempty"`
	ID       string                `json:"id"`
	Tenant   string                `json:"tenant,omitempty"`
	Priority int                   `json:"priority,omitempty"`
	Engine   string                `json:"engine,omitempty"`
	Req      *CampaignRequest      `json:"req,omitempty"`
	At       time.Time             `json:"at,omitempty"`
	State    string                `json:"state,omitempty"`
	Error    string                `json:"error,omitempty"`
	Result   *FarmCampaignResponse `json:"result,omitempty"`
	CSV      string                `json:"csv,omitempty"`
}

// QueueJournal is the campaign queue's persistence: an append-only
// JSONL file kept by internal/journal (fsync per record, torn lines
// skipped on replay).  Open it with OpenQueueJournal and hand it to the
// server via WithQueueJournal.
type QueueJournal struct {
	j       *journal.Journal
	records []queueRecord
}

// OpenQueueJournal replays an existing journal (missing file = fresh
// queue) and opens it for appending.
func OpenQueueJournal(path string) (*QueueJournal, error) {
	qj := &QueueJournal{}
	err := journal.Replay(path, func(line []byte) error {
		var rec queueRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil // torn write; every complete record stands on its own
		}
		if rec.V != queueJournalVersion {
			return fmt.Errorf("queue: journal version %d (want %d)", rec.V, queueJournalVersion)
		}
		qj.records = append(qj.records, rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if qj.j, err = journal.Open(path, nil); err != nil {
		return nil, err
	}
	return qj, nil
}

// append journals one record durably.
func (qj *QueueJournal) append(rec queueRecord) error {
	if qj == nil {
		return nil
	}
	rec.V = queueJournalVersion
	return qj.j.Append(rec)
}

// Close closes the journal file.
func (qj *QueueJournal) Close() error {
	if qj == nil {
		return nil
	}
	return qj.j.Close()
}

// ---- server integration ----

// resumeQueue rebuilds the queue from a replayed journal: terminal
// campaigns restore to history with their artifacts, acknowledged but
// unfinished ones re-enqueue.  Called from NewServer before any request
// can land.
func (s *Server) resumeQueue() {
	q := s.queue
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, rec := range s.queueJournal.records {
		switch rec.Op {
		case "submit":
			if rec.Req == nil {
				continue
			}
			c := &campaign{
				seq: rec.Seq, id: rec.ID, tenant: rec.Tenant,
				priority: rec.Priority, engine: rec.Engine, req: *rec.Req,
				state: StateQueued, submitted: rec.At, events: newEventLog(),
			}
			q.byID[c.id] = c
			q.all = append(q.all, c)
			q.submitted++
			if rec.Seq >= q.seq {
				q.seq = rec.Seq + 1
			}
		case "done":
			c, ok := q.byID[rec.ID]
			if !ok {
				continue
			}
			c.state = rec.State
			c.finished = rec.At
			c.err = rec.Error
			c.result = rec.Result
			c.csv = []byte(rec.CSV)
			c.events.close()
			switch rec.State {
			case StateDone:
				q.done++
			case StateCanceled:
				q.canceled++
			default:
				q.failed++
			}
		}
	}
	if q.queuedCountLocked() > 0 {
		s.ensureDispatcherLocked()
	}
}

// ensureDispatcherLocked starts the dispatcher goroutine if it is not
// already running.  The dispatcher exits when the queue drains, so an
// idle server holds no extra goroutine (the leak checker in the test
// suite enforces this).
func (s *Server) ensureDispatcherLocked() {
	q := s.queue
	if q.dispatching || q.closed {
		return
	}
	q.dispatching = true
	q.wg.Add(1)
	go s.dispatchLoop()
}

// dispatchLoop pops runnable campaigns in (priority desc, submission
// asc) order and runs each on its own goroutine, bounded by the
// executor count.
func (s *Server) dispatchLoop() {
	q := s.queue
	defer q.wg.Done()
	q.mu.Lock()
	for {
		if q.closed {
			q.dispatching = false
			q.mu.Unlock()
			return
		}
		c := q.nextRunnableLocked()
		if c == nil {
			if q.running == 0 && q.queuedCountLocked() == 0 {
				q.dispatching = false
				q.mu.Unlock()
				return
			}
			q.cond.Wait()
			continue
		}
		q.running++
		c.state = StateRunning
		c.started = time.Now()
		c.qspan.End()
		c.qspan = nil
		// Emit before spawning so the "running" transition always precedes
		// the run's own shard events in the SSE stream.
		c.events.emit(queueEvent{Kind: "state", State: StateRunning})
		q.wg.Add(1)
		go s.runQueued(c)
	}
}

// runQueued executes one campaign and records its terminal state.  A
// campaign interrupted by server shutdown reverts to queued without a
// terminal journal record, so a restart re-enqueues it.
func (s *Server) runQueued(c *campaign) {
	q := s.queue
	defer q.wg.Done()
	res, err := s.executeQueued(q.ctx, c)

	q.mu.Lock()
	q.running--
	if err != nil && q.ctx.Err() != nil {
		// Shutdown interrupted the run: back to the queue for resume.
		c.state = StateQueued
		c.started = time.Time{}
		q.cond.Broadcast()
		q.mu.Unlock()
		return
	}
	c.finished = time.Now()
	rec := queueRecord{Op: "done", ID: c.id, At: c.finished}
	if err != nil {
		c.err = err.Error()
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			c.state = StateCanceled
			q.canceled++
		} else {
			c.state = StateFailed
			q.failed++
		}
	} else {
		c.state = StateDone
		q.done++
		c.result = res.summary
		c.csv = res.csv
		rec.Result = res.summary
		rec.CSV = string(res.csv)
	}
	rec.State = c.state
	rec.Error = c.err
	q.cond.Broadcast()
	q.mu.Unlock()

	if jerr := s.queueJournal.append(rec); jerr != nil {
		s.log.Errorf("journaling campaign %s outcome: %v", c.id, jerr)
	}
	c.events.emit(queueEvent{Kind: "state", State: c.state, Error: c.err})
	c.events.emit(queueEvent{Kind: "done", State: c.state, Error: c.err})
	c.events.close()
	s.spans.Instant("queue", c.id, c.state)
}

// queuedArtifacts is a completed campaign's wire summary plus its CSV
// report — the deterministic artifact the warm-cache oracle diffs.
type queuedArtifacts struct {
	summary *FarmCampaignResponse
	csv     []byte
}

// executeQueued runs one campaign under the queue's context with the
// requested backend.
func (s *Server) executeQueued(ctx context.Context, c *campaign) (*queuedArtifacts, error) {
	if s.reqTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.reqTimeout)
		defer cancel()
	}
	o, ok := parseOS(c.req.OS)
	if !ok { // validated at submit; defensive for journal edits
		return nil, fmt.Errorf("unknown os %q", c.req.OS)
	}
	progress := &campaignProgress{c: c}
	obs := telemetry.Multi(s.observer(), progress)

	if c.engine == "fleet" {
		return s.executeQueuedFleet(ctx, c, o, obs)
	}

	opts := []ballista.Option{ballista.WithObserver(obs), ballista.WithSpans(s.spans)}
	if s.store != nil {
		opts = append(opts, ballista.WithStore(s.store))
	}
	if c.req.Cap > 0 {
		opts = append(opts, ballista.WithCap(c.req.Cap))
	}
	if c.req.Isolated {
		opts = append(opts, ballista.WithIsolation())
	}
	if c.req.Chaos != nil {
		plan, err := c.req.Chaos.plan()
		if err != nil {
			return nil, err
		}
		opts = append(opts, ballista.WithChaos(plan), ballista.WithChaosStats(s.chaosStats))
		if c.req.Chaos.CaseDeadlineMS > 0 {
			opts = append(opts, ballista.WithCaseDeadline(time.Duration(c.req.Chaos.CaseDeadlineMS)*time.Millisecond))
		}
	}
	var res *ballista.Result
	var err error
	if c.req.MuT == "*" {
		res, err = ballista.RunFarm(ctx, o, ballista.FarmConfig{Workers: c.req.Workers}, opts...)
	} else {
		m, found := mutFor(o, c.req.MuT)
		if !found {
			return nil, fmt.Errorf("%q is not tested on %s", c.req.MuT, o)
		}
		runner := ballista.NewRunner(o, opts...)
		var mr *core.MuTResult
		mr, err = runner.RunMuT(ctx, m, c.req.Wide)
		if err == nil {
			res = &ballista.Result{
				OS: o.String(), Results: []*core.MuTResult{mr},
				CasesRun: mr.Executed(), Reboots: runner.ResetMachine(),
			}
		}
	}
	if err != nil {
		return nil, err
	}
	return buildQueuedArtifacts(o, c.req.Workers, res)
}

// executeQueuedFleet coordinates the campaign over the fleet fabric:
// the queue waits for the single coordinator slot, installs one, and
// blocks until joined workers drain the shard catalog.
func (s *Server) executeQueuedFleet(ctx context.Context, c *campaign, o ballista.OS, obs core.Observer) (*queuedArtifacts, error) {
	var plan = s.fleetChaos
	spec := fleet.CampaignSpec{Kind: fleet.KindFarm, OS: o.WireName(), Cap: c.req.Cap, Chaos: plan}
	if c.req.Chaos != nil {
		p, err := c.req.Chaos.plan()
		if err != nil {
			return nil, err
		}
		spec.Chaos = p
		if c.req.Chaos.CaseDeadlineMS > 0 {
			spec.CaseDeadlineMS = int64(c.req.Chaos.CaseDeadlineMS)
		}
	}
	coord, err := fleet.New(fleet.Config{
		Spec: spec, TTL: s.fleetTTL, ChaosStats: s.chaosStats, Spans: s.spans, Log: s.log,
		Observer: obs,
	})
	if err != nil {
		return nil, err
	}
	// Wait for the coordinator slot (one fleet campaign at a time).
	for {
		s.fleetMu.Lock()
		if s.fleetCoord == nil {
			s.fleetCoord = coord
			s.fleetMu.Unlock()
			break
		}
		s.fleetMu.Unlock()
		select {
		case <-ctx.Done():
			coord.Close()
			return nil, ctx.Err()
		case <-time.After(200 * time.Millisecond):
		}
	}
	defer func() {
		s.fleetMu.Lock()
		s.fleetCoord = nil
		s.fleetMu.Unlock()
		coord.Close()
	}()
	res, err := coord.Wait(ctx)
	if err != nil {
		return nil, err
	}
	// Drain grace, as in handleFleetCampaign: idle workers poll for
	// completion every half heartbeat; keep the coordinator registered
	// briefly so they observe Done instead of spinning on 503s.
	drainTTL := s.fleetTTL
	if drainTTL <= 0 {
		drainTTL = 15 * time.Second
	}
	drain := drainTTL / 3
	if drain < 250*time.Millisecond {
		drain = 250 * time.Millisecond
	}
	select {
	case <-ctx.Done():
	case <-time.After(drain):
	}
	return buildQueuedArtifacts(o, coord.WorkersSeen(), res)
}

// buildQueuedArtifacts flattens a merged campaign result into the wire
// summary and renders the CSV artifact.
func buildQueuedArtifacts(o ballista.OS, workers int, res *ballista.Result) (*queuedArtifacts, error) {
	out := &FarmCampaignResponse{
		OS: o.String(), Workers: workers,
		MuTs: len(res.Results), CasesRun: res.CasesRun, Reboots: res.Reboots,
		Catastrophic: res.CatastrophicMuTs(),
		Results:      make([]CampaignResponse, 0, len(res.Results)),
	}
	for _, mr := range res.Results {
		out.Results = append(out.Results, campaignRow(o, mr))
	}
	var buf bytes.Buffer
	if err := report.WriteMuTCSV(&buf, map[osprofile.OS]*core.OSResult{o: res}); err != nil {
		return nil, err
	}
	return &queuedArtifacts{summary: out, csv: buf.Bytes()}, nil
}

// Close shuts the campaign queue down: in-flight campaigns are
// cancelled at their next test-case boundary and revert to queued
// (unjournaled, so a restart resumes them), the dispatcher drains, SSE
// subscribers are released, and the journal closes.  The HTTP mux stays
// serviceable for non-queue endpoints; queue submissions after Close
// shed with 503.
func (s *Server) Close() error {
	q := s.queue
	q.mu.Lock()
	q.closed = true
	q.cancel()
	q.cond.Broadcast()
	q.mu.Unlock()
	q.wg.Wait()
	q.mu.Lock()
	for _, c := range q.all {
		c.events.close()
	}
	q.mu.Unlock()
	return s.queueJournal.Close()
}
