// HTTP surface of the multi-tenant campaign queue:
//
//	POST /api/campaigns              submit (202; journaled before ack)
//	GET  /api/campaigns              history + queue (?tenant=, ?state=)
//	GET  /api/campaigns/{id}         one campaign with its merged result
//	GET  /api/campaigns/{id}/csv     the CSV artifact of a done campaign
//	GET  /api/campaigns/{id}/events  SSE progress stream
//	GET  /api/status                 server identity + store/queue health
package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"ballista/internal/store"
	"ballista/internal/version"
)

// handleQueueSubmit accepts one campaign into the queue.  The journal
// record is written and fsynced before the 202 acknowledgement — a
// crash after the ack can only replay the campaign, never lose it.
func (s *Server) handleQueueSubmit(w http.ResponseWriter, r *http.Request) {
	var req QueueSubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.httpError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return
	}
	o, ok := parseOS(req.OS)
	if !ok {
		s.httpError(w, http.StatusBadRequest, "unknown os")
		return
	}
	if req.MuT == "" {
		req.MuT = "*"
	}
	if req.MuT != "*" {
		if _, found := mutFor(o, req.MuT); !found {
			s.httpError(w, http.StatusNotFound, fmt.Sprintf("%q is not tested on %s", req.MuT, o))
			return
		}
	}
	if req.Workers < 0 {
		s.httpError(w, http.StatusBadRequest, "bad workers")
		return
	}
	if req.Chaos != nil {
		if _, err := req.Chaos.plan(); err != nil {
			s.httpError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	switch req.Engine {
	case "", "farm", "fleet":
	default:
		s.httpError(w, http.StatusBadRequest, fmt.Sprintf("unknown engine %q", req.Engine))
		return
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = "default"
	}
	priority := req.Priority
	if priority < 0 {
		priority = 0
	}
	if priority > MaxPriority {
		priority = MaxPriority
	}

	q := s.queue
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		s.httpError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	if q.activeForTenantLocked(tenant) >= q.quota {
		q.rejected++
		q.mu.Unlock()
		w.Header().Set("Retry-After", strconv.Itoa(DefaultRetryAfter))
		s.httpError(w, http.StatusTooManyRequests,
			fmt.Sprintf("tenant %q at quota (%d active campaigns); retry later", tenant, q.quota))
		return
	}
	seq := q.seq
	q.seq++
	c := &campaign{
		seq: seq, id: fmt.Sprintf("c%06d", seq), tenant: tenant,
		priority: priority, engine: req.Engine, req: req.CampaignRequest,
		state: StateQueued, submitted: time.Now(), events: newEventLog(),
	}
	// Journal before acknowledge: the fsync happens under the queue lock
	// so the dispatcher cannot complete (and journal "done" for) a
	// campaign whose submission is not yet durable.
	if err := s.queueJournal.append(queueRecord{
		Op: "submit", Seq: c.seq, ID: c.id, Tenant: c.tenant,
		Priority: c.priority, Engine: c.engine, Req: &c.req, At: c.submitted,
	}); err != nil {
		q.seq = seq
		q.rejected++
		q.mu.Unlock()
		s.httpError(w, http.StatusInternalServerError, "journaling submission: "+err.Error())
		return
	}
	q.byID[c.id] = c
	q.all = append(q.all, c)
	q.submitted++
	position := q.queuedCountLocked()
	c.qspan = s.spans.Start("queue", c.id).SetDetail(tenant)
	s.ensureDispatcherLocked()
	q.cond.Broadcast()
	q.mu.Unlock()

	c.events.emit(queueEvent{Kind: "state", State: StateQueued})
	s.writeJSON(w, http.StatusAccepted, QueueSubmitResponse{
		ID: c.id, State: StateQueued, Position: position,
	})
}

// handleQueueList returns every campaign the server knows, submission
// order, optionally filtered by ?tenant= and ?state=.
func (s *Server) handleQueueList(w http.ResponseWriter, r *http.Request) {
	tenant := r.URL.Query().Get("tenant")
	state := r.URL.Query().Get("state")
	q := s.queue
	q.mu.Lock()
	out := make([]CampaignSummary, 0, len(q.all))
	for _, c := range q.all {
		if tenant != "" && c.tenant != tenant {
			continue
		}
		if state != "" && c.state != state {
			continue
		}
		out = append(out, c.summary())
	}
	q.mu.Unlock()
	s.writeJSON(w, http.StatusOK, out)
}

func (s *Server) lookupCampaign(id string) *campaign {
	s.queue.mu.Lock()
	defer s.queue.mu.Unlock()
	return s.queue.byID[id]
}

// handleQueueGet returns one campaign with its merged result.
func (s *Server) handleQueueGet(w http.ResponseWriter, r *http.Request) {
	c := s.lookupCampaign(r.PathValue("id"))
	if c == nil {
		s.httpError(w, http.StatusNotFound, "unknown campaign")
		return
	}
	s.queue.mu.Lock()
	out := CampaignDetail{CampaignSummary: c.summary(), Result: c.result}
	s.queue.mu.Unlock()
	s.writeJSON(w, http.StatusOK, out)
}

// handleQueueCSV serves a done campaign's CSV artifact — byte-identical
// to what `ballista -csv` writes for the same campaign.
func (s *Server) handleQueueCSV(w http.ResponseWriter, r *http.Request) {
	c := s.lookupCampaign(r.PathValue("id"))
	if c == nil {
		s.httpError(w, http.StatusNotFound, "unknown campaign")
		return
	}
	s.queue.mu.Lock()
	state := c.state
	csv := c.csv
	s.queue.mu.Unlock()
	if state != StateDone {
		s.httpError(w, http.StatusConflict, fmt.Sprintf("campaign is %s, not done", state))
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	w.WriteHeader(http.StatusOK)
	w.Write(csv)
}

// handleQueueEvents streams a campaign's progress as Server-Sent
// Events: the replay buffer first, then live events until the campaign
// reaches a terminal state (or the client disconnects).
func (s *Server) handleQueueEvents(w http.ResponseWriter, r *http.Request) {
	c := s.lookupCampaign(r.PathValue("id"))
	if c == nil {
		s.httpError(w, http.StatusNotFound, "unknown campaign")
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	replay, ch, cancel := c.events.subscribe()
	defer cancel()
	for _, ev := range replay {
		if err := writeSSE(w, ev); err != nil {
			return
		}
	}
	flusher.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, open := <-ch:
			if !open {
				return // terminal event delivered (or server shutdown)
			}
			if err := writeSSE(w, ev); err != nil {
				return
			}
			flusher.Flush()
		}
	}
}

func writeSSE(w http.ResponseWriter, ev queueEvent) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Kind, data)
	return err
}

// StatusResponse is the GET /api/status body: who this server is and
// how its store and queue are doing.
type StatusResponse struct {
	// Version is the code-version stamp (git revision, ldflags override,
	// or catalog-content hash) that also keys the result store.
	Version string       `json:"version"`
	Store   *store.Stats `json:"store,omitempty"`
	Queue   QueueStatus  `json:"queue"`
	// FleetCampaign is the active fleet campaign id, if one is being
	// coordinated.
	FleetCampaign string `json:"fleet_campaign,omitempty"`
}

// QueueStatus summarizes the campaign queue for /api/status.
type QueueStatus struct {
	Queued      int    `json:"queued"`
	Running     int    `json:"running"`
	Submitted   uint64 `json:"submitted"`
	Rejected    uint64 `json:"rejected"`
	Done        uint64 `json:"done"`
	Failed      uint64 `json:"failed"`
	Canceled    uint64 `json:"canceled"`
	TenantQuota int    `json:"tenant_quota"`
	Executors   int    `json:"executors"`
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	qs := s.queue.stats()
	out := StatusResponse{
		Version: version.Stamp(),
		Queue: QueueStatus{
			Queued: qs.Queued, Running: qs.Running,
			Submitted: qs.Submitted, Rejected: qs.Rejected,
			Done: qs.Done, Failed: qs.Failed, Canceled: qs.Canceled,
			TenantQuota: s.queue.quota, Executors: s.queue.executors,
		},
	}
	if s.store != nil {
		st := s.store.Snapshot()
		out.Store = &st
	}
	s.fleetMu.Lock()
	if s.fleetCoord != nil {
		out.FleetCampaign = s.fleetCoord.ID()
	}
	s.fleetMu.Unlock()
	s.writeJSON(w, http.StatusOK, out)
}
