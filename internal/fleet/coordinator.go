package fleet

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"ballista/internal/chaos"
	"ballista/internal/core"
	"ballista/internal/explore"
	"ballista/internal/farm"
	"ballista/internal/osprofile"
	"ballista/internal/sweep"
	"ballista/internal/telemetry"
	"ballista/internal/telemetry/span"
	"ballista/internal/version"
)

// exploreChunk is how many fuzzer candidates travel in one lease: small
// enough to keep stragglers cheap, large enough to amortize the RPC.
const exploreChunk = 4

// Config assembles a coordinator.
type Config struct {
	Spec CampaignSpec
	// TTL is the lease lifetime (default 15s).  A worker silent for a
	// TTL loses its leases to the next Lease caller.
	TTL time.Duration
	// Heartbeat is the interval suggested to workers (default TTL/3).
	Heartbeat time.Duration
	// Journal is the shard-journal path ("farm" kind): a sweep.Journal
	// of kind "farm" whose header carries the campaign ID.  Each uploaded
	// shard is appended and fsync'd on its own before it is
	// acknowledged, and a restarted coordinator resumes from it.  Empty
	// disables persistence.
	Journal string
	// Chaos/ChaosStats arm harness-domain faults on journal writes
	// (site "fleet"), same as the farm's checkpoint machinery.
	Chaos      *chaos.Plan
	ChaosStats *chaos.Stats
	// Observer receives control-plane FleetEvents (may be nil).  Fleet
	// events fire from concurrent HTTP handling; the internal/telemetry
	// observers are safe.
	Observer core.Observer
	// Spans, when non-nil, records control-plane spans (join, lease,
	// upload, heartbeat), stamped with the campaign identity hash as the
	// trace ID, and serves them on GET /fleet/v1/spans.
	Spans *span.Recorder
	Log   *telemetry.Logger
}

// unitKey identifies one work unit: generation 0 is the farm shard
// catalog, explore batches count up from 1.
type unitKey struct{ gen, task int }

// unit is the lease table entry for one work unit.
type unit struct {
	shard  *farm.ShardDesc
	chains []explore.Chain

	worker  string
	version uint64
	expiry  time.Time
	grants  int

	done     bool
	hash     string
	shardRes farm.ShardResult
	chainRes []explore.ChainOutcome
}

// Coordinator owns one distributed campaign: the lease table, the
// result set, the worker roster and the shard journal.
type Coordinator struct {
	cfg  Config
	id   string
	os   osprofile.OS // "farm" kind
	desc []farm.ShardDesc

	mu       sync.Mutex
	cond     *sync.Cond
	units    map[unitKey]*unit
	queue    []unitKey
	versions uint64

	workers map[string]time.Time // name -> last seen
	seen    map[string]bool      // every worker name ever seen
	nameSeq int

	farmDone int
	nextGen  int
	genOpen  map[int]int // open (not-done) unit count per explore gen
	genSize  map[int]int // unit count per explore gen
	finished bool

	jnl *sweep.Journal[farm.ShardResult]

	handlerOnce sync.Once
	handler     http.Handler

	now func() time.Time
}

// New builds a coordinator for one campaign.  For "farm" kinds with a
// journal path, previously journaled shards are restored as completed
// units before any lease is granted.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Spec.V == 0 {
		cfg.Spec.V = SpecVersion
	}
	if cfg.Spec.V != SpecVersion {
		return nil, fmt.Errorf("fleet: unsupported spec version %d", cfg.Spec.V)
	}
	if cfg.Spec.Code == "" {
		cfg.Spec.Code = version.Stamp()
	}
	if cfg.TTL <= 0 {
		cfg.TTL = 15 * time.Second
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = cfg.TTL / 3
	}
	c := &Coordinator{
		cfg:     cfg,
		units:   make(map[unitKey]*unit),
		workers: make(map[string]time.Time),
		seen:    make(map[string]bool),
		nextGen: 1,
		genOpen: make(map[int]int),
		genSize: make(map[int]int),
		now:     time.Now,
	}
	c.cond = sync.NewCond(&c.mu)

	switch cfg.Spec.Kind {
	case KindFarm:
		o, ok := osprofile.Parse(cfg.Spec.OS)
		if !ok {
			return nil, fmt.Errorf("fleet: unknown OS %q", cfg.Spec.OS)
		}
		if c.cfg.Spec.Cap <= 0 {
			c.cfg.Spec.Cap = core.DefaultCap
		}
		c.os = o
		c.desc = farm.ShardDescs(o)
	case KindExplore:
		if len(cfg.Spec.OSes) == 0 {
			return nil, fmt.Errorf("fleet: explore campaign needs a resolved OS set")
		}
		for _, name := range cfg.Spec.OSes {
			if _, ok := osprofile.Parse(name); !ok {
				return nil, fmt.Errorf("fleet: unknown OS %q", name)
			}
		}
	default:
		return nil, fmt.Errorf("fleet: unknown campaign kind %q", cfg.Spec.Kind)
	}
	c.id = c.cfg.Spec.ID()
	// The campaign identity is the fleet's trace ID: every span the
	// coordinator (or a joined worker) records links back to it.
	c.cfg.Spans.SetTrace(c.id)
	if cfg.Spec.Kind == KindFarm {
		if err := c.initFarm(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// initFarm builds the generation-0 unit table, restoring completed
// shards from the shard journal.  A restored shard is validated against
// its descriptor as an upload is.
func (c *Coordinator) initFarm() error {
	restored := make([]*farm.ShardResult, len(c.desc))
	if c.cfg.Journal != "" {
		jnl, err := sweep.OpenJournal(c.cfg.Journal, KindFarm, c.id, restored)
		if err != nil {
			return err
		}
		for i, sr := range restored {
			if sr == nil {
				continue
			}
			if _, err := sr.Decode(c.os, c.desc[i]); err != nil {
				jnl.Close()
				return fmt.Errorf("fleet: journal %s: %w", c.cfg.Journal, err)
			}
		}
		var inj *chaos.Injector
		if c.cfg.Chaos != nil {
			inj = c.cfg.Chaos.NewInjector(c.cfg.ChaosStats)
		}
		jnl.Arm(inj, c.cfg.ChaosStats, "fleet")
		c.jnl = jnl
	}
	for i := range c.desc {
		d := c.desc[i]
		u := &unit{shard: &d}
		if sr := restored[i]; sr != nil {
			u.done = true
			u.shardRes = *sr
			u.hash = PayloadHash(*sr)
			c.farmDone++
		} else {
			c.queue = append(c.queue, unitKey{0, i})
		}
		c.units[unitKey{0, i}] = u
	}
	c.cfg.Log.Printf("campaign %s: %d shards, %d restored from journal",
		c.id, len(c.desc), c.farmDone)
	return nil
}

// ID returns the campaign identity hash.
func (c *Coordinator) ID() string { return c.id }

// Spec returns the normalized campaign spec.
func (c *Coordinator) Spec() CampaignSpec { return c.cfg.Spec }

// Close releases the shard journal.  The lease table stays readable.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	jnl := c.jnl
	c.jnl = nil
	c.mu.Unlock()
	if jnl != nil {
		return jnl.Close()
	}
	return nil
}

// emit fires observer events outside the coordinator lock.
func (c *Coordinator) emit(evs ...core.FleetEvent) {
	if c.cfg.Observer == nil {
		return
	}
	for _, ev := range evs {
		c.cfg.Observer.Observe(&ev) // a copy, so evs stays on the caller's stack
	}
}

// markSeenLocked refreshes a worker's liveness and prunes workers
// silent for several TTLs.  Returns the live-worker gauge.
func (c *Coordinator) markSeenLocked(worker string, now time.Time) int {
	if worker != "" {
		c.seen[worker] = true
		c.workers[worker] = now
	}
	for w, seen := range c.workers {
		if now.Sub(seen) > 3*c.cfg.TTL {
			delete(c.workers, w)
		}
	}
	return len(c.workers)
}

// expireLocked scans for expired leases and returns them to the front
// of the queue, collecting the events to emit after unlock.
func (c *Coordinator) expireLocked(now time.Time, live int) []core.FleetEvent {
	var evs []core.FleetEvent
	for key, u := range c.units {
		if u.done || u.worker == "" || now.Before(u.expiry) {
			continue
		}
		evs = append(evs, core.FleetEvent{
			Kind: "lease_expired", Worker: u.worker,
			Gen: key.gen, Task: key.task, Version: u.version, Live: live,
		})
		c.cfg.Log.Printf("campaign %s: lease %d/%d expired on %s",
			c.id, key.gen, key.task, u.worker)
		u.worker = ""
		c.queue = append([]unitKey{key}, c.queue...)
	}
	return evs
}

// finishedLocked reports whether every unit the campaign will ever have
// is done.
func (c *Coordinator) finishedLocked() bool {
	if c.cfg.Spec.Kind == KindFarm {
		return c.farmDone == len(c.desc)
	}
	return c.finished
}

// Join registers a worker and hands it the campaign.
func (c *Coordinator) Join(req JoinRequest) *JoinResponse {
	sp := c.cfg.Spans.Start("join", req.Name).SetWorker(req.Name)
	defer sp.End()
	c.mu.Lock()
	name := req.Name
	if name == "" {
		c.nameSeq++
		name = fmt.Sprintf("w%d", c.nameSeq)
	}
	live := c.markSeenLocked(name, c.now())
	c.mu.Unlock()
	c.emit(core.FleetEvent{Kind: "worker_join", Worker: name, Live: live})
	c.cfg.Log.Printf("campaign %s: worker %s joined (%d live)", c.id, name, live)
	return &JoinResponse{
		Worker: name, Campaign: c.id, Spec: c.cfg.Spec,
		TTLMS:       c.cfg.TTL.Milliseconds(),
		HeartbeatMS: c.cfg.Heartbeat.Milliseconds(),
	}
}

// Lease grants the next work unit.  Expired leases are reclaimed first,
// so a reclaimed unit is re-granted ("stolen") before fresh work.
func (c *Coordinator) Lease(req LeaseRequest) (*LeaseResponse, error) {
	if req.Campaign != c.id {
		return nil, fmt.Errorf("%w: lease for %q, campaign is %q", ErrWrongCampaign, req.Campaign, c.id)
	}
	sp := c.cfg.Spans.Start("lease", "").SetWorker(req.Worker)
	defer sp.End()
	now := c.now()
	c.mu.Lock()
	live := c.markSeenLocked(req.Worker, now)
	evs := c.expireLocked(now, live)
	if len(c.queue) == 0 {
		done := c.finishedLocked()
		c.mu.Unlock()
		c.emit(evs...)
		if done {
			return &LeaseResponse{Done: true}, nil
		}
		wait := c.cfg.Heartbeat.Milliseconds() / 2
		if wait < 10 {
			wait = 10
		}
		return &LeaseResponse{WaitMS: wait}, nil
	}
	key := c.queue[0]
	c.queue = c.queue[1:]
	sp.SetName(fmt.Sprintf("%d/%d", key.gen, key.task))
	u := c.units[key]
	c.versions++
	u.version = c.versions
	u.worker = req.Worker
	u.expiry = now.Add(c.cfg.TTL)
	u.grants++
	stolen := u.grants > 1
	lease := &Lease{
		Gen: key.gen, Task: key.task, Version: u.version,
		TTLMS: c.cfg.TTL.Milliseconds(),
		Shard: u.shard, Chains: u.chains,
	}
	c.mu.Unlock()
	evs = append(evs, core.FleetEvent{
		Kind: "lease_granted", Worker: req.Worker,
		Gen: key.gen, Task: key.task, Version: lease.Version, Live: live,
	})
	if stolen {
		evs = append(evs, core.FleetEvent{
			Kind: "lease_stolen", Worker: req.Worker,
			Gen: key.gen, Task: key.task, Version: lease.Version, Live: live,
		})
	}
	c.emit(evs...)
	return &LeaseResponse{Lease: lease}, nil
}

// Heartbeat extends every lease the worker holds to a fresh TTL.
func (c *Coordinator) Heartbeat(req HeartbeatRequest) (*HeartbeatResponse, error) {
	if req.Campaign != c.id {
		return nil, fmt.Errorf("%w: heartbeat for %q, campaign is %q", ErrWrongCampaign, req.Campaign, c.id)
	}
	sp := c.cfg.Spans.Start("heartbeat", "").SetWorker(req.Worker)
	defer sp.End()
	now := c.now()
	c.mu.Lock()
	c.markSeenLocked(req.Worker, now)
	for _, u := range c.units {
		if !u.done && u.worker == req.Worker {
			u.expiry = now.Add(c.cfg.TTL)
		}
	}
	done := c.finishedLocked()
	c.mu.Unlock()
	return &HeartbeatResponse{OK: true, Done: done}, nil
}

// Upload collects one completed unit.  Verification order: campaign,
// unit existence, content hash, then idempotency — a repeat of a
// completed unit with identical content is a dedup hit, different
// content is a conflict.  Farm shards are journaled before they are
// acknowledged, so an acknowledged shard survives a coordinator kill.
func (c *Coordinator) Upload(req UploadRequest) (*UploadResponse, error) {
	if req.Campaign != c.id {
		return nil, fmt.Errorf("%w: upload for %q, campaign is %q", ErrWrongCampaign, req.Campaign, c.id)
	}
	sp := c.cfg.Spans.Start("upload", fmt.Sprintf("%d/%d", req.Gen, req.Task)).SetWorker(req.Worker)
	defer sp.End()
	key := unitKey{req.Gen, req.Task}
	now := c.now()
	c.mu.Lock()
	live := c.markSeenLocked(req.Worker, now)
	u, ok := c.units[key]
	if !ok {
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: %d/%d", ErrUnknownUnit, req.Gen, req.Task)
	}
	hash, err := c.verifyLocked(u, &req)
	if err != nil {
		c.mu.Unlock()
		return nil, err
	}
	if u.done {
		same := hash == u.hash
		c.mu.Unlock()
		if same {
			c.emit(core.FleetEvent{
				Kind: "upload_dedup", Worker: req.Worker,
				Gen: req.Gen, Task: req.Task, Version: req.Version, Live: live,
			})
			return &UploadResponse{Status: "duplicate"}, nil
		}
		return nil, fmt.Errorf("%w: unit %d/%d", ErrConflict, req.Gen, req.Task)
	}
	if req.Shard != nil {
		// Journal before acknowledging: an acknowledged shard must
		// survive a coordinator kill, or resume would re-run it.
		if c.jnl != nil {
			if err := c.jnl.Append(req.Task, req.Shard); err != nil {
				c.mu.Unlock()
				return nil, fmt.Errorf("fleet: journaling shard %d: %w", req.Task, err)
			}
		}
		u.shardRes = *req.Shard
		c.farmDone++
	} else {
		u.chainRes = req.Chains
		c.genOpen[req.Gen]--
	}
	u.done = true
	u.hash = hash
	u.worker = ""
	campaignDone := c.finishedLocked()
	c.cond.Broadcast()
	c.mu.Unlock()
	evs := []core.FleetEvent{{
		Kind: "upload", Worker: req.Worker,
		Gen: req.Gen, Task: req.Task, Version: req.Version, Live: live,
	}}
	if campaignDone {
		evs = append(evs, core.FleetEvent{Kind: "campaign_done", Live: live})
		c.cfg.Log.Printf("campaign %s: all %d units collected", c.id, len(c.units))
	}
	c.emit(evs...)
	return &UploadResponse{Status: "accepted"}, nil
}

// verifyLocked checks an upload's shape and content hash against the
// unit, returning the server-side hash.
func (c *Coordinator) verifyLocked(u *unit, req *UploadRequest) (string, error) {
	var hash string
	switch {
	case u.shard != nil:
		if req.Shard == nil {
			return "", fmt.Errorf("%w: farm unit needs a shard result", ErrBadPayload)
		}
		if _, err := req.Shard.Decode(c.os, *u.shard); err != nil {
			return "", fmt.Errorf("%w: %v", ErrBadPayload, err)
		}
		hash = PayloadHash(*req.Shard)
	default:
		if req.Shard != nil || len(req.Chains) != len(u.chains) {
			return "", fmt.Errorf("%w: explore unit needs %d chain outcomes", ErrBadPayload, len(u.chains))
		}
		for i, co := range req.Chains {
			if _, err := explore.ParseFingerprint(co.FP); err != nil {
				return "", fmt.Errorf("%w: outcome %d: %v", ErrBadPayload, i, err)
			}
			if len(co.Classes) != len(c.cfg.Spec.OSes) {
				return "", fmt.Errorf("%w: outcome %d has %d OS class vectors, want %d",
					ErrBadPayload, i, len(co.Classes), len(c.cfg.Spec.OSes))
			}
		}
		hash = PayloadHash(req.Chains)
	}
	if req.Hash != hash {
		return "", fmt.Errorf("%w: content hash mismatch", ErrBadPayload)
	}
	return hash, nil
}

// Status snapshots the coordinator's public state.
func (c *Coordinator) Status() *StatusResponse {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	live := c.markSeenLocked("", now)
	done := 0
	for _, u := range c.units {
		if u.done {
			done++
		}
	}
	return &StatusResponse{
		Campaign: c.id, Kind: c.cfg.Spec.Kind,
		Units: len(c.units), Done: done,
		Workers: live, Finished: c.finishedLocked(),
	}
}

// WorkersSeen counts distinct workers over the campaign's lifetime.
func (c *Coordinator) WorkersSeen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.seen)
}

// Wait blocks until every farm shard is collected, then merges the
// results in stable catalog order — byte-identical to a single-process
// farm run.
func (c *Coordinator) Wait(ctx context.Context) (*core.OSResult, error) {
	if c.cfg.Spec.Kind != KindFarm {
		return nil, fmt.Errorf("fleet: Wait is for farm campaigns")
	}
	stop := context.AfterFunc(ctx, func() {
		c.mu.Lock()
		c.mu.Unlock() //nolint:staticcheck // lock barrier so waiters observe ctx
		c.cond.Broadcast()
	})
	defer stop()
	c.mu.Lock()
	for c.farmDone < len(c.desc) && ctx.Err() == nil {
		c.cond.Wait()
	}
	if err := ctx.Err(); err != nil {
		c.mu.Unlock()
		return nil, err
	}
	results := make([]farm.ShardResult, len(c.desc))
	for i := range c.desc {
		results[i] = c.units[unitKey{0, i}].shardRes
	}
	c.mu.Unlock()
	return farm.MergeShardResults(c.os, c.desc, results)
}

// SubmitChains queues one explore batch for remote evaluation and
// returns its generation number.
func (c *Coordinator) SubmitChains(chains []explore.Chain) int {
	c.mu.Lock()
	gen := c.nextGen
	c.nextGen++
	tasks := 0
	for off := 0; off < len(chains); off += exploreChunk {
		end := off + exploreChunk
		if end > len(chains) {
			end = len(chains)
		}
		key := unitKey{gen, tasks}
		c.units[key] = &unit{chains: chains[off:end]}
		c.queue = append(c.queue, key)
		tasks++
	}
	c.genSize[gen] = tasks
	c.genOpen[gen] = tasks
	c.mu.Unlock()
	return gen
}

// AwaitGen blocks until a generation's outcomes are all collected and
// returns them concatenated in submission order.
func (c *Coordinator) AwaitGen(ctx context.Context, gen int) ([]explore.ChainOutcome, error) {
	stop := context.AfterFunc(ctx, func() {
		c.mu.Lock()
		c.mu.Unlock() //nolint:staticcheck // lock barrier so waiters observe ctx
		c.cond.Broadcast()
	})
	defer stop()
	c.mu.Lock()
	for c.genOpen[gen] > 0 && ctx.Err() == nil {
		c.cond.Wait()
	}
	if err := ctx.Err(); err != nil {
		c.mu.Unlock()
		return nil, err
	}
	var out []explore.ChainOutcome
	for task := 0; task < c.genSize[gen]; task++ {
		out = append(out, c.units[unitKey{gen, task}].chainRes...)
	}
	c.mu.Unlock()
	return out, nil
}

// Finish marks an explore campaign complete, releasing idle workers.
func (c *Coordinator) Finish() {
	c.mu.Lock()
	c.finished = true
	c.cond.Broadcast()
	c.mu.Unlock()
}

// RemoteEval adapts the coordinator into the fuzzer's remote-evaluation
// hook: each batch becomes one generation of leased chunks.
func (c *Coordinator) RemoteEval() explore.RemoteEval {
	return func(ctx context.Context, chains []explore.Chain) ([]explore.ChainOutcome, error) {
		return c.AwaitGen(ctx, c.SubmitChains(chains))
	}
}
