// Package fleet distributes Ballista campaigns over the network: one
// coordinator owns the campaign, any number of worker processes join it
// over HTTP/JSON, lease units of work, and stream results back.
//
// The contract is the farm's, lifted across machines: the final merged
// report is byte-identical to a single-process run for any worker
// count, any join order, and any failure schedule the chaos plane can
// produce (dropped RPCs, duplicated uploads, delayed heartbeats, killed
// workers, a killed-and-restarted coordinator).  Three mechanisms carry
// that guarantee:
//
//   - TTL leases with monotonic versions.  Work units are granted
//     at-least-once: a worker that stops heartbeating loses its lease
//     at expiry and the unit is re-granted ("stolen") to the next
//     caller.  Versions only ever grow, so a stale assignment is
//     recognizable on sight.
//   - Idempotent, content-hashed collection.  Every upload carries the
//     sha256 of its payload; the coordinator recomputes it server-side.
//     A re-upload of a completed unit with the same hash is a dedup hit
//     ("duplicate"), a different hash is a conflict — at-least-once
//     execution plus deterministic units makes collection exactly-once
//     in effect.
//   - The sweep journal, one fsync per upload.  Completed farm shards
//     are journaled before they are acknowledged, so a coordinator
//     killed mid-campaign resumes from the journal without re-running
//     them.
//
// Two campaign kinds share the fabric: "farm" distributes the MuT
// shard catalog (internal/farm), "explore" evaluates the sequence
// fuzzer's candidate batches remotely (internal/explore's RemoteEval
// hook); generation 0 is the farm catalog, explore batches count up
// from 1.
package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"ballista/internal/chaos"
	"ballista/internal/explore"
	"ballista/internal/farm"
)

// Campaign kinds.
const (
	KindFarm    = "farm"
	KindExplore = "explore"
)

// SpecVersion is the wire version of CampaignSpec.
const SpecVersion = 1

// CampaignSpec tells a joining worker everything it needs to rebuild
// the campaign's substrate locally: the spec plus the shared catalog is
// the whole campaign, which is what keeps units deterministic on any
// machine.
type CampaignSpec struct {
	V    int    `json:"v"`
	Kind string `json:"kind"` // "farm" or "explore"
	// Code is the coordinator's code-version stamp (git revision or
	// catalog hash; see internal/version).  It folds the build into the
	// campaign identity, so workers running a different build are turned
	// away at join instead of merging incompatible results.
	Code string `json:"code,omitempty"`
	// OS is the campaign OS wire name ("farm" kind).
	OS string `json:"os,omitempty"`
	// Cap bounds test cases per MuT.
	Cap int `json:"cap,omitempty"`
	// CaseDeadlineMS arms the per-case watchdog on worker runners.
	CaseDeadlineMS int64 `json:"case_deadline_ms,omitempty"`
	// Chaos is the substrate fault plan the workers' machines run under
	// (not the transport plan — that is per-client, see ClientConfig).
	Chaos *chaos.Plan `json:"chaos,omitempty"`
	// OSes is the resolved differential-oracle OS set in evaluation
	// order ("explore" kind; see explore.ResolveOSes).
	OSes []string `json:"oses,omitempty"`
}

// ID is the campaign identity: a hash of the spec.  Workers echo it on
// every request, so a worker that reconnects to a restarted coordinator
// running a different campaign is turned away instead of polluting it.
func (s CampaignSpec) ID() string {
	data, err := json.Marshal(s)
	if err != nil {
		panic(fmt.Sprintf("fleet: marshalling campaign spec: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// PayloadHash is the content hash uploads are dedup'd by: sha256 over
// the canonical JSON encoding of the payload.
func PayloadHash(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("fleet: marshalling payload: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Wire messages (POST bodies and responses under /fleet/v1/).

// JoinRequest registers a worker with the coordinator.
type JoinRequest struct {
	// Name is the worker's self-chosen name; empty lets the coordinator
	// assign one.  Rejoining under the same name resumes that identity.
	Name string `json:"name,omitempty"`
}

// JoinResponse hands the worker its identity and the campaign.
type JoinResponse struct {
	Worker   string       `json:"worker"`
	Campaign string       `json:"campaign"`
	Spec     CampaignSpec `json:"spec"`
	// TTLMS is the lease TTL; a worker that cannot finish a unit within
	// it must heartbeat or lose the lease.
	TTLMS int64 `json:"ttl_ms"`
	// HeartbeatMS is the suggested heartbeat interval (a fraction of
	// the TTL).
	HeartbeatMS int64 `json:"heartbeat_ms"`
}

// LeaseRequest asks for one unit of work.
type LeaseRequest struct {
	Campaign string `json:"campaign"`
	Worker   string `json:"worker"`
}

// Lease is one granted work unit.
type Lease struct {
	// Gen/Task identify the unit: generation 0 task N is farm shard N;
	// explore batches are generations >= 1.
	Gen  int `json:"gen"`
	Task int `json:"task"`
	// Version is the monotonic assignment version; it grows on every
	// grant, including re-grants of expired leases.
	Version uint64 `json:"version"`
	TTLMS   int64  `json:"ttl_ms"`
	// Exactly one payload is set, matching the campaign kind.
	Shard  *farm.ShardDesc `json:"shard,omitempty"`
	Chains []explore.Chain `json:"chains,omitempty"`
}

// LeaseResponse grants a lease, reports completion, or asks the worker
// to poll again in WaitMS.
type LeaseResponse struct {
	Lease  *Lease `json:"lease,omitempty"`
	Done   bool   `json:"done,omitempty"`
	WaitMS int64  `json:"wait_ms,omitempty"`
}

// UploadRequest streams one completed unit back.
type UploadRequest struct {
	Campaign string `json:"campaign"`
	Worker   string `json:"worker"`
	Gen      int    `json:"gen"`
	Task     int    `json:"task"`
	Version  uint64 `json:"version"`
	// Hash is PayloadHash of the set payload; the coordinator verifies
	// it server-side before accepting.
	Hash   string                 `json:"hash"`
	Shard  *farm.ShardResult      `json:"shard,omitempty"`
	Chains []explore.ChainOutcome `json:"chains,omitempty"`
}

// UploadResponse acknowledges a result: "accepted" the first time,
// "duplicate" for an idempotent re-send of identical content.
type UploadResponse struct {
	Status string `json:"status"`
}

// HeartbeatRequest extends every lease the worker holds.
type HeartbeatRequest struct {
	Campaign string `json:"campaign"`
	Worker   string `json:"worker"`
}

// HeartbeatResponse acknowledges liveness; Done tells an idle worker
// the campaign is over.
type HeartbeatResponse struct {
	OK   bool `json:"ok"`
	Done bool `json:"done,omitempty"`
}

// StatusResponse is the coordinator's public state snapshot.
type StatusResponse struct {
	Campaign string `json:"campaign"`
	Kind     string `json:"kind"`
	Units    int    `json:"units"`
	Done     int    `json:"done"`
	Workers  int    `json:"workers"`
	Finished bool   `json:"finished"`
}

// Coordinator-side request rejections, mapped to HTTP statuses by the
// handler (and back to permanent client errors by the client).
var (
	// ErrWrongCampaign rejects a request whose campaign ID does not
	// match (a worker talking to the wrong — or restarted-with-a-new-
	// spec — coordinator).
	ErrWrongCampaign = errors.New("fleet: campaign mismatch")
	// ErrUnknownUnit rejects an upload for a unit that does not exist.
	ErrUnknownUnit = errors.New("fleet: unknown work unit")
	// ErrBadPayload rejects an upload whose content hash or shape does
	// not verify.
	ErrBadPayload = errors.New("fleet: payload failed verification")
	// ErrConflict rejects an upload for a completed unit with different
	// content — a determinism violation, never expected from honest
	// workers.
	ErrConflict = errors.New("fleet: conflicting result for completed unit")
)

// ShardExecutor runs one farm shard to completion ("farm" campaigns);
// farm.Executor implements it.
type ShardExecutor interface {
	RunShard(ctx context.Context, d farm.ShardDesc) (farm.ShardResult, error)
}

// ChainEvaluator evaluates one fuzzer candidate ("explore" campaigns);
// explore.Evaluator implements it.
type ChainEvaluator interface {
	EvalChain(ch explore.Chain) (explore.ChainOutcome, error)
}

// Env supplies the worker's campaign-kind factories.  The ballista
// facade provides the full-suite Env; tests can substitute lighter
// ones.  A nil factory rejects that campaign kind at join time.
type Env struct {
	NewShardExecutor  func(spec CampaignSpec) (ShardExecutor, error)
	NewChainEvaluator func(spec CampaignSpec) (ChainEvaluator, error)
}
