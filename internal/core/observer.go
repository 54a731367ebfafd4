package core

import (
	"time"

	"ballista/internal/api"
	"ballista/internal/catalog"
)

// Observer receives campaign telemetry as the engines execute.  The
// paper's harness "logged every test case executed to disk" so that
// Catastrophic failures could be replayed as single-test programs (§2,
// §3.3); Observer is that logging seam, and every engine — runner,
// farm, sequence fuzzer, fleet coordinator, crash and scarcity sweeps —
// reports through its one method.  The event's concrete type names the
// engine and the action; a sink type-switches on it and ignores the
// kinds it does not count.
//
// An event is valid only until Observe returns: the runner reuses one
// CaseEvent for every case it reports, so a sink that keeps an event
// (or a pointer into it) copies it first.
//
// The runner invokes Observe synchronously from its campaign goroutine,
// in execution order, so an implementation sees a faithful serialized
// history of one runner.  Farm, sweep and fuzzer events fire from their
// merge loops; fleet events fire from concurrent HTTP request handling,
// so an observer shared with a fleet coordinator (or a multi-campaign
// service) must be safe for concurrent use.  A nil Observer on a Config
// is valid and costs nothing on the case path.
type Observer interface {
	Observe(ev Event)
}

// Event is one telemetry event.  It is sealed: its only implementations
// are pointers to the event structs of this package.
type Event interface{ event() }

func (*MuTStartEvent) event() {}
func (*CaseEvent) event()     {}
func (*RebootEvent) event()   {}
func (*CampaignEvent) event() {}
func (*ShardEvent) event()    {}
func (*ChainEvent) event()    {}
func (*FleetEvent) event()    {}
func (*CrashEvent) event()    {}
func (*ScarceEvent) event()   {}

// MuTStartEvent announces a Module under Test's campaign.
type MuTStartEvent struct {
	// OS is the wire name (osprofile.Parse-compatible), so events can
	// drive the testing service directly.
	OS    string
	MuT   string
	API   string
	Group string
	Wide  bool
	// Cases is the number of generated test cases about to run.
	Cases int
}

// KernelSample is a point-in-time reading of the simulated machine's
// health counters, taken immediately after a case classifies.
type KernelSample struct {
	// Epoch counts reboots since the machine booted.
	Epoch int
	// Corruption is the accumulated kernel-heap damage level.
	Corruption int
	// LiveHandles is open minus closed handle-table entries, machine-wide.
	LiveHandles uint64
	// MappedPages is mapped minus unmapped pages across all address
	// spaces the machine created.
	MappedPages uint64
	// ProbeFaults counts failed syscall-boundary pointer probes.
	ProbeFaults uint64
	// HeapBlocks is live (allocated minus freed) heap blocks.
	HeapBlocks uint64
}

// CaseEvent records one executed (or skipped) test case.  Its
// OS/MuT/Case/Wide fields are exactly a service CaseRequest, making
// every record a replayable single-test program.
type CaseEvent struct {
	OS    string
	MuT   string
	API   string
	Group string
	Wide  bool
	// Case holds the test value indices, one per parameter.
	Case Case
	// Seq is the case ordinal within its MuT campaign (0-based); -1 for
	// standalone RunCase/RunProbe executions.
	Seq int
	// Class is the CRASH classification.
	Class RawClass
	// Exceptional marks cases containing at least one exceptional value.
	Exceptional bool
	// ErrCode is errno or the GetLastError value when ErrReported.
	ErrCode     uint32
	ErrReported bool
	// Exception is the unhandled SEH code or signal number, if any.
	Exception uint32
	IsSignal  bool
	// CrashReason describes a Catastrophic outcome.
	CrashReason string
	// Kernel samples machine health right after classification.
	Kernel KernelSample
	// SimTicks is simulated time consumed by the case.
	SimTicks uint64
	// Wall is host wall-clock time consumed by the case.
	Wall time.Duration
}

// RebootEvent records one machine reboot after a Catastrophic failure.
type RebootEvent struct {
	OS  string
	MuT string
	// Epoch is the machine's epoch after this reboot.
	Epoch int
	// Reason is the crash reason that forced the reboot.
	Reason string
}

// CampaignEvent closes a RunAll campaign over one OS variant.
type CampaignEvent struct {
	OS       string
	MuTs     int
	CasesRun int
	Reboots  int
	Wall     time.Duration
}

// ShardEvent reports one MuT shard completed by a farm worker — the
// parallel campaign's unit of scheduling (see internal/farm).  It exists
// so telemetry can attribute throughput to individual workers, the way
// the paper's six physical test machines were tracked separately.
type ShardEvent struct {
	OS string
	// Worker is the 0-based index of the farm worker that ran the shard.
	Worker int
	// Shard is the shard's index in stable catalog order.
	Shard int
	MuT   string
	Wide  bool
	// Cases is the number of test cases the shard executed.
	Cases int
	// Reboots counts machine reboots the shard forced on its worker.
	Reboots int
	// Wall is host wall-clock time the shard consumed.
	Wall time.Duration
}

// ChainStep is one call of a sequence chain: a MuT named by its wire
// name plus the test-value indices for each parameter.  The JSON shape
// is shared by chain trace records, corpus checkpoints and minimized
// reproducers, so any of them replays through explore.RunChain.
type ChainStep struct {
	MuT  string `json:"mut"`
	Case Case   `json:"case"`
}

// ChainEvent reports one call chain evaluated by the coverage-guided
// sequence fuzzer (internal/explore): the chain itself, its per-OS CRASH
// classes from the differential oracle, and the coverage verdict.
// Events fire in deterministic candidate order from the fuzzer's merge
// loop, never concurrently from its workers.
type ChainEvent struct {
	// OS is the wire name of the fuzzer's primary (coverage) OS.
	OS string
	// Seq is the candidate ordinal within the fuzzing campaign.
	Seq int
	// Steps is the chain, replayable via explore.RunChain.
	Steps []ChainStep
	Wide  bool
	// Classes maps OS wire name to the per-step CRASH classes the
	// differential oracle observed.
	Classes map[string][]RawClass
	// Novel marks a chain that reached a new kernel-state fingerprint and
	// joined the corpus.
	Novel bool
	// Divergent marks a chain whose final step classified differently
	// across the OS set (the paper's Table 4 comparison, mechanized).
	Divergent bool
	// Catastrophic marks a chain that crashed at least one OS's machine.
	Catastrophic bool
	// Fingerprint is the combined cross-OS kernel-state fingerprint.
	Fingerprint uint64
	// CorpusSize is the corpus (coverage frontier) size after this chain.
	CorpusSize int
}

// FleetEvent reports one control-plane action of a distributed-campaign
// coordinator (see internal/fleet): lease grants, expiries and steals,
// result uploads and their dedup hits, worker liveness, and RPC byte
// counts.  Unlike the runner's events, fleet events fire from concurrent
// HTTP request handling, so observers must be safe for concurrent use
// (the stock internal/telemetry observers are).
type FleetEvent struct {
	// Kind discriminates the action: "worker_join", "lease_granted",
	// "lease_expired", "lease_stolen", "upload", "upload_dedup",
	// "campaign_done", or "rpc" (one HTTP exchange, metrics only).
	Kind string
	// Worker names the fleet worker involved, when one is.
	Worker string
	// Gen and Task identify the lease unit (farm shards are generation 0
	// with Task = shard index; explore batches advance the generation).
	Gen  int
	Task int
	// Version is the lease's monotonic assignment version at the time of
	// the event.
	Version uint64
	// Live is the coordinator's worker-liveness gauge after the event.
	Live int
	// BytesIn/BytesOut are request/response body sizes ("rpc" events).
	BytesIn  int
	BytesOut int
}

// CrashEvent reports one bounded workload evaluated by the
// crash-consistency differential oracle (internal/crashsim): the
// workload chain, how many legal post-crash states the OS profiles'
// durability policies admitted, and whether any invariant was violated
// or any profile diverged.  Events fire in deterministic workload order
// from the sweep's merge loop, never concurrently from its workers.
type CrashEvent struct {
	// Seq is the workload ordinal within the sweep's enumeration.
	Seq int
	// Workload is the compact op-chain key ("create(f1);rename(f1,f0)").
	Workload string
	// OSes lists the wire names checked.
	OSes []string
	// CrashPoints is the number of crash points enumerated (one per op).
	CrashPoints int
	// States is the total count of legal post-crash states checked
	// across all OSes and crash points.
	States int
	// Violations counts (OS, crash point) pairs with at least one
	// invariant violation.
	Violations int
	// Divergent marks a workload whose op results or violation sets
	// differ across the OS set.
	Divergent bool
	// Violating marks a workload with at least one invariant violation
	// on at least one OS.
	Violating bool
}

// ScarceEvent reports one (MuT, environment) item evaluated by the
// resource-scarcity sweep (internal/scarce): which depleted environment
// the MuT ran inside, and how the differential oracles judged it across
// the OS set.  Events fire in deterministic enumeration order from the
// sweep's merge loop, never concurrently from its workers.
type ScarceEvent struct {
	// Seq is the item ordinal within the sweep's enumeration.
	Seq int
	// MuT / API name the module under test.
	MuT string
	API string
	// Env names the scarcity environment (e.g. "handle-starved").
	Env string
	// OSes lists the wire names that support the MuT and were probed.
	OSes []string
	// Crashed counts OSes whose machine went down under scarcity.
	Crashed int
	// Leaked counts OSes where the error path left resources allocated.
	Leaked int
	// Ungraceful counts OSes that failed the degradation oracle without
	// crashing: a wrong error code, or a silent success that lied.
	Ungraceful int
	// Divergent marks an item whose verdict pattern differs across OSes.
	Divergent bool
	// Violating marks an item with at least one oracle violation.
	Violating bool
}

// caseEvent fills the runner's reusable CaseEvent, so an observed case
// allocates nothing for its event; called only when an observer is set.
func (r *Runner) caseEvent(m catalog.MuT, types []*DataType, tc Case, wide bool, seq int,
	cls RawClass, out *api.Outcome, ticks0 uint64, wall time.Duration) *CaseEvent {
	if r.ev == nil {
		r.ev = new(CaseEvent)
	}
	k := r.kernel
	ev := r.ev
	*ev = CaseEvent{
		OS:          r.cfg.OS.WireName(),
		MuT:         m.Name,
		API:         m.API.String(),
		Group:       m.Group.String(),
		Wide:        wide,
		Case:        tc,
		Seq:         seq,
		Class:       cls,
		Exceptional: exceptionalCase(types, tc),
		SimTicks:    k.Ticks() - ticks0,
		Wall:        wall,
	}
	if out != nil {
		ev.ErrCode = out.Err
		ev.ErrReported = out.ErrReported
		ev.Exception = out.Exception
		ev.IsSignal = out.IsSignal
		ev.CrashReason = out.CrashReason
	}
	ks := k.Stats()
	ev.Kernel = KernelSample{
		Epoch:       k.Epoch,
		Corruption:  k.Corruption(),
		LiveHandles: ks.LiveHandles(),
		MappedPages: k.MemStats().LivePages(),
		ProbeFaults: ks.ProbeFaults,
		HeapBlocks:  k.MemStats().LiveBlocks(),
	}
	return ev
}
