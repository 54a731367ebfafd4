// Package chaos is the seeded environmental fault-injection plane for
// the simulated substrate and the harness around it.
//
// The paper measures how APIs respond to exceptional *arguments*; real
// robustness failures also come from the environment — full disks,
// failed commits, wedged calls — and from the test harness itself
// (checkpoint writes that tear, workers that panic).  A chaos Plan
// describes both fault domains as data: a seed plus a list of rules,
// JSON-serializable so a failing run is replayable from its plan alone.
//
// Determinism is the load-bearing property.  Every decision an Injector
// makes is a pure function of (plan seed, rule index, operation, site
// name, per-site hit ordinal); nothing depends on wall-clock time,
// goroutine scheduling or global state.  A fresh Injector session is
// created per simulated-machine boot, so a farm shard's fault stream
// depends only on the shard — the same property that makes the farm's
// parallel schedule deterministic keeps it deterministic under injected
// faults.
//
// Two fault domains with different contracts:
//
//   - Substrate faults (fs.*, mem.*, kern.*) perturb the simulated
//     environment the APIs under test observe.  They deterministically
//     change campaign results — a new experiment dimension, not noise.
//   - Harness faults (ckpt.*, worker.*) attack the harness itself.  A
//     hardened harness absorbs every *retryable* harness fault: the
//     final report is byte-identical to the fault-free run.
//
// A Transient rule guarantees a site that just faulted succeeds on its
// very next hit, so any retry loop with at least one retry converges.
package chaos

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
)

// Op names one class of instrumented fault point.
type Op string

// Instrumented operations.
const (
	// OpFSCreate faults file creation in the simulated filesystem
	// (ENOSPC: the disk is full).
	OpFSCreate Op = "fs.create"
	// OpFSWrite faults writes through open files: ENOSPC, short/torn
	// writes, or transient EIO depending on the rule's Kind.
	OpFSWrite Op = "fs.write"
	// OpMemCommit faults page commits in the simulated address space.
	// Sites: "commit" (single fresh page) and "commit.multi" (multi-page
	// commits — restrict a rule to it to model page pressure, where
	// large commits fail first).
	OpMemCommit Op = "mem.commit"
	// OpKernStall stalls the simulated scheduler: the rule's StallTicks
	// are added to the machine clock at syscall entry or sleep.
	OpKernStall Op = "kern.stall"
	// OpKernWedge wedges a simulated call: the instrumented point blocks
	// until the injector session is released (the core.Runner watchdog
	// releases it at the case deadline and classifies RawRestart).
	OpKernWedge Op = "kern.wedge"
	// OpCkptWrite faults checkpoint-journal appends in the farm and the
	// explore fuzzer (harness domain).  Kinds: "fail" (default, the
	// write errors before any byte lands) and "short" (a torn half-line
	// reaches the disk and the write errors).
	OpCkptWrite Op = "ckpt.write"
	// OpWorkerPanic panics a farm worker at a shard boundary (harness
	// domain); the farm quarantines the attempt and retries the shard in
	// place.
	OpWorkerPanic Op = "worker.panic"
	// OpNetDrop drops one fleet RPC on the client side before it is sent
	// (harness domain); the fleet client retries with jittered capped
	// backoff.  Sites are the RPC names: "join", "lease", "upload",
	// "heartbeat".
	OpNetDrop Op = "net.drop"
	// OpNetDupe re-sends a fleet result upload that already succeeded
	// (harness domain, site "upload"); the coordinator's content-hashed
	// idempotency dedups it.
	OpNetDupe Op = "net.dupe"
	// OpNetDelay delays a fleet heartbeat by StallTicks milliseconds
	// (harness domain, site "heartbeat"), long enough delays force lease
	// expiry and a steal by another worker.
	OpNetDelay Op = "net.delay"

	// Simulated-network fault points (substrate domain).  These perturb
	// deliveries inside the in-machine network (internal/sim/net) that
	// the sockets API surface runs over; they are distinct ops from the
	// fleet-transport net.* rules above, so arming one plane structurally
	// cannot perturb the other's decision stream.  Sites are the socket
	// operation names ("send", "connect").

	// OpSimNetDrop drops one delivery: the sender reports success but the
	// bytes never reach the peer's receive buffer.
	OpSimNetDrop Op = "simnet.drop"
	// OpSimNetDupe delivers one payload twice (datagram duplication; on
	// streams the bytes repeat in sequence).
	OpSimNetDupe Op = "simnet.dupe"
	// OpSimNetDelay delays one delivery by StallTicks simulated
	// milliseconds before it lands in the peer's buffer.
	OpSimNetDelay Op = "simnet.delay"
	// OpSimNetReset resets the connection mid-operation: both endpoints
	// drop to a reset state and the call reports ECONNRESET/WSAECONNRESET.
	OpSimNetReset Op = "simnet.reset"

	// Scarcity fault points.  Unlike the per-name sites above, each of
	// these reports a single fixed site, so a rule's After field is a
	// machine-wide slack budget: "After: N, RatePerMille: 1000" models a
	// resource table that is exactly N allocations from full and then
	// stays full.  The scarce sweep engine builds its environments from
	// these rules, which is what makes depleted-resource runs replayable
	// from a plan alone.

	// OpKernHandle faults handle-table insertions (site "handle"): the
	// process handle table is saturated and AddHandle returns the null
	// handle.
	OpKernHandle Op = "kern.handle"
	// OpKernFD faults descriptor allocation (site "fd"): the descriptor
	// table is full and AddFD returns -1.
	OpKernFD Op = "kern.fd"
	// OpKernSpawn faults process creation (site "spawn"): the machine is
	// out of process slots and NewProcess returns nil.
	OpKernSpawn Op = "kern.spawn"
	// OpFSDisk faults any filesystem block allocation (site "disk"):
	// creating an entry or growing file data fails with ErrNoSpace.  It
	// complements fs.create/fs.write, whose per-name sites make After
	// per-file rather than a global free-space budget.
	OpFSDisk Op = "fs.disk"
	// OpMemPage faults page commits one page at a time (site "page"), so
	// After is literally "M pages from commit failure" regardless of how
	// commits are batched.
	OpMemPage Op = "mem.page"
	// OpNetSock faults simulated-network allocations.  Two sites: "sock"
	// (the machine socket table is full and NewSocket is refused) and
	// "port" (the ephemeral-port range is depleted and an implicit bind
	// fails).  After is per-site, so one rule gives each table its own
	// slack budget.
	OpNetSock Op = "net.sock"
)

// Fault kinds, selecting the failure mode of a fired rule.
const (
	// KindENOSPC: the operation fails with a no-space error (default for
	// fs.create and fs.write).
	KindENOSPC = "enospc"
	// KindShort: a torn write — half the bytes land, then the operation
	// reports the short count (fs.write) or an error (ckpt.write).
	KindShort = "short"
	// KindEIO: the operation fails with an I/O error.
	KindEIO = "eio"
	// KindFail: the operation fails before any byte is written (default
	// for ckpt.write).
	KindFail = "fail"
)

// TornSplit returns how many of n bytes land when a KindShort fault
// tears a write.  Every consumer of the torn-write model (the fs.write
// fault point, crash-state enumeration of torn tails) must share this
// split so enumerated post-crash states match injected ones.
func TornSplit(n int) int { return n / 2 }

// Rule arms one fault class.  Rules are evaluated in plan order; the
// first rule that fires at a decision point wins.
type Rule struct {
	// Op selects the instrumented operation this rule applies to.
	Op Op `json:"op"`
	// Kind selects the failure mode for ops with more than one (see the
	// Kind constants); empty selects the op's default.
	Kind string `json:"kind,omitempty"`
	// Site, when non-empty, restricts the rule to instrumented sites
	// whose name starts with this prefix (e.g. one MuT's syscall name,
	// or "commit.multi" for page pressure).
	Site string `json:"site,omitempty"`
	// RatePerMille is the injection probability per decision point in
	// 1/1000ths (1000 = always).
	RatePerMille int `json:"rate_pm"`
	// After skips the first N hits at each site before the rule can
	// fire.
	After int `json:"after,omitempty"`
	// Max bounds how many times this rule fires per injector session
	// (0 = unlimited).
	Max int `json:"max,omitempty"`
	// Transient guarantees the site that just faulted succeeds on its
	// next hit, making the fault retryable with a single retry.
	Transient bool `json:"transient,omitempty"`
	// StallTicks is how far a kern.stall rule advances the simulated
	// clock when it fires.
	StallTicks uint64 `json:"stall_ticks,omitempty"`
}

// Plan is a complete, replayable fault-injection configuration.
type Plan struct {
	Seed  uint64 `json:"seed"`
	Rules []Rule `json:"rules"`
}

var validKinds = map[Op]map[string]bool{
	OpFSCreate:    {"": true, KindENOSPC: true},
	OpFSWrite:     {"": true, KindENOSPC: true, KindShort: true, KindEIO: true},
	OpMemCommit:   {"": true},
	OpKernStall:   {"": true},
	OpKernWedge:   {"": true},
	OpCkptWrite:   {"": true, KindFail: true, KindShort: true},
	OpWorkerPanic: {"": true},
	OpNetDrop:     {"": true},
	OpNetDupe:     {"": true},
	OpNetDelay:    {"": true},
	OpKernHandle:  {"": true},
	OpKernFD:      {"": true},
	OpKernSpawn:   {"": true},
	OpFSDisk:      {"": true},
	OpMemPage:     {"": true},
	OpNetSock:     {"": true},
	OpSimNetDrop:  {"": true},
	OpSimNetDupe:  {"": true},
	OpSimNetDelay: {"": true},
	OpSimNetReset: {"": true},
}

// Validate checks the plan's rules for unknown ops, bad kinds and
// out-of-range rates.
func (p *Plan) Validate() error {
	for i, r := range p.Rules {
		kinds, ok := validKinds[r.Op]
		if !ok {
			return fmt.Errorf("chaos: rule %d: unknown op %q", i, r.Op)
		}
		if !kinds[r.Kind] {
			return fmt.Errorf("chaos: rule %d: kind %q is not valid for op %q", i, r.Kind, r.Op)
		}
		if r.RatePerMille < 0 || r.RatePerMille > 1000 {
			return fmt.Errorf("chaos: rule %d: rate_pm %d out of range [0,1000]", i, r.RatePerMille)
		}
		if r.After < 0 || r.Max < 0 {
			return fmt.Errorf("chaos: rule %d: negative after/max", i)
		}
		if r.Op == OpKernStall && r.StallTicks == 0 {
			return fmt.Errorf("chaos: rule %d: kern.stall needs stall_ticks > 0", i)
		}
		if r.Op == OpNetDelay && r.StallTicks == 0 {
			return fmt.Errorf("chaos: rule %d: net.delay needs stall_ticks > 0", i)
		}
		if r.Op == OpSimNetDelay && r.StallTicks == 0 {
			return fmt.Errorf("chaos: rule %d: simnet.delay needs stall_ticks > 0", i)
		}
	}
	return nil
}

// Retryable reports whether every harness-domain rule in the plan is
// transient — the precondition under which the resilience oracle holds
// (the harness absorbs every fault and the report matches fault-free).
// Dropped fleet RPCs must be transient for the same reason: the client's
// retry loop then converges in a bounded number of attempts.  Duplicated
// uploads and delayed heartbeats are always absorbed (idempotent
// collection, lease re-dispatch), so net.dupe/net.delay rules need no
// transience.
func (p *Plan) Retryable() bool {
	for _, r := range p.Rules {
		if (r.Op == OpCkptWrite || r.Op == OpWorkerPanic || r.Op == OpNetDrop) && !r.Transient {
			return false
		}
	}
	return true
}

// Parse decodes and validates a JSON plan.
func Parse(data []byte) (*Plan, error) {
	var p Plan
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("chaos: parsing plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Load reads a JSON plan from a file.
func Load(path string) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("chaos: reading plan: %w", err)
	}
	return Parse(data)
}

// ErrUnknownPreset reports a Preset name that does not exist.
var ErrUnknownPreset = errors.New("chaos: unknown preset")

// Preset returns a named canned plan seeded with seed:
//
//	"disk"    sparse transient disk faults (ENOSPC, short writes, EIO)
//	"mem"     sparse commit failures plus page pressure on large commits
//	"hang"    rare wedged calls and scheduler stalls
//	"harness" transient checkpoint-write faults and worker panics (the
//	          retryable plan the resilience oracle runs under)
//	"net"     fleet-transport faults: transient dropped RPCs, duplicated
//	          uploads, delayed heartbeats (the retryable plan the fleet
//	          determinism oracle runs under)
//	"simnet"  simulated-network faults inside the machine: sparse dropped,
//	          duplicated, delayed and reset socket deliveries (substrate
//	          domain — deterministically changes socket-call results)
//	"all"     disk+mem+hang+harness at once ("net" stays separate: it
//	          only has decision points when a fleet client is running;
//	          "simnet" stays separate so pre-sockets plans replay
//	          unchanged)
func Preset(name string, seed uint64) (*Plan, error) {
	disk := []Rule{
		{Op: OpFSCreate, RatePerMille: 8, Transient: true},
		{Op: OpFSWrite, Kind: KindENOSPC, RatePerMille: 5, Transient: true},
		{Op: OpFSWrite, Kind: KindShort, RatePerMille: 5, Transient: true},
		{Op: OpFSWrite, Kind: KindEIO, RatePerMille: 5, Transient: true},
	}
	memr := []Rule{
		{Op: OpMemCommit, RatePerMille: 3, Transient: true},
		{Op: OpMemCommit, Site: "commit.multi", RatePerMille: 40, Transient: true},
	}
	hang := []Rule{
		{Op: OpKernWedge, RatePerMille: 2, Max: 4},
		{Op: OpKernStall, RatePerMille: 10, StallTicks: 250},
	}
	harness := []Rule{
		{Op: OpCkptWrite, Kind: KindFail, RatePerMille: 150, Transient: true},
		{Op: OpCkptWrite, Kind: KindShort, RatePerMille: 100, Transient: true},
		{Op: OpWorkerPanic, RatePerMille: 120, Transient: true},
	}
	netr := []Rule{
		{Op: OpNetDrop, RatePerMille: 200, Transient: true},
		{Op: OpNetDupe, RatePerMille: 150},
		{Op: OpNetDelay, RatePerMille: 100, StallTicks: 40},
	}
	simnet := []Rule{
		{Op: OpSimNetDrop, RatePerMille: 60},
		{Op: OpSimNetDupe, RatePerMille: 40},
		{Op: OpSimNetDelay, RatePerMille: 80, StallTicks: 30},
		{Op: OpSimNetReset, RatePerMille: 20},
	}
	p := &Plan{Seed: seed}
	switch name {
	case "disk":
		p.Rules = disk
	case "mem":
		p.Rules = memr
	case "hang":
		p.Rules = hang
	case "harness":
		p.Rules = harness
	case "net":
		p.Rules = netr
	case "simnet":
		p.Rules = simnet
	case "all":
		p.Rules = append(append(append(append(p.Rules, disk...), memr...), hang...), harness...)
	default:
		return nil, fmt.Errorf("%w %q (have disk, mem, hang, harness, net, simnet, all)", ErrUnknownPreset, name)
	}
	return p, nil
}

// PresetNames lists the Preset plans in documentation order.
func PresetNames() []string {
	return []string{"disk", "mem", "hang", "harness", "net", "simnet", "all"}
}
