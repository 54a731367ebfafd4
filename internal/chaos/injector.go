package chaos

import (
	"errors"
	"sync"

	"ballista/internal/telemetry/span"
)

// ErrInjected is the error an instrumented harness write returns when a
// ckpt.write rule fires with Kind "fail" or "short".  Substrate fault
// points translate fired rules into their own domain errors instead
// (fs.ErrNoSpace, mem.ErrNoSpace, ...).
var ErrInjected = errors.New("chaos: injected write fault")

// Fault describes one fired rule at an instrumented point.
type Fault struct {
	Op         Op
	Kind       string
	StallTicks uint64
}

// Stats accumulates injection counters, shared across injector sessions
// (all methods are safe for concurrent use and nil-receiver safe).
type Stats struct {
	mu          sync.Mutex
	injected    map[Op]uint64
	retried     uint64
	quarantined uint64
	wedged      uint64
}

// NewStats creates an empty counter set.
func NewStats() *Stats { return &Stats{injected: make(map[Op]uint64)} }

// AddInjected counts one fired rule for op.
func (s *Stats) AddInjected(op Op) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.injected == nil {
		s.injected = make(map[Op]uint64)
	}
	s.injected[op]++
	s.mu.Unlock()
}

// AddRetried counts one harness retry forced by an injected (or real)
// write failure.
func (s *Stats) AddRetried() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.retried++
	s.mu.Unlock()
}

// AddQuarantined counts one quarantined harness-fault case (a panicked
// farm shard attempt).
func (s *Stats) AddQuarantined() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.quarantined++
	s.mu.Unlock()
}

// AddWedged counts one wedged simulated call.
func (s *Stats) AddWedged() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.wedged++
	s.mu.Unlock()
}

// Snapshot is a point-in-time copy of the counters.
type Snapshot struct {
	Injected    map[Op]uint64
	Retried     uint64
	Quarantined uint64
	Wedged      uint64
}

// Snapshot copies the counters (nil receiver yields zeroes).
func (s *Stats) Snapshot() Snapshot {
	out := Snapshot{Injected: make(map[Op]uint64)}
	if s == nil {
		return out
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for op, n := range s.injected {
		out.Injected[op] = n
	}
	out.Retried = s.retried
	out.Quarantined = s.quarantined
	out.Wedged = s.wedged
	return out
}

// Injector is one deterministic decision session over a plan.  The
// runner creates a fresh session per simulated-machine boot (so a farm
// shard's fault stream depends only on the shard); the farm and fuzzer
// create one harness-domain session per campaign.  All methods are safe
// for concurrent use and nil-receiver safe: a nil *Injector injects
// nothing, which is how the entire chaos plane costs one pointer check
// when disabled.
type Injector struct {
	plan  *Plan
	stats *Stats

	mu sync.Mutex
	// hits counts decision points per "op|site" key; the ordinal feeds
	// the decision hash, so decisions replay exactly.
	hits map[string]uint64
	// skipNext marks sites whose previous decision fired a Transient
	// rule: the next hit is a guaranteed pass (the retry contract).
	skipNext map[string]bool
	// fired counts per-rule injections for Max.
	fired []int

	allowWedge bool
	released   bool
	wedging    int
	release    chan struct{}

	// spans, when non-nil, receives one instant annotation per fired
	// rule, so the flight recorder shows which fault sites surrounded a
	// failure.  Annotation only — decisions never consult it.
	spans *span.Recorder
}

// NewInjector starts a decision session.  stats may be nil.
func (p *Plan) NewInjector(stats *Stats) *Injector {
	return &Injector{
		plan:     p,
		stats:    stats,
		hits:     make(map[string]uint64),
		skipNext: make(map[string]bool),
		fired:    make([]int, len(p.Rules)),
		release:  make(chan struct{}),
	}
}

// Stats returns the counters the session was started with (nil for a
// nil session or one started without them).
func (in *Injector) Stats() *Stats {
	if in == nil {
		return nil
	}
	return in.stats
}

// AllowWedge arms or disarms kern.wedge rules for this session.  The
// runner arms them only when a case deadline is configured — without a
// watchdog a wedge would block its worker forever.
func (in *Injector) AllowWedge(ok bool) {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.allowWedge = ok
	in.mu.Unlock()
}

// SetSpans attaches a flight recorder to the session.  A nil recorder
// (the default) keeps the fault path free of extra work.
func (in *Injector) SetSpans(r *span.Recorder) {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.spans = r
	in.mu.Unlock()
}

// decideLocked consumes one decision point at (op, site) and returns the
// first rule that fires.  Callers hold in.mu.
func (in *Injector) decideLocked(op Op, site string) (Rule, bool) {
	key := string(op) + "|" + site
	n := in.hits[key]
	in.hits[key] = n + 1
	if in.skipNext[key] {
		delete(in.skipNext, key)
		return Rule{}, false
	}
	for ri, r := range in.plan.Rules {
		if r.Op != op {
			continue
		}
		if r.Site != "" && !hasPrefix(site, r.Site) {
			continue
		}
		if n < uint64(r.After) {
			continue
		}
		if r.Max > 0 && in.fired[ri] >= r.Max {
			continue
		}
		if !fire(in.plan.Seed, uint64(ri), op, site, n, r.RatePerMille) {
			continue
		}
		in.fired[ri]++
		if r.Transient {
			in.skipNext[key] = true
		}
		return r, true
	}
	return Rule{}, false
}

// Fault consumes one decision point at (op, site) and reports whether a
// rule fired there, with its failure mode.
func (in *Injector) Fault(op Op, site string) (Fault, bool) {
	if in == nil {
		return Fault{}, false
	}
	in.mu.Lock()
	r, ok := in.decideLocked(op, site)
	spans := in.spans
	in.mu.Unlock()
	if !ok {
		return Fault{}, false
	}
	in.stats.AddInjected(op)
	spans.Instant("fault", string(op), site)
	return Fault{Op: op, Kind: r.Kind, StallTicks: r.StallTicks}, true
}

// Stall consumes one kern.stall decision point and returns how many
// simulated ticks to add (0 = no stall).
func (in *Injector) Stall(site string) uint64 {
	f, ok := in.Fault(OpKernStall, site)
	if !ok {
		return 0
	}
	return f.StallTicks
}

// Wedge consumes one kern.wedge decision point and, if a rule fires,
// blocks until Release — the wedged-call model.  It reports whether it
// wedged.  Disarmed (AllowWedge(false)) or already-released sessions
// never block.
func (in *Injector) Wedge(site string) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	if !in.allowWedge || in.released {
		in.mu.Unlock()
		return false
	}
	_, ok := in.decideLocked(OpKernWedge, site)
	if !ok {
		in.mu.Unlock()
		return false
	}
	in.wedging++
	ch := in.release
	spans := in.spans
	in.mu.Unlock()
	in.stats.AddInjected(OpKernWedge)
	in.stats.AddWedged()
	spans.Instant("fault", string(OpKernWedge), site)
	<-ch
	in.mu.Lock()
	in.wedging--
	in.mu.Unlock()
	return true
}

// Wedged reports whether a call is currently blocked inside Wedge.  The
// runner's watchdog checks it when the case deadline expires: only a
// held wedge condemns the machine.  A call that is merely slow (a loaded
// host, a GC pause) keeps running — otherwise the report would depend
// on wall-clock scheduling, not on the plan.
func (in *Injector) Wedged() bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.wedging > 0
}

// Release unblocks every current and future Wedge in this session.  The
// runner's watchdog calls it at the case deadline so the wedged
// goroutine exits instead of leaking.
func (in *Injector) Release() {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.released {
		in.released = true
		close(in.release)
	}
}

// fire is the pure decision function: a 64-bit FNV-1a hash of the seed,
// rule index, op, site and hit ordinal, reduced to per-mille.
func fire(seed, rule uint64, op Op, site string, n uint64, ratePM int) bool {
	if ratePM <= 0 {
		return false
	}
	if ratePM >= 1000 {
		return true
	}
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	mix(seed)
	mix(rule)
	for i := 0; i < len(op); i++ {
		h ^= uint64(op[i])
		h *= prime
	}
	for i := 0; i < len(site); i++ {
		h ^= uint64(site[i])
		h *= prime
	}
	mix(n)
	return h%1000 < uint64(ratePM)
}

func hasPrefix(s, prefix string) bool {
	return len(s) >= len(prefix) && s[:len(prefix)] == prefix
}
