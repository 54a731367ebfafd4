package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ballista/internal/api"
	"ballista/internal/catalog"
	"ballista/internal/chaos"
	"ballista/internal/osprofile"
	"ballista/internal/sim/kern"
	"ballista/internal/store"
	"ballista/internal/telemetry/span"
)

// Impl is one API function implementation.  It must drive the call to a
// terminal outcome (return, error, exception, hang, or crash).
type Impl func(c *api.Call)

// Dispatcher resolves a MuT to its implementation for the OS under test.
type Dispatcher func(m catalog.MuT) (Impl, bool)

// Fixture prepares machine state before each test case: (re)creating the
// fixture file tree constructors rely on and clearing scratch space, so
// every case starts from the same disk state even though — as on the
// paper's physical machines — the kernel itself persists across cases.
type Fixture func(k *kern.Kernel)

// Config configures a campaign.
type Config struct {
	OS osprofile.OS
	// Cap limits test cases per MuT (DefaultCap = the paper's 5000).
	Cap int
	// Isolated boots a fresh kernel for every test case instead of
	// sharing the machine across the campaign.  The paper's "*" failures
	// reproduce only in shared mode; Isolated is the single-test-program
	// mode in which they could not be reproduced.
	Isolated bool
	// StopMuTOnCrash stops a MuT's campaign at its first Catastrophic
	// failure, as the paper did ("the system crash interrupts the testing
	// process"), leaving the result Incomplete.
	StopMuTOnCrash bool
	// Load, when non-nil, runs the campaign under resource pressure — the
	// paper's §5 future work ("dependability problems caused by heavy
	// load conditions").
	Load *LoadProfile
	// Profile overrides the OS profile (ablation studies); nil selects
	// the canonical osprofile.Get(OS).
	Profile *osprofile.Profile
	// Observer, when non-nil, receives per-case trace events, reboot
	// notifications and campaign summaries.  A nil Observer adds no
	// per-case work.
	Observer Observer
	// Chaos, when non-nil, arms deterministic environmental fault
	// injection: every freshly booted machine gets its own injector
	// session over this plan, so a shard's fault stream depends only on
	// the plan and the machine's operation stream, never on scheduling.
	// Nil costs one pointer check per machine boot.
	Chaos *chaos.Plan
	// ChaosStats, when non-nil, accumulates injection counters across
	// all injector sessions (the ballista_chaos_* telemetry feed).
	ChaosStats *chaos.Stats
	// CaseDeadline, when positive, bounds one test case's wall-clock
	// execution: a case that exceeds it (a wedged simulated call) is
	// classified RawRestart and its machine is condemned, instead of
	// hanging the worker forever.  It also arms kern.wedge rules —
	// without a watchdog a wedge could never be recovered.
	CaseDeadline time.Duration
	// Spans, when non-nil, records the campaign's causal flight trace:
	// campaign → mut → case spans, watchdog convictions, and chaos fault
	// sites.  Recording is observation only — results are byte-identical
	// with spans on or off — and a nil recorder costs one pointer check.
	Spans *span.Recorder
	// Store, when non-nil, is the content-addressed result cache: a MuT
	// shard starting on a fresh machine is consulted before executing and
	// populated after, keyed by the shard identity (OS, MuT, cap, chaos
	// plan, code version — see memo.go).  The cache is pure observation:
	// hit or miss, the merged report is byte-identical.
	Store *store.Store
}

// LoadProfile describes the heavy-load conditions a campaign runs under.
type LoadProfile struct {
	// ProcessMemoryQuota bounds each test process's mapped bytes; the
	// paper's machines had 64 MB, so a small quota models a loaded box.
	ProcessMemoryQuota uint64
	// PreloadFiles fills the machine's filesystem with this many extra
	// files before testing starts.
	PreloadFiles int
	// HandlePressure pre-opens this many kernel objects in every test
	// process.
	HandlePressure int
}

// Runner executes Ballista campaigns against one OS variant.
type Runner struct {
	cfg      Config
	profile  *osprofile.Profile
	registry *Registry
	dispatch Dispatcher
	fixture  Fixture
	obs      Observer
	// ev is the CaseEvent every observed case reuses, allocated on the
	// first one so that unobserved runners (a fresh one per scarcity
	// probe and per explore machine) stay small.
	ev *CaseEvent
	// frame is the case arena every test case runs in, made on the first
	// case (see caseFrame).
	frame *caseFrame

	kernel *kern.Kernel
	// spans is the flight recorder (nil when disabled); spanParent is
	// the enclosing span — a farm shard or RunAll's campaign span — that
	// this runner's mut spans link under.
	spans      *span.Recorder
	spanParent uint64
	// inj is the current machine's chaos session (nil when disabled).
	inj *chaos.Injector
	// condemned marks a machine abandoned after a wedged case; the next
	// case boots fresh.  carryEpoch preserves condemned machines' reboot
	// counts so epoch() stays schedule-independent.
	condemned  bool
	carryEpoch int
}

// ErrUnknownType reports a catalog parameter type missing from the
// registry.
var ErrUnknownType = errors.New("core: unknown data type")

// ErrNoImpl reports a MuT without an implementation.
var ErrNoImpl = errors.New("core: no implementation")

// NewRunner assembles a campaign runner.
func NewRunner(cfg Config, reg *Registry, dispatch Dispatcher, fixture Fixture) *Runner {
	if cfg.Cap <= 0 {
		cfg.Cap = DefaultCap
	}
	profile := cfg.Profile
	if profile == nil {
		profile = osprofile.Get(cfg.OS)
	}
	return &Runner{
		cfg:      cfg,
		profile:  profile,
		registry: reg,
		dispatch: dispatch,
		fixture:  fixture,
		obs:      cfg.Observer,
		spans:    cfg.Spans,
	}
}

// SetSpanParent links this runner's mut spans under an enclosing span —
// a farm shard span, or a fleet worker's unit span — so the causal
// chain survives parallel and remote execution.
func (r *Runner) SetSpanParent(id uint64) { r.spanParent = id }

// Profile exposes the runner's OS profile.
func (r *Runner) Profile() *osprofile.Profile { return r.profile }

func (r *Runner) machine() *kern.Kernel {
	if r.kernel == nil || r.cfg.Isolated {
		r.kernel = r.profile.NewKernel()
		if r.cfg.Chaos != nil {
			r.inj = r.cfg.Chaos.NewInjector(r.cfg.ChaosStats)
			r.inj.AllowWedge(r.cfg.CaseDeadline > 0)
			r.inj.SetSpans(r.spans)
			r.kernel.SetInjector(r.inj)
		}
	}
	return r.kernel
}

// Machine exposes the shared simulated machine, booting it on first use
// (state-inspection hook for diagnostics and tests).
func (r *Runner) Machine() *kern.Kernel { return r.machine() }

// bind resolves a MuT's parameter types.
func (r *Runner) bind(m catalog.MuT) ([]*DataType, error) {
	types := make([]*DataType, len(m.Params))
	for i, name := range m.Params {
		dt, ok := r.registry.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("%w: %q (MuT %s param %d)", ErrUnknownType, name, m.Name, i)
		}
		types[i] = dt
	}
	return types, nil
}

// resolve looks up the implementation and parameter types of a MuT for
// one identified test case, and checks that tc names one in-range value
// per parameter — a case read from a request or a reproducer file is
// outside input.
func (r *Runner) resolve(m catalog.MuT, tc Case) (Impl, []*DataType, error) {
	impl, ok := r.dispatch(m)
	if !ok {
		return nil, nil, fmt.Errorf("%w for %s %q", ErrNoImpl, m.API, m.Name)
	}
	types, err := r.bind(m)
	if err != nil {
		return nil, nil, err
	}
	if len(tc) != len(types) {
		return nil, nil, fmt.Errorf("core: case arity %d for %s (want %d)", len(tc), m.Name, len(types))
	}
	for i, dt := range types {
		if tc[i] < 0 || tc[i] >= len(dt.Values) {
			return nil, nil, fmt.Errorf("core: case index %d out of range for %s param %d", tc[i], m.Name, i)
		}
	}
	return impl, types, nil
}

// RunMuT executes the full (capped) campaign for one MuT.  Cancelling
// ctx stops the campaign between test cases and returns ctx's error —
// the seam that lets a farm worker or ballistad's graceful shutdown
// abandon an in-flight campaign instead of grinding to the cap.  A nil
// ctx is treated as context.Background().
func (r *Runner) RunMuT(ctx context.Context, m catalog.MuT, wide bool) (*MuTResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	impl, ok := r.dispatch(m)
	if !ok {
		return nil, fmt.Errorf("%w for %s %q", ErrNoImpl, m.API, m.Name)
	}
	types, err := r.bind(m)
	if err != nil {
		return nil, err
	}
	// Content-addressed cache consult: a shard starting on a fresh
	// machine is a pure function of its identity, so a valid cached
	// entry is served without generating or executing a single case.
	// The cached reboot count banks into carryEpoch so epoch() — and
	// with it OSResult.Reboots and the farm journal — reads exactly as
	// if the shard had executed.
	var memoKey store.Key
	memo := r.storeCacheable()
	if memo {
		if memoKey, err = r.storeKey(m, wide); err != nil {
			memo = false
		} else if e, ok := r.cfg.Store.Get(memoKey); ok {
			if res, derr := storeResult(m, wide, e); derr == nil {
				r.carryEpoch += e.Reboots
				r.spans.Start("mut", m.Name).SetParent(r.spanParent).
					SetOS(r.cfg.OS.WireName()).SetDetail("store hit").End()
				return res, nil
			}
			// A corrupted entry degrades to a miss, never a wrong answer.
		}
	}
	epoch0 := r.epoch()
	sizes := make([]int, len(types))
	for i, dt := range types {
		sizes[i] = len(dt.Values)
	}
	cases := GenerateCases(m.Name, sizes, r.cfg.Cap)

	res := &MuTResult{
		MuT:         m,
		Wide:        wide,
		Cases:       make([]RawClass, 0, len(cases)),
		Exceptional: make([]bool, 0, len(cases)),
	}
	if r.obs != nil {
		r.obs.Observe(&MuTStartEvent{
			OS: r.cfg.OS.WireName(), MuT: m.Name, API: m.API.String(),
			Group: m.Group.String(), Wide: wide, Cases: len(cases),
		})
	}
	ms := r.spans.Start("mut", m.Name).SetParent(r.spanParent).SetOS(r.cfg.OS.WireName())
	defer ms.End()
	for seq, tc := range cases {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cs := r.spans.StartSampled("case", m.Name).SetParent(ms.ID()).SetOS(r.cfg.OS.WireName())
		cls, _ := r.runCase(m, impl, types, tc, wide, seq)
		cs.SetDetail(cls.String()).End()
		res.Cases = append(res.Cases, cls)
		res.Exceptional = append(res.Exceptional, exceptionalCase(types, tc))
		if cls == RawCatastrophic {
			// Reboot the machine and, as the paper did, abandon the
			// MuT's campaign unless configured to continue (the kernel
			// epoch tracks total reboots for the OSResult).
			r.reboot(m.Name)
			if r.cfg.StopMuTOnCrash {
				res.Incomplete = true
				break
			}
		}
	}
	if memo {
		// A structurally invalid entry is rejected by the store; drop it
		// rather than fail the shard that just executed fine.
		_ = r.cfg.Store.Put(memoKey, storeEntry(res, r.epoch()-epoch0))
	}
	return res, nil
}

// reboot restarts a crashed machine and notifies the observer.
func (r *Runner) reboot(mutName string) {
	reason := r.kernel.CrashReason()
	r.kernel.Reboot()
	if r.obs != nil {
		r.obs.Observe(&RebootEvent{
			OS: r.cfg.OS.WireName(), MuT: mutName,
			Epoch: r.kernel.Epoch, Reason: reason,
		})
	}
}

// RunCase executes a single identified test case (the paper's
// single-test-program reproduction mode).
func (r *Runner) RunCase(m catalog.MuT, tc Case, wide bool) (RawClass, error) {
	impl, types, err := r.resolve(m, tc)
	if err != nil {
		return RawSkip, err
	}
	cls, _ := r.runCase(m, impl, types, tc, wide, -1)
	if cls == RawCatastrophic {
		r.reboot(m.Name)
	}
	return cls, nil
}

// runCase executes one test case and, when an observer is configured,
// wraps the execution in wall-clock and simulated-time measurement and
// emits a CaseEvent.  With a nil observer the only extra work over the
// bare execution is one nil check.
func (r *Runner) runCase(m catalog.MuT, impl Impl, types []*DataType, tc Case, wide bool, seq int) (RawClass, *api.Outcome) {
	var cls RawClass
	var out *api.Outcome
	if r.obs == nil {
		cls, out = r.execCase(m, impl, types, tc, wide)
	} else {
		start := time.Now()
		// In Isolated mode execCase boots a fresh kernel whose clock
		// starts at zero, so ticks0 stays zero rather than booting one
		// early here.
		var ticks0 uint64
		if !r.cfg.Isolated && r.kernel != nil {
			ticks0 = r.kernel.Ticks()
		}
		cls, out = r.execCase(m, impl, types, tc, wide)
		r.obs.Observe(r.caseEvent(m, types, tc, wide, seq, cls, out, ticks0, time.Since(start)))
	}
	if r.condemned {
		// A wedged case abandoned this machine; bank its reboot count
		// and boot fresh next case so the report stays deterministic.
		// The abandoned call's goroutine may still hold the case arena,
		// so the arena is dropped with the machine, never reused.
		r.condemned = false
		r.frame = nil
		if r.kernel != nil {
			r.carryEpoch += r.kernel.Epoch
			r.kernel = nil
			r.inj = nil
		}
	}
	return cls, out
}

// caseFrame is the runner's case arena: one test case's state, reused by
// the next case.  It holds the constructors' environment, the call with
// its argument words and outcome, and the arena the case's process runs
// in (its process block and page backings).  The first case allocates
// the frame and the process arena; after that a case costs no fresh
// memory for them.
//
// Everything in the frame lives exactly one case: newFrame overwrites it
// and starts the next process in the same memory.  So nothing a case
// hands out may point into it once the case is classified.  Observer
// events, spans, findings, reproducers and store entries copy what they
// keep; the *api.Outcome that execCase returns is valid until the
// runner's next case.  Only the runner's own test process is reused:
// kernel objects, files, pipes and child processes a case creates are
// separate objects that the machine, shared or not, keeps as before.
// A condemned machine drops the frame (see runCase), and a farm worker
// that recovers a panic drops its whole runner, frame included.
type caseFrame struct {
	env  Env
	call api.Call
	args [catalog.MaxParams]api.Arg
	proc *kern.Arena
}

// newFrame starts a test case in a fresh process on machine k, under the
// configured load, reusing the runner's case arena.
func (r *Runner) newFrame(k *kern.Kernel, wide bool) *caseFrame {
	f := r.frame
	if f == nil {
		f = &caseFrame{proc: new(kern.Arena)}
		r.frame = f
	}
	*f = caseFrame{
		env:  Env{K: k, P: f.proc.Process(k), Profile: r.profile, Wide: wide, cleanups: f.env.cleanups[:0]},
		proc: f.proc,
	}
	r.applyLoad(&f.env)
	return f
}

// prepare runs the constructors of case tc's test values and readies the
// call of m with the argument words they made.  It reports false when a
// constructor failed, so the case cannot run.
func (r *Runner) prepare(f *caseFrame, m catalog.MuT, types []*DataType, tc Case) bool {
	args := f.args[:len(types)]
	for i, dt := range types {
		a, err := dt.Values[tc[i]].Make(&f.env)
		if err != nil {
			return false
		}
		args[i] = a
	}
	f.call = api.Call{
		K:      f.env.K,
		P:      f.env.P,
		Name:   m.Name,
		Args:   args,
		Traits: r.profile.Traits,
		Def:    r.profile.Defect(m.Name),
		Wide:   f.env.Wide,
	}
	return true
}

// finish settles the call's outcome once its implementation has returned.
func (f *caseFrame) finish() {
	c := &f.call
	if !c.Done() {
		// An implementation that falls off the end returned normally.
		c.Ret(0)
	}
	// Corruption-driven crashes may land after the implementation's last
	// explicit check.
	if c.K.Crashed() && !c.Out.Crashed {
		c.Out.Crashed = true
		c.Out.CrashReason = c.K.CrashReason()
	}
}

// execCase is the bare single-case execution: fixture, fresh process,
// constructors, dispatch, classification.  The returned Outcome is nil
// for constructor-failure skips (the case never ran); otherwise it lives
// in the case arena and is valid until the runner's next case.
func (r *Runner) execCase(m catalog.MuT, impl Impl, types []*DataType, tc Case, wide bool) (RawClass, *api.Outcome) {
	k := r.machine()
	if r.fixture != nil {
		r.fixture(k)
	}
	f := r.newFrame(k, wide)
	defer f.env.Cleanup()
	if !r.prepare(f, m, types, tc) {
		return RawSkip, nil
	}
	if wedged := r.dispatchCall(k, impl, &f.call); wedged {
		// The case exceeded its deadline: the paper's Restart failure,
		// observed from outside as a task that never returns.  The
		// machine's state is suspect, so condemn it; the outcome is
		// synthesized rather than read from the abandoned call.
		r.condemned = true
		out := &api.Outcome{Hung: true}
		return RawRestart, out
	}
	f.finish()
	return Classify(&f.call.Out), &f.call.Out
}

// wedgeGrace is how long past the deadline the watchdog waits for a
// released wedge to unwind before abandoning the call's goroutine.
const wedgeGrace = 2 * time.Second

// dispatchCall runs the implementation, watched by the case deadline
// when one is configured.  It reports whether the call wedged: the
// deadline expired while an injected wedge was held.  With no deadline
// the dispatch is direct: no goroutine, no timer, just one extra nil
// check inside EnterSyscall.
func (r *Runner) dispatchCall(k *kern.Kernel, impl Impl, call *api.Call) bool {
	if r.cfg.CaseDeadline <= 0 {
		k.EnterSyscall(call.Name)
		impl(call)
		return false
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		k.EnterSyscall(call.Name)
		impl(call)
	}()
	timer := time.NewTimer(r.cfg.CaseDeadline)
	defer timer.Stop()
	for {
		select {
		case <-done:
			return false
		case <-timer.C:
		}
		// Deadline exceeded.  Only an injected wedge held right now
		// convicts the call: a merely slow one (a loaded host, a GC
		// pause) keeps running, or the classification would depend on
		// wall-clock scheduling instead of the fault plan.
		if r.inj.Wedged() {
			r.spans.Instant("watchdog", call.Name, "wedge held past deadline; machine condemned")
			r.spans.Dump("watchdog") // a failure is kept for the recorder's Close
			break
		}
		timer.Reset(r.cfg.CaseDeadline)
	}
	// Release the injector session so the wedge unwinds and the
	// goroutine exits (no leak), then wait a grace window for it.
	r.inj.Release()
	select {
	case <-done:
	case <-time.After(wedgeGrace):
	}
	return true
}

// Classify maps a call outcome onto the observable CRASH classes.
func Classify(o *api.Outcome) RawClass {
	switch {
	case o.Crashed:
		return RawCatastrophic
	case o.Hung:
		return RawRestart
	case o.Exception != 0:
		return RawAbort
	case o.ErrReported:
		return RawError
	default:
		return RawClean
	}
}

func exceptionalCase(types []*DataType, tc Case) bool {
	for i, dt := range types {
		if dt.Exceptional(tc[i]) {
			return true
		}
	}
	return false
}

// RunAll executes campaigns for every MuT the OS supports, including the
// UNICODE variants of paired C functions on Windows CE.  Cancelling ctx
// stops the sweep at the next test-case boundary.
func (r *Runner) RunAll(ctx context.Context) (*OSResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var start time.Time
	if r.obs != nil {
		start = time.Now()
	}
	cs := r.spans.Start("campaign", r.cfg.OS.WireName()).SetParent(r.spanParent)
	defer cs.End()
	prevParent := r.spanParent
	r.spanParent = cs.ID()
	defer func() { r.spanParent = prevParent }()
	out := &OSResult{OS: r.profile.Name}
	for _, m := range catalog.MuTsFor(r.cfg.OS) {
		res, err := r.RunMuT(ctx, m, false)
		if err != nil {
			return nil, err
		}
		out.Results = append(out.Results, res)
		out.CasesRun += res.Executed()
		if r.profile.Traits.WidePreferred && m.HasWide {
			wres, err := r.RunMuT(ctx, m, true)
			if err != nil {
				return nil, err
			}
			out.Results = append(out.Results, wres)
			out.CasesRun += wres.Executed()
		}
	}
	out.Reboots = r.epoch()
	if r.obs != nil {
		r.obs.Observe(&CampaignEvent{
			OS: r.cfg.OS.WireName(), MuTs: len(out.Results),
			CasesRun: out.CasesRun, Reboots: out.Reboots, Wall: time.Since(start),
		})
	}
	return out, nil
}

func (r *Runner) epoch() int {
	n := r.carryEpoch
	if r.kernel != nil {
		n += r.kernel.Epoch
	}
	return n
}

// ResetMachine discards the runner's machine so the next case boots a
// fresh kernel, returning the discarded kernel's reboot count.  Farm
// workers call it between shards so every shard starts from identical
// machine state no matter which worker executes it or in what order —
// the property that makes a parallel schedule deterministic.
func (r *Runner) ResetMachine() int {
	n := r.epoch()
	r.kernel = nil
	r.inj = nil
	r.carryEpoch = 0
	r.condemned = false
	return n
}

// RunSequence executes several calls back to back inside one process on
// the shared machine, classifying each — the paper's §5 future-work
// direction ("state- and sequence-dependent failures").  Unlike RunMuT,
// the calls observe each other's process and machine state: an earlier
// call's kernel-state damage or filesystem mutation changes what a later
// call sees.  A Catastrophic failure ends the sequence (the machine is
// down); remaining calls classify as RawSkip.
func (r *Runner) RunSequence(ms []catalog.MuT, cases []Case, wide bool) ([]RawClass, error) {
	if len(ms) != len(cases) {
		return nil, fmt.Errorf("core: %d MuTs with %d cases", len(ms), len(cases))
	}
	k := r.machine()
	if r.fixture != nil {
		r.fixture(k)
	}
	f := r.newFrame(k, wide)
	defer f.env.Cleanup()

	out := make([]RawClass, len(ms))
	for i, m := range ms {
		if k.Crashed() {
			out[i] = RawSkip
			continue
		}
		tc := cases[i]
		impl, types, err := r.resolve(m, tc)
		if err != nil {
			return nil, err
		}
		var start time.Time
		var ticks0 uint64
		if r.obs != nil {
			start = time.Now()
			ticks0 = k.Ticks()
		}
		if !r.prepare(f, m, types, tc) {
			out[i] = RawSkip
			if r.obs != nil {
				r.obs.Observe(r.caseEvent(m, types, tc, wide, i, RawSkip, nil, ticks0, time.Since(start)))
			}
			continue
		}
		impl(&f.call)
		f.finish()
		out[i] = Classify(&f.call.Out)
		if r.obs != nil {
			r.obs.Observe(r.caseEvent(m, types, tc, wide, i, out[i], &f.call.Out, ticks0, time.Since(start)))
		}
	}
	if k.Crashed() {
		crashMuT := ""
		for i, cls := range out {
			if cls == RawCatastrophic {
				crashMuT = ms[i].Name
			}
		}
		r.reboot(crashMuT)
	}
	return out, nil
}

// applyLoad imposes the configured resource pressure on a fresh test
// process and (once per machine) on the filesystem.
func (r *Runner) applyLoad(env *Env) {
	lp := r.cfg.Load
	if lp == nil {
		return
	}
	if lp.ProcessMemoryQuota > 0 {
		env.P.AS.SetQuota(lp.ProcessMemoryQuota)
	}
	for i := 0; i < lp.HandlePressure; i++ {
		env.P.AddHandle(&kern.Object{Kind: kern.KEvent})
	}
	if lp.PreloadFiles > 0 {
		fsys := env.K.FS
		if _, err := fsys.Stat("/load"); err != nil {
			_ = fsys.MkdirAll("/load", 0o7)
			for i := 0; i < lp.PreloadFiles; i++ {
				if n, err := fsys.Create(fmt.Sprintf("/load/f%05d.dat", i), 0o6, false); err == nil {
					fsys.SetData(n, []byte("load fixture"))
				}
			}
		}
	}
}

// RunProbe executes one identified test case and additionally returns
// the error code the call reported (errno or GetLastError) — used by the
// Hindering-failure oracle, which must inspect codes, not just classes.
// The code is copied out of the case's Outcome, which the runner's next
// case reuses.
func (r *Runner) RunProbe(m catalog.MuT, tc Case, wide bool) (RawClass, uint32, error) {
	impl, types, err := r.resolve(m, tc)
	if err != nil {
		return RawSkip, 0, err
	}
	cls, out := r.runCase(m, impl, types, tc, wide, -1)
	if r.kernel != nil && r.kernel.Crashed() {
		r.reboot(m.Name)
	}
	var code uint32
	if out != nil {
		code = out.Err
	}
	return cls, code, nil
}
