// Package ballista is the public facade of the Ballista Win32/POSIX
// robustness-testing reproduction: it wires the data-type test suite,
// the per-OS API implementations and the campaign engine together, and
// exposes the paper's reporting pipeline (Tables 1-3, Figures 1-2).
//
// Quick start:
//
//	res, err := ballista.Run(ballista.Win98, ballista.WithCap(500))
//	fmt.Println(ballista.Table1(map[ballista.OS]*ballista.Result{ballista.Win98: res}))
package ballista

import (
	"context"
	"fmt"
	"time"

	"ballista/internal/catalog"
	"ballista/internal/chaos"
	"ballista/internal/clib"
	"ballista/internal/core"
	"ballista/internal/crashsim"
	"ballista/internal/explore"
	"ballista/internal/farm"
	"ballista/internal/fleet"
	"ballista/internal/hinder"
	"ballista/internal/osprofile"
	"ballista/internal/posixapi"
	"ballista/internal/report"
	"ballista/internal/scarce"
	"ballista/internal/store"
	"ballista/internal/suite"
	"ballista/internal/telemetry/span"
	"ballista/internal/vote"
	"ballista/internal/winapi"
)

// OS identifies a simulated operating-system variant.
type OS = osprofile.OS

// The seven systems under test.
const (
	Linux   = osprofile.Linux
	Win95   = osprofile.Win95
	Win98   = osprofile.Win98
	Win98SE = osprofile.Win98SE
	WinNT   = osprofile.WinNT
	Win2000 = osprofile.Win2000
	WinCE   = osprofile.WinCE
)

// AllOSes lists every variant in the paper's reporting order.
func AllOSes() []OS { return osprofile.All() }

// DesktopWindows lists the five desktop Windows variants (the Figure 2
// voting set).
func DesktopWindows() []OS { return osprofile.DesktopWindows() }

// Result is one OS variant's full campaign outcome.
type Result = core.OSResult

// MuTResult is one Module under Test's campaign outcome.
type MuTResult = core.MuTResult

// RawClass re-exports the per-case outcome classification.
type RawClass = core.RawClass

// Per-case outcome classes.
const (
	Clean        = core.RawClean
	ErrorReturn  = core.RawError
	Abort        = core.RawAbort
	Restart      = core.RawRestart
	Catastrophic = core.RawCatastrophic
	Skip         = core.RawSkip
)

// Option configures a campaign.
type Option func(*core.Config)

// WithCap overrides the 5000-cases-per-MuT limit (the paper's cap).
func WithCap(n int) Option {
	return func(c *core.Config) { c.Cap = n }
}

// WithIsolation boots a fresh machine for every test case — the paper's
// single-test-program reproduction mode, in which the Table 3 "*"
// failures do not reproduce.
func WithIsolation() Option {
	return func(c *core.Config) { c.Isolated = true }
}

// WithContinueAfterCrash keeps testing a MuT after a Catastrophic
// failure instead of abandoning its campaign (the paper stopped).
func WithContinueAfterCrash() Option {
	return func(c *core.Config) { c.StopMuTOnCrash = false }
}

// Observer re-exports the telemetry interface every engine reports
// through: one Observe(Event) method, where the event's concrete type
// (*CaseEvent, *ChainEvent, *CrashEvent, ...) names the engine and
// action.  An event is valid only until Observe returns — the runner
// reuses one CaseEvent per runner — so an observer that keeps one
// copies it.  Stock implementations live in internal/telemetry: a JSONL
// trace writer whose case records replay through RunCase, a
// Prometheus-text metrics registry, and a recent-events ring buffer.
type Observer = core.Observer

// Telemetry event types, re-exported for Observer implementations.
type (
	Event         = core.Event
	MuTStartEvent = core.MuTStartEvent
	CaseEvent     = core.CaseEvent
	RebootEvent   = core.RebootEvent
	CampaignEvent = core.CampaignEvent
	KernelSample  = core.KernelSample
	ShardEvent    = core.ShardEvent
	ChainEvent    = core.ChainEvent
	ChainStep     = core.ChainStep
	FleetEvent    = core.FleetEvent
	CrashEvent    = core.CrashEvent
	ScarceEvent   = core.ScarceEvent
)

// WithObserver attaches a telemetry observer to the campaign.  The
// observer sees every MuT start, case, machine reboot and campaign
// summary — plus per-shard events under RunFarm — synchronously and in
// order, each valid only until Observe returns.  Passing nil is allowed
// and costs nothing on the case path.
func WithObserver(o Observer) Option {
	return func(c *core.Config) { c.Observer = o }
}

// Dispatch resolves any catalog MuT to its implementation.
func Dispatch(m catalog.MuT) (core.Impl, bool) {
	switch m.API {
	case catalog.CLib:
		impl, ok := clibImpls[m.Name]
		return impl, ok
	case catalog.Win32:
		impl, ok := win32Impls[m.Name]
		return impl, ok
	case catalog.POSIX:
		impl, ok := posixImpls[m.Name]
		return impl, ok
	default:
		return nil, false
	}
}

// The implementation registries are immutable after init.
var (
	clibImpls  = clib.Impls()
	win32Impls = winapi.Impls()
	posixImpls = posixapi.Impls()
)

// suiteRegistry builds the full data-type registry (exposed for tests
// and tools that need value indices).
func suiteRegistry() *core.Registry { return suite.NewRegistry() }

// Registry returns the full Ballista data-type registry.  Each call
// builds a new one (about 100 µs and 985 allocations); a registry is
// read-only once built, so code that needs one per iteration of a loop
// should build it once and share it.
func Registry() *core.Registry { return suiteRegistry() }

// defaultConfig is the engine configuration every facade runner starts
// from: one OS variant, the paper's per-MuT case cap, and a MuT's
// campaign stopped at its first Catastrophic failure.
func defaultConfig(o OS) core.Config {
	return core.Config{OS: o, Cap: core.DefaultCap, StopMuTOnCrash: true}
}

// newSuiteRunner builds a runner over the full suite — dispatcher and
// fixtures — with a registry the caller may share across runners.
func newSuiteRunner(cfg core.Config, reg *core.Registry) *core.Runner {
	return core.NewRunner(cfg, reg, Dispatch, suite.SetupFixtures)
}

// NewRunner builds a campaign runner for one OS variant.
func NewRunner(o OS, opts ...Option) *core.Runner {
	cfg := defaultConfig(o)
	for _, opt := range opts {
		opt(&cfg)
	}
	return newSuiteRunner(cfg, suite.NewRegistry())
}

// Run executes the full campaign for one OS variant: every supported MuT
// (plus UNICODE variants on Windows CE), capped test case generation,
// shared machine, reboot on Catastrophic failures.
func Run(o OS, opts ...Option) (*Result, error) {
	return RunContext(context.Background(), o, opts...)
}

// RunContext is Run with cancellation: the campaign stops at the next
// test-case boundary when ctx is cancelled.
func RunContext(ctx context.Context, o OS, opts ...Option) (*Result, error) {
	return NewRunner(o, opts...).RunAll(ctx)
}

// RunAll executes campaigns for every OS variant.
func RunAll(opts ...Option) (map[OS]*Result, error) {
	out := make(map[OS]*Result, 7)
	for _, o := range AllOSes() {
		r, err := Run(o, opts...)
		if err != nil {
			return nil, fmt.Errorf("campaign for %s: %w", o, err)
		}
		out[o] = r
	}
	return out, nil
}

// FarmConfig sizes a parallel campaign farm (see internal/farm): a pool
// of workers, each owning its own simulated machine, taking MuT shards
// from one catalog-ordered pool — the software analogue of the paper's
// bank of six physical test machines.
type FarmConfig struct {
	// Workers is the pool size; <= 0 selects one worker per CPU.
	Workers int
	// Checkpoint, when non-empty, journals completed MuT shards to this
	// JSONL file, 64 to a commit, so an interrupted campaign resumes
	// without re-running committed shards.
	Checkpoint string
}

// NewFarm builds a parallel campaign farm for one OS variant.  The
// merged result of Farm.Run is identical to a sequential Run for any
// worker count: results in stable catalog order, reboot epochs summed.
// Any Observer attached via options is shared by all workers and must
// be safe for concurrent use (the internal/telemetry observers are).
func NewFarm(o OS, fc FarmConfig, opts ...Option) *farm.Farm {
	cfg := defaultConfig(o)
	for _, opt := range opts {
		opt(&cfg)
	}
	return farm.New(
		farm.Config{Config: cfg, Workers: fc.Workers, Checkpoint: fc.Checkpoint},
		suite.NewRegistry(), Dispatch, suite.SetupFixtures,
	)
}

// RunFarm executes one OS variant's full campaign across a worker pool.
func RunFarm(ctx context.Context, o OS, fc FarmConfig, opts ...Option) (*Result, error) {
	return NewFarm(o, fc, opts...).Run(ctx)
}

// FleetSpec re-exports the distributed campaign specification (see
// internal/fleet): everything a worker process needs to rebuild the
// campaign substrate locally.
type FleetSpec = fleet.CampaignSpec

// fleetSpecConfig rebuilds the engine configuration a campaign spec
// describes — the worker-side half of the fleet's determinism contract.
func fleetSpecConfig(spec FleetSpec) (core.Config, error) {
	o, ok := osprofile.Parse(spec.OS)
	if !ok {
		return core.Config{}, fmt.Errorf("ballista: unknown OS %q in campaign spec", spec.OS)
	}
	cfg := defaultConfig(o)
	if spec.Cap > 0 {
		cfg.Cap = spec.Cap
	}
	cfg.Chaos = spec.Chaos
	cfg.CaseDeadline = time.Duration(spec.CaseDeadlineMS) * time.Millisecond
	return cfg, nil
}

// FleetEnv wires the full Ballista suite into fleet workers: farm
// shards run through a farm.Executor, explore candidates through an
// explore.Evaluator, both built from the joined campaign's spec.
func FleetEnv() fleet.Env { return FleetEnvWithSpans(nil) }

// FleetEnvWithSpans is FleetEnv with a flight recorder threaded into
// every engine the worker builds, so a remote worker's mut and chain
// spans link under its per-lease unit spans (and, through the trace ID
// set at join, back to the coordinator's campaign).
func FleetEnvWithSpans(rec *SpanRecorder) fleet.Env {
	return fleetEnv(rec, nil, nil)
}

// fleetEnv builds the worker's engine factories; rec, st and obs (each
// may be nil) are threaded into every farm shard executor it builds.
func fleetEnv(rec *SpanRecorder, st *ResultStore, obs Observer) fleet.Env {
	return fleet.Env{
		NewShardExecutor: func(spec fleet.CampaignSpec) (fleet.ShardExecutor, error) {
			cfg, err := fleetSpecConfig(spec)
			if err != nil {
				return nil, err
			}
			cfg.Spans = rec
			cfg.Store = st
			cfg.Observer = obs
			return farm.NewExecutor(farm.Config{Config: cfg}, suite.NewRegistry(), Dispatch, suite.SetupFixtures), nil
		},
		NewChainEvaluator: func(spec fleet.CampaignSpec) (fleet.ChainEvaluator, error) {
			oses := make([]OS, 0, len(spec.OSes))
			for _, name := range spec.OSes {
				o, ok := osprofile.Parse(name)
				if !ok {
					return nil, fmt.Errorf("ballista: unknown OS %q in campaign spec", name)
				}
				oses = append(oses, o)
			}
			if len(oses) == 0 {
				return nil, fmt.Errorf("ballista: campaign spec has no OS set")
			}
			reg := suite.NewRegistry()
			newRunner := func(o OS) *core.Runner {
				cfg := defaultConfig(o)
				cfg.Chaos = spec.Chaos
				cfg.CaseDeadline = time.Duration(spec.CaseDeadlineMS) * time.Millisecond
				cfg.Spans = rec
				return newSuiteRunner(cfg, reg)
			}
			ev := explore.NewEvaluator(oses, newRunner)
			ev.SetSpans(rec)
			return ev, nil
		},
	}
}

// FleetWorkerConfig sizes one ballista fleet worker process.
type FleetWorkerConfig struct {
	// URL is the coordinator root, e.g. "http://127.0.0.1:8719".
	URL string
	// Name is the worker identity (empty: coordinator-assigned).
	Name string
	// Slots is how many units run concurrently (default 1).
	Slots int
	// Chaos is the client-side transport fault plan (the "net" preset);
	// it perturbs RPCs, never the substrate the spec configures.
	Chaos      *ChaosPlan
	ChaosStats *ChaosStats
	// Spans, when non-nil, records the worker's flight trace: one "unit"
	// span per executed lease, with the engines' mut/chain spans linked
	// underneath and the joined campaign's identity as the trace ID.
	Spans *SpanRecorder
	// Store, when non-nil, is consulted before and populated after every
	// MuT shard this worker executes.  Store keys include the worker's own
	// code-version stamp, so a mixed-version fleet never shares entries
	// across builds.
	Store *ResultStore
	// Observer, when non-nil, receives the events of every farm shard
	// this worker executes (MuT starts, cases, reboots), as a local
	// campaign's observer does.  With Slots above one it is called from
	// several goroutines at once.
	Observer Observer
}

// RunFleetWorker joins a fleet coordinator and works its campaign with
// the full suite until the campaign completes or ctx ends.
func RunFleetWorker(ctx context.Context, fc FleetWorkerConfig) error {
	return fleet.RunWorker(ctx, fleet.WorkerConfig{
		Client: fleet.ClientConfig{
			BaseURL: fc.URL, Chaos: fc.Chaos, ChaosStats: fc.ChaosStats,
		},
		Name: fc.Name, Slots: fc.Slots, Env: fleetEnv(fc.Spans, fc.Store, fc.Observer),
		Spans: fc.Spans,
	})
}

// ExploreConfig re-exports the sequence-fuzzer configuration (see
// internal/explore).
type ExploreConfig = explore.Config

// ExploreReport re-exports the fuzzing campaign report.
type ExploreReport = explore.Report

// Chain re-exports the replayable call-chain type.
type Chain = explore.Chain

// Reproducer re-exports the self-contained minimized finding document.
type Reproducer = explore.Reproducer

// NewExplorer builds the coverage-guided sequence fuzzer with the full
// Ballista suite: candidates are chains of catalog calls, coverage is the
// simulated kernel's state fingerprint, and every candidate runs through
// the cross-OS differential oracle.  One suite registry is shared across
// the per-OS runner factory, so a campaign boots machines, not registries.
func NewExplorer(cfg ExploreConfig) (*explore.Fuzzer, error) {
	reg := suite.NewRegistry()
	newRunner := func(o OS) *core.Runner {
		rc := defaultConfig(o)
		rc.Chaos, rc.ChaosStats, rc.Spans = cfg.Chaos, cfg.ChaosStats, cfg.Spans
		return newSuiteRunner(rc, reg)
	}
	return explore.New(cfg, reg, newRunner)
}

// Explore runs one coverage-guided differential fuzzing campaign.  The
// report is deterministic: the same Config (seed, OS set, alphabet,
// budget) yields byte-identical JSON for any worker count.
func Explore(ctx context.Context, cfg ExploreConfig) (*ExploreReport, error) {
	f, err := NewExplorer(cfg)
	if err != nil {
		return nil, err
	}
	return f.Run(ctx)
}

// ReplayChain executes a chain on a fresh machine of one OS variant and
// returns the per-step CRASH classes — the replay half of the fuzzer's
// trace records, corpus checkpoints and minimized reproducers.
func ReplayChain(o OS, ch Chain) ([]RawClass, error) {
	return explore.RunChain(NewRunner(o), ch)
}

// VerifyReproducer replays a reproducer document against the recorded
// per-OS classes (the golden regression corpus check).
func VerifyReproducer(rep *Reproducer) error {
	return rep.Verify(func(o OS) *core.Runner { return NewRunner(o) })
}

// Summaries computes Table 1 rows for a result set in reporting order.
func Summaries(results map[OS]*Result) []report.Summary {
	var out []report.Summary
	for _, o := range AllOSes() {
		if r, ok := results[o]; ok {
			out = append(out, report.Summarize(o, r))
		}
	}
	return out
}

// Table1 renders the Table 1 reproduction.
func Table1(results map[OS]*Result) string {
	return report.FormatTable1(Summaries(results))
}

// GroupMatrix computes the Table 2 / Figure 1 rate matrix.
func GroupMatrix(results map[OS]*Result) map[OS]map[catalog.Group]report.GroupRate {
	out := make(map[OS]map[catalog.Group]report.GroupRate, len(results))
	for o, r := range results {
		out[o] = report.GroupRates(r)
	}
	return out
}

// Table2 renders the Table 2 reproduction.
func Table2(results map[OS]*Result) string {
	var oses []OS
	for _, o := range AllOSes() {
		if _, ok := results[o]; ok {
			oses = append(oses, o)
		}
	}
	return report.FormatTable2(oses, GroupMatrix(results))
}

// Figure1 renders the Figure 1 reproduction (ASCII bars).
func Figure1(results map[OS]*Result) string {
	var oses []OS
	for _, o := range AllOSes() {
		if _, ok := results[o]; ok {
			oses = append(oses, o)
		}
	}
	return report.FormatFigure1(oses, GroupMatrix(results))
}

// Table3 renders the Catastrophic-function inventory.
func Table3(results map[OS]*Result) string {
	var invs []report.CatastrophicInventory
	for _, o := range AllOSes() {
		if r, ok := results[o]; ok {
			invs = append(invs, report.Inventory(o, r)...)
		}
	}
	return report.FormatTable3(invs)
}

// EstimateSilent votes identical test cases across the given variants
// (default: the five desktop Windows systems) and returns per-OS
// estimated Silent statistics.
func EstimateSilent(results map[OS]*Result, oses ...OS) map[OS][]vote.SilentStats {
	if len(oses) == 0 {
		oses = DesktopWindows()
	}
	return vote.Estimate(results, oses)
}

// Figure2 renders the Figure 2 reproduction: Abort+Restart+estimated-
// Silent group rates for the desktop Windows variants.
func Figure2(results map[OS]*Result) string {
	return report.FormatFigure2(DesktopWindows(), GroupMatrix(results), silentGroupRates(results))
}

func silentGroupRates(results map[OS]*Result) map[OS]map[catalog.Group]float64 {
	est := EstimateSilent(results)
	out := make(map[OS]map[catalog.Group]float64, len(est))
	for o, stats := range est {
		out[o] = vote.GroupSilentRates(stats)
	}
	return out
}

// osprofileGet exposes the OS profile for tools and tests.
func osprofileGet(o OS) *osprofile.Profile { return osprofile.Get(o) }

// Profile returns the behaviour profile of an OS variant.
func Profile(o OS) *osprofile.Profile { return osprofile.Get(o) }

// LoadProfile re-exports the heavy-load campaign configuration.
type LoadProfile = core.LoadProfile

// WithLoad runs the campaign under resource pressure (memory quota,
// filesystem fill, handle-table pressure) — the paper's §5 future work on
// "dependability problems caused by heavy load conditions".
func WithLoad(lp LoadProfile) Option {
	return func(c *core.Config) { c.Load = &lp }
}

// DefaultLoad approximates a heavily loaded 64 MB Pentium of the paper's
// era: a tight per-process memory quota, a filled filesystem, and a
// large population of live kernel objects.
func DefaultLoad() LoadProfile {
	return LoadProfile{
		ProcessMemoryQuota: 192 << 10, // 48 pages per process
		PreloadFiles:       512,
		HandlePressure:     256,
	}
}

// WithProfile overrides the OS behaviour profile — the hook for ablation
// studies such as osprofile.AblateProbing.
func WithProfile(p *osprofile.Profile) Option {
	return func(c *core.Config) { c.Profile = p }
}

// ChaosPlan re-exports the seeded environmental-fault plan (see
// internal/chaos).  A plan is JSON-serializable and fully determines the
// fault schedule: the same plan yields the same injections on every run.
type ChaosPlan = chaos.Plan

// ChaosRule re-exports one fault rule of a chaos plan.
type ChaosRule = chaos.Rule

// ChaosStats re-exports the shared injection counters (injected per op,
// retried, quarantined, wedged).
type ChaosStats = chaos.Stats

// NewChaosStats builds a counter set to share across a campaign.
func NewChaosStats() *ChaosStats { return chaos.NewStats() }

// ChaosPreset returns one of the named stock fault plans ("disk", "mem",
// "hang", "harness", "all") seeded for determinism.
func ChaosPreset(name string, seed uint64) (*ChaosPlan, error) {
	return chaos.Preset(name, seed)
}

// LoadChaosPlan parses a chaos plan from a JSON file.
func LoadChaosPlan(path string) (*ChaosPlan, error) { return chaos.Load(path) }

// WithChaos runs the campaign under a seeded environmental-fault plan:
// disk-full and torn writes in the simulated filesystem, commit failures
// under memory pressure, scheduler stalls and wedged calls in the kernel.
// Each machine boot starts a fresh injector session from the plan, so
// farm campaigns stay deterministic for any worker count.
func WithChaos(p *ChaosPlan) Option {
	return func(c *core.Config) { c.Chaos = p }
}

// WithChaosStats attaches shared injection counters to the campaign (for
// telemetry export; see Metrics.SetChaosStats).
func WithChaosStats(s *ChaosStats) Option {
	return func(c *core.Config) { c.ChaosStats = s }
}

// WithCaseDeadline arms the per-case watchdog: a call that exceeds d is
// abandoned, classified Restart, and its machine is condemned so the
// next case boots fresh hardware.  Required for plans with kern.wedge
// rules — wedge points stay disarmed without a watchdog.
func WithCaseDeadline(d time.Duration) Option {
	return func(c *core.Config) { c.CaseDeadline = d }
}

// ResultStore re-exports the content-addressed result cache (see
// internal/store): a sharded LRU keyed by the sha256 of a shard's full
// identity (code version, OS, MuT, cap, flags, deadline, load and chaos
// plans), optionally persisted to an fsync'd append-only segment file.
type ResultStore = store.Store

// StoreOptions re-exports the store sizing/persistence knobs.
type StoreOptions = store.Options

// OpenStore builds a result store; the zero Options value gives an
// in-memory store bounded at store.DefaultMaxEntries.  When Path is set
// the segment file is replayed first (tolerating a torn tail) and every
// Put is appended and fsynced.
func OpenStore(o StoreOptions) (*ResultStore, error) { return store.Open(o) }

// WithStore attaches a result store to the campaign.  Before executing a
// MuT shard on a fresh machine, the runner consults the store; after
// executing, it populates it.  Caching is pure observation: the merged
// campaign result is byte-identical with the store hot, cold or absent.
func WithStore(st *ResultStore) Option {
	return func(c *core.Config) { c.Store = st }
}

// SpanRecorder re-exports the flight recorder (see
// internal/telemetry/span): a bounded ring of causal spans — campaign,
// shard, case, chain, fleet lease — with optional JSONL export,
// per-phase latency histograms and crash flight dumps.
type SpanRecorder = span.Recorder

// SpanOptions re-exports the recorder's sizing knobs.
type SpanOptions = span.Options

// NewSpanRecorder builds a flight recorder; the zero Options value gives
// a 4096-span ring with no sampling, sink or flight dumps.
func NewSpanRecorder(o SpanOptions) *SpanRecorder { return span.New(o) }

// WithSpans attaches a flight recorder to the campaign.  Recording is
// observation only: results are byte-identical with spans on or off, and
// a nil recorder costs one pointer check per layer.
func WithSpans(rec *SpanRecorder) Option {
	return func(c *core.Config) { c.Spans = rec }
}

// CrashConfig re-exports the crash-consistency sweep configuration (see
// internal/crashsim): the bounded B3-style workload enumerator, per-OS
// durability policies, legal post-crash state enumeration and the
// invariant checker, run as a differential oracle across profiles.
type CrashConfig = crashsim.Config

// CrashReport re-exports the crash-sweep report.  The report is
// deterministic: the same Config (seed, OS set, bound, budget) yields
// byte-identical JSON for any worker count.
type CrashReport = crashsim.Report

// CrashFinding re-exports one deduplicated, minimized crash-oracle
// finding.
type CrashFinding = crashsim.Finding

// CrashReproducer re-exports the self-contained minimized crash-finding
// document (the crash half of the golden regression corpus).
type CrashReproducer = crashsim.Reproducer

// CrashSweep runs one bounded crash-consistency sweep: every enumerated
// workload is executed against the persistence model of each OS profile,
// every crash point's legal post-crash states are enumerated under that
// profile's durability policy, and the invariant checker's verdicts are
// compared across profiles.
func CrashSweep(ctx context.Context, cfg CrashConfig) (*CrashReport, error) {
	return crashsim.Sweep(ctx, cfg)
}

// LoadCrashReproducer parses a minimized crash-finding document from a
// JSON file.
func LoadCrashReproducer(path string) (*CrashReproducer, error) {
	return crashsim.LoadReproducer(path)
}

// VerifyCrashReproducer re-evaluates a crash reproducer's workload and
// checks the recorded per-OS verdicts still hold (the golden corpus
// regression check).
func VerifyCrashReproducer(rep *CrashReproducer) error { return rep.Verify() }

// ScarceConfig re-exports the resource-scarcity sweep configuration
// (see internal/scarce): the depleted-environment matrix, the MuT
// union, and the three oracles — CRASH severity under scarcity,
// graceful degradation, error-path leaks — run differentially across
// OS profiles.  ScarceSweep fills the Deps field; callers configure
// everything else.
type ScarceConfig = scarce.Config

// ScarceReport re-exports the scarcity-sweep report.  The report is
// deterministic: the same Config (seed, OS set, environments, budget)
// yields byte-identical JSON for any worker count.
type ScarceReport = scarce.Report

// ScarceFinding re-exports one deduplicated, minimized scarce-oracle
// finding.
type ScarceFinding = scarce.Finding

// ScarceEnv re-exports a depleted-resource environment description.
type ScarceEnv = scarce.Env

// ScarceReproducer re-exports the self-contained minimized scarcity
// finding document (the scarce third of the golden regression corpus).
type ScarceReproducer = scarce.Reproducer

// scarceDeps wires the scarce engine to the real suite: a fresh runner
// (so a fresh machine) per probe over the dispatcher and fixtures, the
// per-OS supported catalog, and one data-type registry built here and
// shared by every runner and by the sweep itself, so a probe boots a
// machine, not a registry.
func scarceDeps() *scarce.Deps {
	reg := suite.NewRegistry()
	return &scarce.Deps{
		NewRunner: func(o OS) *core.Runner { return newSuiteRunner(defaultConfig(o), reg) },
		MuTs:      catalog.MuTsFor,
		Registry:  reg,
	}
}

// DefaultScarceEnvs returns the standard scarcity-environment matrix
// (each axis exhausted, the multi-allocation brink variants, and a
// composite thrashing machine).
func DefaultScarceEnvs() []ScarceEnv { return scarce.DefaultEnvs() }

// ParseScarceEnv resolves a default scarcity environment by name.
func ParseScarceEnv(name string) (ScarceEnv, error) { return scarce.ParseEnv(name) }

// ScarceSweep runs one resource-scarcity sweep: every catalog MuT (or
// a budget-capped prefix) executes its all-valid test case inside each
// depleted environment on every supporting OS profile, and the three
// scarce oracles judge the outcomes differentially.
func ScarceSweep(ctx context.Context, cfg ScarceConfig) (*ScarceReport, error) {
	cfg.Deps = scarceDeps()
	return scarce.Sweep(ctx, cfg)
}

// LoadScarceReproducer parses a minimized scarcity-finding document
// from a JSON file.
func LoadScarceReproducer(path string) (*ScarceReproducer, error) {
	return scarce.LoadReproducer(path)
}

// VerifyScarceReproducer re-probes a scarcity reproducer's MuT inside
// its recorded environment and checks the recorded per-OS verdicts
// still hold (the golden corpus regression check).
func VerifyScarceReproducer(rep *ScarceReproducer, seed uint64) error {
	return rep.Verify(scarceDeps(), seed)
}

// HinderResult re-exports the Hindering-failure probe outcome.
type HinderResult = hinder.Result

// AuditHindering runs the Hindering-failure oracle (CRASH's "H": wrong
// error codes) against one OS variant.  The paper could only measure
// these manually "in some situations"; the oracle mechanizes those
// situations.
func AuditHindering(o OS) ([]HinderResult, error) {
	reg := suite.NewRegistry()
	return hinder.Audit(newSuiteRunner(defaultConfig(o), reg), reg, o)
}
