package main

import (
	"bufio"
	"context"
	"encoding/json"
	"math/bits"
	"os"
	"strings"
	"time"
	"unicode"

	"ballista"
	"ballista/internal/api"
	"ballista/internal/catalog"
	"ballista/internal/core"
	"ballista/internal/crashsim"
	"ballista/internal/explore"
	"ballista/internal/farm"
	"ballista/internal/osprofile"
	"ballista/internal/scarce"
	"ballista/internal/sim/kern"
	"ballista/internal/suite"
)

// sampleEvery is the span sampling rate: one case (or crash evaluation)
// in this many is recorded as a span with its layer spans.  Counts and
// histograms see every call.
const sampleEvery = 1000

// histogram is a log2 histogram of durations with eight linear
// sub-buckets per octave, so a percentile reads to within 1/16.
type histogram [8 * 64]int64

func bucketOf(ns int64) int {
	if ns < 8 {
		return int(max(ns, 0))
	}
	e := bits.Len64(uint64(ns)) - 1 // ns is in [2^e, 2^(e+1))
	return 8*(e-2) + int(uint64(ns)>>(e-3)&7)
}

// quantileUS returns the q-quantile in microseconds, reading each
// bucket as its midpoint.
func (h *histogram) quantileUS(q float64) float64 {
	var total int64
	for _, n := range h {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := int64(q*float64(total-1)) + 1
	for b, n := range h {
		if rank -= n; rank > 0 {
			continue
		}
		if b < 8 {
			return float64(b) / 1e3
		}
		e := b/8 + 2
		lo := int64(8+b%8) << (e - 3)
		return (float64(lo) + float64(int64(1)<<(e-3))/2) / 1e3
	}
	return 0
}

// stat accumulates one layer's calls.
type stat struct {
	calls int64
	total time.Duration
	hist  histogram
}

func (s *stat) add(d time.Duration) {
	s.calls++
	s.total += d
	s.hist[bucketOf(int64(d))]++
}

// span is one recorded interval; Parent links it to the span that caused
// it.  Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer times the calls the engines make into each layer's public
// functions, from outside the program: it hands the engines a fixture, a
// dispatcher, a registry and runner factories that wrap the real ones.
// It is not safe for concurrent use; every workload runs one engine
// worker, and the engines join their workers before returning.
type tracer struct {
	workload string
	t0       time.Time

	// Engine layers.  fixture counts restores; fixtureFirst counts the
	// first fixture applied to each freshly booted kernel.
	fixture, fixtureFirst, construct, registry, dispatch stat
	// Crash-sweep layers.
	enumerate, evaluate, minimize stat
	runners                       int64

	timedReg *core.Registry
	// Dispatch time by catalog group, fixture and dispatch time by OS.
	group                 []time.Duration
	osFixture, osDispatch []time.Duration
	lastKernel            *kern.Kernel

	passes   int           // whole passes the steps made up
	wall     time.Duration // wall time of the steps
	spans    []span
	stepSpan int // ID of the running step's span
	caseSpan int // ID of the sampled case in progress, 0 when none
	cases    int64
}

func newTracer(workload string) *tracer {
	var maxGroup catalog.Group
	for _, g := range catalog.Groups() {
		maxGroup = max(maxGroup, g)
	}
	var maxOS osprofile.OS
	for _, o := range osprofile.All() {
		maxOS = max(maxOS, o)
	}
	t := &tracer{
		workload:   workload,
		t0:         time.Now(),
		group:      make([]time.Duration, maxGroup+1),
		osFixture:  make([]time.Duration, maxOS+1),
		osDispatch: make([]time.Duration, maxOS+1),
	}
	t.timedReg = t.timedCopy(suite.NewRegistry())
	return t
}

// now reads the monotonic clock as an offset from the tracer's start,
// which costs about half of a time.Now.
func (t *tracer) now() time.Duration { return time.Since(t.t0) }

// open starts a span and returns its ID.
func (t *tracer) open(name string, parent int, at time.Duration) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: int64(at)})
	return len(t.spans)
}

func (t *tracer) close(id int, at time.Duration) { t.spans[id-1].End = int64(at) }

// record adds a finished span.
func (t *tracer) record(name string, parent int, start, d time.Duration) {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: int64(start), End: int64(start + d)})
}

func (t *tracer) beginStep() { t.stepSpan = t.open(t.workload, 0, t.now()) }

func (t *tracer) endStep(wall time.Duration) {
	at := t.now()
	t.endCase(at)
	t.close(t.stepSpan, at)
	t.wall += wall
}

func (t *tracer) endCase(at time.Duration) {
	if t.caseSpan != 0 {
		t.close(t.caseSpan, at)
		t.caseSpan = 0
	}
}

// fixtureFor wraps suite.SetupFixtures.  Each call starts a case, so a
// sampled case span runs from one fixture call to the next and its self
// time holds process creation, cleanup, classification and the engine's
// bookkeeping between cases.
func (t *tracer) fixtureFor(o osprofile.OS) core.Fixture {
	return func(k *kern.Kernel) {
		start := t.now()
		t.endCase(start)
		if t.cases%sampleEvery == 0 {
			t.caseSpan = t.open("case", t.stepSpan, start)
		}
		t.cases++
		first := k != t.lastKernel
		t.lastKernel = k
		suite.SetupFixtures(k)
		d := t.now() - start
		name := "suite.fixture"
		if first {
			name = "suite.fixture_first"
			t.fixtureFirst.add(d)
		} else {
			t.fixture.add(d)
		}
		t.osFixture[o] += d
		if t.caseSpan != 0 {
			t.record(name, t.caseSpan, start, d)
		}
	}
}

// dispatcherFor wraps ballista.Dispatch; the returned implementation
// times the call and files it under the MuT's catalog group.
func (t *tracer) dispatcherFor(o osprofile.OS) core.Dispatcher {
	return func(m catalog.MuT) (core.Impl, bool) {
		impl, ok := ballista.Dispatch(m)
		if !ok {
			return nil, false
		}
		g := m.Group
		return func(c *api.Call) {
			start := t.now()
			impl(c)
			d := t.now() - start
			t.dispatch.add(d)
			t.group[g] += d
			t.osDispatch[o] += d
			if t.caseSpan != 0 {
				t.record("api.dispatch", t.caseSpan, start, d)
			}
		}, true
	}
}

// timedCopy copies a registry, wrapping every constructor in a timer.
func (t *tracer) timedCopy(reg *core.Registry) *core.Registry {
	out := core.NewRegistry()
	for _, name := range reg.Names() {
		dt, _ := reg.Lookup(name)
		cp := &core.DataType{Name: dt.Name, Values: make([]core.TestValue, len(dt.Values))}
		for i, v := range dt.Values {
			mk := v.Make
			v.Make = func(e *core.Env) (api.Arg, error) {
				start := t.now()
				a, err := mk(e)
				d := t.now() - start
				t.construct.add(d)
				if t.caseSpan != 0 {
					t.record("suite.construct", t.caseSpan, start, d)
				}
				return a, err
			}
			cp.Values[i] = v
		}
		out.MustAdd(cp)
	}
	return out
}

// newRegistry stands in for each suite.NewRegistry call the facade
// makes: it builds and times a fresh registry, as the facade does, and
// returns the tracer's one copy with timed constructors.  Copying every
// fresh registry would double the scarce sweep's time, which builds one
// per probe; the constructors are pure, so sharing one copy changes no
// output.
func (t *tracer) newRegistry() *core.Registry {
	start := t.now()
	_ = suite.NewRegistry()
	t.registry.add(t.now() - start)
	return t.timedReg
}

// runnerConfig is the engine configuration the facade gives every runner
// it builds.
func runnerConfig(o osprofile.OS) core.Config {
	return core.Config{OS: o, Cap: core.DefaultCap, StopMuTOnCrash: true}
}

// newRunner repeats ballista.NewRunner, which builds a registry per
// runner.
func (t *tracer) newRunner(o osprofile.OS) *core.Runner {
	t.runners++
	return core.NewRunner(runnerConfig(o), t.newRegistry(), t.dispatcherFor(o), t.fixtureFor(o))
}

// runFarm repeats ballista.RunFarm with one worker.
func (t *tracer) runFarm(ctx context.Context, o osprofile.OS, cap int) (*core.OSResult, error) {
	cfg := runnerConfig(o)
	cfg.Cap = cap
	f := farm.New(farm.Config{Config: cfg, Workers: 1}, t.newRegistry(), t.dispatcherFor(o), t.fixtureFor(o))
	return f.Run(ctx)
}

// scarceDeps repeats the facade's scarce wiring.
func (t *tracer) scarceDeps() *scarce.Deps {
	return &scarce.Deps{NewRunner: t.newRunner, MuTs: catalog.MuTsFor, Registry: t.newRegistry()}
}

// explore repeats ballista.Explore: one registry shared by every runner
// the fuzzer boots.
func (t *tracer) explore(ctx context.Context, cfg explore.Config) (*explore.Report, error) {
	reg := t.newRegistry()
	f, err := explore.New(cfg, reg, func(o osprofile.OS) *core.Runner {
		t.runners++
		return core.NewRunner(runnerConfig(o), reg, t.dispatcherFor(o), t.fixtureFor(o))
	})
	if err != nil {
		return nil, err
	}
	return f.Run(ctx)
}

// crashSweep repeats crashsim.Sweep without a checkpoint journal, built
// from the package's exported steps so each can be timed: Enumerate,
// Evaluate per workload, and the dedupe + Minimize merge.
func (t *tracer) crashSweep(ctx context.Context, seed uint64, maxOps int) (*crashsim.Report, error) {
	names := crashsim.DefaultNames()
	oses := osprofile.All()
	start := t.now()
	workloads := crashsim.Enumerate(names, maxOps, seed, 0)
	t.enumerate.add(t.now() - start)

	rep := &crashsim.Report{Seed: seed, MaxOps: maxOps, Names: names, Workloads: len(workloads)}
	for _, o := range oses {
		rep.OSes = append(rep.OSes, o.WireName())
	}
	seen := make(map[string]bool)
	var raw []*crashsim.Finding
	for _, w := range workloads {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		start := t.now()
		f := crashsim.Evaluate(w, names, oses)
		d := t.now() - start
		if t.evaluate.calls%sampleEvery == 0 {
			t.record("crashsim.evaluate", t.stepSpan, start, d)
		}
		t.evaluate.add(d)
		rep.CrashPoints += len(w.Ops)
		for _, v := range f.Verdicts {
			for _, n := range v.States {
				rep.States += n
			}
		}
		if !f.Interesting() {
			continue
		}
		if f.Divergent {
			rep.Divergent++
		}
		if f.Violating {
			rep.Violating++
		}
		if !seen[f.Signature] {
			seen[f.Signature] = true
			raw = append(raw, f)
		}
	}
	minSeen := make(map[string]bool)
	for _, f := range raw {
		start := t.now()
		m := crashsim.Minimize(f, names, oses)
		t.minimize.add(t.now() - start)
		if !minSeen[m.Signature] {
			minSeen[m.Signature] = true
			rep.Findings = append(rep.Findings, m)
		}
	}
	return rep, nil
}

// snake turns a catalog group label into a metric name element:
// "File/Directory Access" becomes "file_directory_access".
func snake(s string) string {
	var b strings.Builder
	under := false
	for _, r := range strings.ToLower(s) {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if under && b.Len() > 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
			under = false
		} else {
			under = true
		}
	}
	return b.String()
}

// metrics reports every layer metric per pass: counts and seconds per
// pass, shares of the traced wall time, per-call means and percentiles.
// A layer the workload does not use reads zero.
func (t *tracer) metrics() map[string]float64 {
	passes := float64(t.passes)
	wall := t.wall.Seconds()
	m := make(map[string]float64)
	layers := []struct {
		name  string
		s     *stat
		pctls bool
	}{
		{"suite.fixture", &t.fixture, true},
		{"suite.fixture_first", &t.fixtureFirst, false},
		{"suite.construct", &t.construct, false},
		{"suite.registry", &t.registry, false},
		{"api.dispatch", &t.dispatch, true},
		{"crashsim.enumerate", &t.enumerate, false},
		{"crashsim.evaluate", &t.evaluate, true},
		{"crashsim.minimize", &t.minimize, false},
	}
	var inLayers time.Duration
	for _, l := range layers {
		inLayers += l.s.total
		m[l.name+".calls"] = float64(l.s.calls) / passes
		m[l.name+".s"] = l.s.total.Seconds() / passes
		m[l.name+".share"] = l.s.total.Seconds() / wall
		m[l.name+".us_per_call"] = 0
		if l.s.calls > 0 {
			m[l.name+".us_per_call"] = l.s.total.Seconds() * 1e6 / float64(l.s.calls)
		}
		if l.pctls {
			m[l.name+".p50_us"] = l.s.hist.quantileUS(0.50)
			m[l.name+".p99_us"] = l.s.hist.quantileUS(0.99)
		}
	}
	m["core.runner.calls"] = float64(t.runners) / passes
	for _, g := range catalog.Groups() {
		m["api.dispatch."+snake(g.String())+".share"] = t.group[g].Seconds() / wall
	}
	for _, o := range osprofile.All() {
		m[o.WireName()+".fixture.share"] = t.osFixture[o].Seconds() / wall
		m[o.WireName()+".dispatch.share"] = t.osDispatch[o].Seconds() / wall
	}
	residual := t.wall - inLayers
	m["engine.residual.s"] = residual.Seconds() / passes
	m["engine.residual.share"] = residual.Seconds() / wall
	return m
}

// writeSpans writes the recorded spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
