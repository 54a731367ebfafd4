// Package farm runs one OS variant's campaign across a pool of
// parallel workers — the software analogue of the paper's bank of six
// physical Windows test machines grinding through >2M cases for days.
// The catalog is sharded one MuT campaign per shard, and the shards run
// through sweep.Run, the skeleton shared with the other sweep engines:
// each worker takes the next shard in catalog order and runs it on its
// own Executor, so a full sweep uses every core instead of one.
//
// Two properties the paper's hardware could not offer:
//
//   - Determinism: every shard starts on a freshly booted kernel, so the
//     merged OSResult is identical for any worker count and any
//     schedule — results land in stable catalog order and per-shard
//     reboot counts are summed.  Case generation is already seeded by
//     MuT name alone, so a shard's outcome depends only on the shard.
//   - Checkpoint/resume: with a journal configured, completed shards are
//     group-committed to the sweep journal, 64 to a write and fsync,
//     under a header that fingerprints the OS, the cap and the shard
//     list.  A campaign killed mid-run (ballistad shutdown, operator
//     Ctrl-C, the simulated equivalent of the paper's "system crash
//     interrupts the testing process") resumes without re-running the
//     committed shards; a kill loses at most the 64 not yet committed.
package farm

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"ballista/internal/chaos"
	"ballista/internal/core"
	"ballista/internal/osprofile"
	"ballista/internal/sweep"
)

// Config configures a parallel campaign.  The embedded core.Config is
// applied to every worker's runner; its Observer, if any, is shared by
// all workers and must therefore be safe for concurrent use (the stock
// internal/telemetry observers are).
type Config struct {
	core.Config
	// Workers is the pool size; <= 0 selects runtime.GOMAXPROCS(0).
	Workers int
	// Checkpoint is the JSONL journal path; empty disables checkpointing.
	Checkpoint string
}

// Farm runs sharded campaigns for one OS variant.
type Farm struct {
	cfg      Config
	reg      *core.Registry
	dispatch core.Dispatcher
	fixture  core.Fixture
	profile  *osprofile.Profile

	// spanParent is the most recent Run's campaign span, the parent
	// every shard span links under (written once before workers start).
	spanParent uint64

	// quarantined records shards whose execution faulted in the harness
	// (worker panic) during the most recent Run; guarded by qmu.
	qmu         sync.Mutex
	quarantined []Quarantine
}

// Quarantine records one harness fault: a shard whose worker panicked.
// The shard is retried in place (up to maxShardAttempts), so a
// quarantine is an incident report, not a lost result.
type Quarantine struct {
	Shard   int    `json:"shard"`
	MuT     string `json:"mut"`
	Wide    bool   `json:"wide,omitempty"`
	Worker  int    `json:"worker"`
	Attempt int    `json:"attempt"`
	Reason  string `json:"reason"`
}

// maxShardAttempts bounds re-execution of a panicking shard; a shard
// that faults this many times is marked Incomplete rather than retried
// forever.
const maxShardAttempts = 3

// New assembles a farm from the same pieces core.NewRunner takes.
func New(cfg Config, reg *core.Registry, dispatch core.Dispatcher, fixture core.Fixture) *Farm {
	if cfg.Cap <= 0 {
		cfg.Cap = core.DefaultCap
	}
	profile := cfg.Profile
	if profile == nil {
		profile = osprofile.Get(cfg.OS)
	}
	return &Farm{cfg: cfg, reg: reg, dispatch: dispatch, fixture: fixture, profile: profile}
}

// Quarantined reports the harness faults isolated during the most
// recent Run, in the order they occurred.
func (f *Farm) Quarantined() []Quarantine {
	f.qmu.Lock()
	defer f.qmu.Unlock()
	return append([]Quarantine(nil), f.quarantined...)
}

func (f *Farm) addQuarantine(q Quarantine) {
	f.qmu.Lock()
	f.quarantined = append(f.quarantined, q)
	f.qmu.Unlock()
	f.cfg.ChaosStats.AddQuarantined()
	f.cfg.Spans.Instant("quarantine", q.MuT, q.Reason)
	f.cfg.Spans.Dump("quarantine") // a failure is kept for the recorder's Close
}

// Run executes the sharded campaign and merges per-worker results into
// an OSResult identical to a sequential Runner.RunAll: results in stable
// catalog order, CasesRun summed over executed cases, Reboots summed
// over per-shard reboot epochs.  The shards run through sweep.Run, so
// with a checkpoint configured the campaign resumes from the journal and
// group-commits its completed shards there.  Cancelling ctx stops every
// worker at its next test-case boundary.  A failed shard or checkpoint
// commit stops the pool handing out shards; the workers finish the
// shards in flight, and Run returns the error of the lowest failing
// shard.
func (f *Farm) Run(ctx context.Context) (*core.OSResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	f.qmu.Lock()
	f.quarantined = nil
	f.qmu.Unlock()

	// Harness-domain fault session (journal tears, worker panics),
	// shared across workers; substrate faults get their own session per
	// machine boot inside each worker's runner.
	var hinj *chaos.Injector
	if f.cfg.Chaos != nil {
		hinj = f.cfg.Chaos.NewInjector(f.cfg.ChaosStats)
		hinj.SetSpans(f.cfg.Spans)
	}

	cs := f.cfg.Spans.Start("campaign", f.cfg.OS.WireName())
	defer cs.End()
	f.spanParent = cs.ID()

	descs := shardDescs(f.cfg.OS, f.profile)
	workers := f.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Worker w runs its shards on execs[w], booted on its first shard.
	execs := make([]*Executor, workers)
	// One slab holds every shard's outcome, so a shard allocates none,
	// and only a journal's header needs the campaign ID.
	outs := make([]outcome, len(descs))
	var id string
	if f.cfg.Checkpoint != "" {
		id = campaignID(f.cfg.OS.WireName(), f.cfg.Cap, descs)
	}
	shards, err := sweep.Run(ctx, sweep.Job[outcome]{
		Kind: "farm", Unit: "shard", ID: id,
		N: len(descs), Workers: workers, Checkpoint: f.cfg.Checkpoint, Chaos: hinj,
		Eval: func(w, i int) (*outcome, error) {
			if execs[w] == nil {
				execs[w] = &Executor{cfg: f.cfg, reg: f.reg, dispatch: f.dispatch, fixture: f.fixture}
			}
			d := descs[i]
			shardStart := time.Now()
			res, reboots, err := f.runShard(ctx, execs[w], w, d, hinj)
			if err != nil || res == nil {
				return nil, err
			}
			if f.cfg.Observer != nil {
				f.cfg.Observer.Observe(&core.ShardEvent{
					OS: f.cfg.OS.WireName(), Worker: w, Shard: d.Index,
					MuT: d.MuT, Wide: d.Wide,
					Cases: res.Executed(), Reboots: reboots,
					Wall: time.Since(shardStart),
				})
			}
			outs[i] = outcome{res: res, reboots: reboots}
			return &outs[i], nil
		},
	})
	if err != nil {
		return nil, err
	}

	out := &core.OSResult{OS: f.profile.Name}
	for i, s := range shards {
		if s == nil {
			// Persistent harness fault: surface the shard as Incomplete
			// rather than retrying forever.  sweep.Run left it out of the
			// journal, so a later resume re-attempts it.
			s = &outcome{res: &core.MuTResult{Incomplete: true}}
		}
		if s.res.MuT.Name == "" {
			// Incomplete, or restored from the journal: named by its
			// descriptor, which comes from the OS's own catalog.
			s.res.MuT, _ = lookupMuT(f.cfg.OS, descs[i].MuT)
			s.res.Wide = descs[i].Wide
		}
		out.Results = append(out.Results, s.res)
		out.CasesRun += s.res.Executed()
		out.Reboots += s.reboots
	}
	if f.cfg.Observer != nil {
		f.cfg.Observer.Observe(&core.CampaignEvent{
			OS: f.cfg.OS.WireName(), MuTs: len(out.Results),
			CasesRun: out.CasesRun, Reboots: out.Reboots, Wall: time.Since(start),
		})
	}
	return out, nil
}

// runShard runs one shard on worker w's executor with panic isolation,
// retrying in place.  A recovered panic, injected or real, quarantines
// the attempt and drops the executor's runner, whose machine state is
// suspect, so the next attempt boots a fresh one.  A nil result with a
// nil error means every attempt panicked.
func (f *Farm) runShard(ctx context.Context, ex *Executor, w int, d ShardDesc,
	hinj *chaos.Injector) (res *core.MuTResult, reboots int, err error) {
	for attempt := 1; attempt <= maxShardAttempts && res == nil && err == nil; attempt++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					f.addQuarantine(Quarantine{
						Shard: d.Index, MuT: d.MuT, Wide: d.Wide, Worker: w,
						Attempt: attempt, Reason: fmt.Sprint(r),
					})
					ex.runner = nil
				}
			}()
			// Injected harness fault: a worker panic just before the
			// shard runs, recovered by the same isolation path as a real
			// one.
			if _, ok := hinj.Fault(chaos.OpWorkerPanic, d.MuT); ok {
				panic("chaos: injected worker panic")
			}
			ss := f.cfg.Spans.Start("shard", d.MuT).
				SetParent(f.spanParent).SetOS(f.cfg.OS.WireName()).SetWorker(strconv.Itoa(w))
			ex.SetSpanParent(ss.ID())
			res, reboots, err = ex.run(ctx, d)
			if err != nil {
				ss.SetDetail("error")
			}
			ss.End()
		}()
	}
	return res, reboots, err
}
