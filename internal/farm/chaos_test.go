package farm_test

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"ballista"
	"ballista/internal/chaos"
	"ballista/internal/core"
	"ballista/internal/farm"
)

// mustPreset resolves a stock chaos plan or fails the test.
func mustPreset(t *testing.T, name string, seed uint64) *chaos.Plan {
	t.Helper()
	p, err := chaos.Preset(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestFarmAbsorbsRetryableHarnessFaults is the resilience oracle for the
// harness domain: under the retryable "harness" preset (transient
// checkpoint-write faults plus worker panics) an 8-worker checkpointed
// campaign's merged report must be identical to the fault-free run —
// the hardened harness absorbs every injected fault.
func TestFarmAbsorbsRetryableHarnessFaults(t *testing.T) {
	plan := mustPreset(t, "harness", 11)
	if !plan.Retryable() {
		t.Fatal("harness preset is not retryable; the oracle does not apply")
	}
	stats := chaos.NewStats()
	ckpt := filepath.Join(t.TempDir(), "nt.ckpt")
	f := ballista.NewFarm(ballista.WinNT,
		ballista.FarmConfig{Workers: 8, Checkpoint: ckpt},
		ballista.WithCap(testCap), ballista.WithChaos(plan), ballista.WithChaosStats(stats))
	faulted, err := f.Run(context.Background())
	if err != nil {
		t.Fatalf("retryable harness faults leaked out of the farm: %v", err)
	}

	snap := stats.Snapshot()
	var injected uint64
	for _, n := range snap.Injected {
		injected += n
	}
	if injected == 0 {
		t.Fatal("harness preset injected nothing; the oracle tested nothing")
	}
	if snap.Retried == 0 {
		t.Error("checkpoint faults fired but no append was retried")
	}

	sameOSResult(t, "harness chaos vs fault-free", faulted, runFarm(t, 8))
}

// TestFarmWorkerPanicQuarantine drives panics hard (every other shard
// attempt) and checks the isolation machinery: each panic is recorded as
// a quarantined harness-fault case, the shard is retried in place, and
// the merged report still matches the fault-free run.
func TestFarmWorkerPanicQuarantine(t *testing.T) {
	plan := &chaos.Plan{Seed: 3, Rules: []chaos.Rule{
		{Op: chaos.OpWorkerPanic, RatePerMille: 500, Transient: true},
	}}
	stats := chaos.NewStats()
	f := ballista.NewFarm(ballista.WinNT, ballista.FarmConfig{Workers: 4},
		ballista.WithCap(testCap), ballista.WithChaos(plan), ballista.WithChaosStats(stats))
	res, err := f.Run(context.Background())
	if err != nil {
		t.Fatalf("panicking workers sank the campaign: %v", err)
	}

	qs := f.Quarantined()
	if len(qs) == 0 {
		t.Fatal("panics fired but nothing was quarantined")
	}
	for _, q := range qs {
		if q.Reason == "" || q.MuT == "" {
			t.Errorf("quarantine record missing context: %+v", q)
		}
	}
	if snap := stats.Snapshot(); snap.Quarantined != uint64(len(qs)) {
		t.Errorf("stats count %d quarantined, farm recorded %d", snap.Quarantined, len(qs))
	}

	sameOSResult(t, "panic chaos vs fault-free", res, runFarm(t, 4))
}

// TestFarmKillAtFaultResume is the crash-consistency half of the oracle:
// a non-transient checkpoint-write fault (every commit fails after the
// first two, so the third batch of 64 shards never reaches the journal)
// exhausts the retry budget and kills the campaign mid-run; resuming the
// journal without chaos must produce a report identical to an
// uninterrupted run.
func TestFarmKillAtFaultResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "nt.ckpt")
	fatal := &chaos.Plan{Seed: 5, Rules: []chaos.Rule{
		{Op: chaos.OpCkptWrite, Kind: chaos.KindFail, RatePerMille: 1000, After: 2},
	}}
	_, err := ballista.RunFarm(context.Background(), ballista.WinNT,
		ballista.FarmConfig{Workers: 2, Checkpoint: ckpt},
		ballista.WithCap(testCap), ballista.WithChaos(fatal))
	if !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("persistent checkpoint fault returned %v, want chaos.ErrInjected", err)
	}
	total := len(farm.ShardDescs(ballista.WinNT))
	if n := journaled(t, ckpt, ballista.WinNT, testCap); n == 0 || n >= total {
		t.Fatalf("the fault left %d of %d shards journaled, want some but not all", n, total)
	}

	res, err := ballista.RunFarm(context.Background(), ballista.WinNT,
		ballista.FarmConfig{Workers: 2, Checkpoint: ckpt}, ballista.WithCap(testCap))
	if err != nil {
		t.Fatalf("resume after fault-kill: %v", err)
	}
	sameOSResult(t, "resumed-after-fault vs uninterrupted", res, runFarm(t, 2))
}

// TestFarmTornCheckpointLinesSkipped checks the journal's torn-write
// contract end to end: "short" checkpoint faults leave newline-terminated
// half-lines in the file, the retry appends the clean record after them,
// and a resume replays every shard without re-running anything.
func TestFarmTornCheckpointLinesSkipped(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "nt.ckpt")
	torn := &chaos.Plan{Seed: 17, Rules: []chaos.Rule{
		{Op: chaos.OpCkptWrite, Kind: chaos.KindShort, RatePerMille: 400, Transient: true},
	}}
	stats := chaos.NewStats()
	fresh, err := ballista.RunFarm(context.Background(), ballista.WinNT,
		ballista.FarmConfig{Workers: 2, Checkpoint: ckpt},
		ballista.WithCap(testCap), ballista.WithChaos(torn), ballista.WithChaosStats(stats))
	if err != nil {
		t.Fatalf("transient torn writes leaked out of the journal: %v", err)
	}
	if stats.Snapshot().Injected[chaos.OpCkptWrite] == 0 {
		t.Fatal("no torn writes injected; the replay below proves nothing")
	}

	counter := &shardCounter{}
	replay, err := ballista.RunFarm(context.Background(), ballista.WinNT,
		ballista.FarmConfig{Workers: 2, Checkpoint: ckpt},
		ballista.WithCap(testCap), ballista.WithObserver(counter))
	if err != nil {
		t.Fatalf("replaying a journal with torn lines: %v", err)
	}
	if shards, _ := counter.counts(); shards != 0 {
		t.Errorf("replay re-ran %d shards; torn lines should be skipped, not fatal", shards)
	}
	sameOSResult(t, "torn-journal replay vs fresh", fresh, replay)
}

// TestFarmPersistentPanicMarksIncomplete: a worker panic that fires on
// every attempt exhausts the retry budget.  Each shard is quarantined
// once per attempt, surfaces as Incomplete, and stays out of the journal,
// so a resume without chaos re-runs it and matches the fault-free run.
func TestFarmPersistentPanicMarksIncomplete(t *testing.T) {
	const smallCap = 20
	ckpt := filepath.Join(t.TempDir(), "nt.ckpt")
	plan := &chaos.Plan{Seed: 9, Rules: []chaos.Rule{
		{Op: chaos.OpWorkerPanic, RatePerMille: 1000},
	}}
	f := ballista.NewFarm(ballista.WinNT,
		ballista.FarmConfig{Workers: 2, Checkpoint: ckpt},
		ballista.WithCap(smallCap), ballista.WithChaos(plan))
	res, err := f.Run(context.Background())
	if err != nil {
		t.Fatalf("persistent panics sank the campaign: %v", err)
	}
	for _, r := range res.Results {
		if !r.Incomplete {
			t.Errorf("%s (wide=%v) completed under a panic on every attempt", r.Name(), r.Wide)
		}
	}

	attempts := make(map[int][]int)
	for _, q := range f.Quarantined() {
		attempts[q.Shard] = append(attempts[q.Shard], q.Attempt)
	}
	if len(attempts) != len(res.Results) {
		t.Errorf("%d shards quarantined, want all %d", len(attempts), len(res.Results))
	}
	for shard, as := range attempts {
		sort.Ints(as)
		if !reflect.DeepEqual(as, []int{1, 2, 3}) {
			t.Errorf("shard %d quarantined at attempts %v, want [1 2 3]", shard, as)
		}
	}

	if n := journaled(t, ckpt, ballista.WinNT, smallCap); n != 0 {
		t.Errorf("journal holds %d records of shards that never completed", n)
	}

	resumed, err := ballista.RunFarm(context.Background(), ballista.WinNT,
		ballista.FarmConfig{Workers: 2, Checkpoint: ckpt}, ballista.WithCap(smallCap))
	if err != nil {
		t.Fatalf("resume after persistent panics: %v", err)
	}
	sameOSResult(t, "resumed-after-panics vs fault-free", resumed, runFarm(t, 2, ballista.WithCap(smallCap)))
}

// TestFarmSpawnScarcityNeverFailsTheHarness: a kern.spawn rule models a
// machine out of process slots for the code under test (fork,
// CreateProcess), never for the harness's own test process.  With the
// rule firing on every decision, no shard may be quarantined, every case
// must still run, and the report must not depend on the worker count.
// The rule must still fail API-level spawns: Linux's fork cases reach
// one (no WinNT CreateProcess case at this cap gets that far).
func TestFarmSpawnScarcityNeverFailsTheHarness(t *testing.T) {
	plan := &chaos.Plan{Seed: 7, Rules: []chaos.Rule{
		{Op: chaos.OpKernSpawn, RatePerMille: 1000},
	}}
	var spawnsFailed uint64
	for _, o := range []ballista.OS{ballista.WinNT, ballista.Linux} {
		t.Run(o.WireName(), func(t *testing.T) {
			free, err := ballista.RunFarm(context.Background(), o,
				ballista.FarmConfig{Workers: 1}, ballista.WithCap(testCap))
			if err != nil {
				t.Fatal(err)
			}
			var one *core.OSResult
			for _, workers := range []int{1, 4} {
				stats := chaos.NewStats()
				f := ballista.NewFarm(o, ballista.FarmConfig{Workers: workers},
					ballista.WithCap(testCap), ballista.WithChaos(plan), ballista.WithChaosStats(stats))
				res, err := f.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if qs := f.Quarantined(); len(qs) != 0 {
					t.Fatalf("%d workers: %d shards quarantined, first: %+v", workers, len(qs), qs[0])
				}
				if res.CasesRun != free.CasesRun {
					t.Errorf("%d workers: %d cases ran, the chaos-free run %d", workers, res.CasesRun, free.CasesRun)
				}
				spawnsFailed += stats.Snapshot().Injected[chaos.OpKernSpawn]
				if one == nil {
					one = res
				} else {
					sameOSResult(t, "spawn scarcity, 1 vs 4 workers", one, res)
				}
			}
		})
	}
	if spawnsFailed == 0 {
		t.Error("the spawn rule never fired: no API-level spawn consulted it")
	}
}
