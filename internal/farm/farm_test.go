package farm_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"ballista"
	"ballista/internal/core"
	"ballista/internal/report"
)

const testCap = 300

// runFarm is a shorthand for a WinNT farm campaign at the test cap.
func runFarm(t *testing.T, workers int, opts ...ballista.Option) *core.OSResult {
	t.Helper()
	opts = append([]ballista.Option{ballista.WithCap(testCap)}, opts...)
	res, err := ballista.RunFarm(context.Background(), ballista.WinNT,
		ballista.FarmConfig{Workers: workers}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameOSResult compares two campaign outcomes case by case.
func sameOSResult(t *testing.T, label string, a, b *core.OSResult) {
	t.Helper()
	if a.OS != b.OS || a.CasesRun != b.CasesRun || a.Reboots != b.Reboots {
		t.Errorf("%s: headline mismatch: %s/%d/%d vs %s/%d/%d",
			label, a.OS, a.CasesRun, a.Reboots, b.OS, b.CasesRun, b.Reboots)
	}
	if len(a.Results) != len(b.Results) {
		t.Fatalf("%s: %d vs %d MuT results", label, len(a.Results), len(b.Results))
	}
	for i := range a.Results {
		ra, rb := a.Results[i], b.Results[i]
		if ra.Name() != rb.Name() || ra.Wide != rb.Wide {
			t.Fatalf("%s: result %d is %s/%v vs %s/%v — order not stable",
				label, i, ra.Name(), ra.Wide, rb.Name(), rb.Wide)
		}
		if !reflect.DeepEqual(ra.Cases, rb.Cases) {
			t.Errorf("%s: %s per-case classes differ", label, ra.Name())
		}
		if !reflect.DeepEqual(ra.Exceptional, rb.Exceptional) {
			t.Errorf("%s: %s exceptional flags differ", label, ra.Name())
		}
		if ra.Incomplete != rb.Incomplete {
			t.Errorf("%s: %s incomplete flag differs", label, ra.Name())
		}
	}
}

// TestFarmMatchesSequential is the subsystem's core guarantee: the
// merged farm result is identical to a plain sequential Runner.RunAll,
// for one worker and for many.
func TestFarmMatchesSequential(t *testing.T) {
	seq, err := ballista.RunContext(context.Background(), ballista.WinNT, ballista.WithCap(testCap))
	if err != nil {
		t.Fatal(err)
	}
	sameOSResult(t, "seq vs 1 worker", seq, runFarm(t, 1))
	sameOSResult(t, "seq vs 8 workers", seq, runFarm(t, 8))
}

// TestFarmDeterministicAcrossWorkerCounts also pins the report layer:
// the CSV bytes produced from a 1-worker and an 8-worker campaign must
// be identical.
func TestFarmDeterministicAcrossWorkerCounts(t *testing.T) {
	one := runFarm(t, 1)
	eight := runFarm(t, 8)
	sameOSResult(t, "1 vs 8 workers", one, eight)

	csv := func(r *core.OSResult) []byte {
		var buf bytes.Buffer
		if err := report.WriteMuTCSV(&buf, map[ballista.OS]*core.OSResult{ballista.WinNT: r}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(csv(one), csv(eight)) {
		t.Error("report CSV differs between 1-worker and 8-worker campaigns")
	}
}

// shardCounter counts shard completions and optionally cancels the
// campaign after a threshold; it is shared across worker goroutines.
type shardCounter struct {
	mu         sync.Mutex
	shards     int
	mutStarts  int
	cancelAt   int
	cancelFunc context.CancelFunc
}

func (s *shardCounter) OnMuTStart(core.MuTStartEvent) {
	s.mu.Lock()
	s.mutStarts++
	s.mu.Unlock()
}
func (s *shardCounter) OnCaseDone(core.CaseEvent)         {}
func (s *shardCounter) OnReboot(core.RebootEvent)         {}
func (s *shardCounter) OnCampaignDone(core.CampaignEvent) {}
func (s *shardCounter) OnShardDone(core.ShardEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.shards++
	if s.cancelFunc != nil && s.shards >= s.cancelAt {
		s.cancelFunc()
	}
}
func (s *shardCounter) counts() (shards, mutStarts int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shards, s.mutStarts
}

// TestFarmCheckpointResume kills a campaign mid-run and resumes it from
// the journal: the resumed run must not re-execute finished shards and
// the final merged result must equal an uninterrupted run's.
func TestFarmCheckpointResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "nt.ckpt")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	first := &shardCounter{cancelAt: 5, cancelFunc: cancel}
	_, err := ballista.RunFarm(ctx, ballista.WinNT,
		ballista.FarmConfig{Workers: 2, Checkpoint: ckpt},
		ballista.WithCap(testCap), ballista.WithObserver(first))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}
	doneFirst, _ := first.counts()
	if doneFirst < 5 {
		t.Fatalf("only %d shards completed before the kill", doneFirst)
	}

	second := &shardCounter{}
	res, err := ballista.RunFarm(context.Background(), ballista.WinNT,
		ballista.FarmConfig{Workers: 2, Checkpoint: ckpt},
		ballista.WithCap(testCap), ballista.WithObserver(second))
	if err != nil {
		t.Fatal(err)
	}
	doneSecond, startsSecond := second.counts()
	total := len(res.Results)
	if doneSecond != total-doneFirst {
		t.Errorf("resume ran %d shards, want %d (total %d - %d journaled)",
			doneSecond, total-doneFirst, total, doneFirst)
	}
	if startsSecond != doneSecond {
		t.Errorf("resume started %d MuT campaigns but completed %d shards", startsSecond, doneSecond)
	}

	sameOSResult(t, "resumed vs uninterrupted", res, runFarm(t, 2))
}

// TestFarmCheckpointCompleteRerun re-runs a finished campaign from its
// journal: every shard restores, nothing executes.
func TestFarmCheckpointCompleteRerun(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "nt.ckpt")
	fresh, err := ballista.RunFarm(context.Background(), ballista.WinNT,
		ballista.FarmConfig{Workers: 4, Checkpoint: ckpt}, ballista.WithCap(testCap))
	if err != nil {
		t.Fatal(err)
	}

	counter := &shardCounter{}
	replay, err := ballista.RunFarm(context.Background(), ballista.WinNT,
		ballista.FarmConfig{Workers: 4, Checkpoint: ckpt},
		ballista.WithCap(testCap), ballista.WithObserver(counter))
	if err != nil {
		t.Fatal(err)
	}
	if shards, _ := counter.counts(); shards != 0 {
		t.Errorf("replay executed %d shards, want 0 (all journaled)", shards)
	}
	sameOSResult(t, "replay vs fresh", fresh, replay)
}

// TestFarmCheckpointResumesV1Journal: testdata/v1-journal.jsonl was
// written by the first journal implementation.  The same campaign
// journaled today writes identical bytes, and resuming from the old
// file executes no shard, leaves it unchanged, and merges the result a
// fresh run does.
func TestFarmCheckpointResumesV1Journal(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("testdata", "v1-journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	run := func(ckpt string, opts ...ballista.Option) *core.OSResult {
		t.Helper()
		opts = append(opts, ballista.WithCap(1))
		res, err := ballista.RunFarm(context.Background(), ballista.Linux,
			ballista.FarmConfig{Workers: 1, Checkpoint: ckpt}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fresh := run(filepath.Join(dir, "fresh.jsonl"))
	if got, _ := os.ReadFile(filepath.Join(dir, "fresh.jsonl")); !bytes.Equal(got, v1) {
		t.Error("a fresh journal differs from the v1 journal of the same campaign")
	}

	ckpt := filepath.Join(dir, "v1.jsonl")
	if err := os.WriteFile(ckpt, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	counter := &shardCounter{}
	resumed := run(ckpt, ballista.WithObserver(counter))
	if shards, _ := counter.counts(); shards != 0 {
		t.Errorf("resuming from the v1 journal executed %d shards, want 0", shards)
	}
	if got, _ := os.ReadFile(ckpt); !bytes.Equal(got, v1) {
		t.Error("resuming from the v1 journal changed it")
	}
	sameOSResult(t, "v1 resume vs fresh", fresh, resumed)
}

// TestFarmCheckpointMismatch: resuming a journal against a different
// campaign (other cap) must fail loudly, not corrupt results.
func TestFarmCheckpointMismatch(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "nt.ckpt")
	if _, err := ballista.RunFarm(context.Background(), ballista.WinNT,
		ballista.FarmConfig{Workers: 2, Checkpoint: ckpt}, ballista.WithCap(testCap)); err != nil {
		t.Fatal(err)
	}
	_, err := ballista.RunFarm(context.Background(), ballista.WinNT,
		ballista.FarmConfig{Workers: 2, Checkpoint: ckpt}, ballista.WithCap(testCap+1))
	if err == nil {
		t.Fatal("checkpoint for another cap accepted")
	}
}

// TestFarmCancelledBeforeStart: an already-cancelled context yields no
// work and the context's error.
func TestFarmCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ballista.RunFarm(ctx, ballista.WinNT, ballista.FarmConfig{Workers: 2},
		ballista.WithCap(testCap))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestFarmWorkerDefault: Workers <= 0 must still complete a campaign
// (pool sized to GOMAXPROCS).
func TestFarmWorkerDefault(t *testing.T) {
	res := runFarm(t, 0)
	if len(res.Results) == 0 || res.CasesRun == 0 {
		t.Fatalf("default-size farm produced %d results / %d cases", len(res.Results), res.CasesRun)
	}
}
