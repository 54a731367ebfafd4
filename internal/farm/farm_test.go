package farm_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ballista"
	"ballista/internal/core"
	"ballista/internal/farm"
	"ballista/internal/report"
	"ballista/internal/sweep"
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

func (s *shardCounter) Observe(ev core.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch ev.(type) {
	case *core.MuTStartEvent:
		s.mutStarts++
	case *core.ShardEvent:
		s.shards++
		if s.cancelFunc != nil && s.shards >= s.cancelAt {
			s.cancelFunc()
		}
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

// TestFarmCheckpointRefusesV1Journal: testdata/v1-journal.jsonl was
// written by the farm's first journal, one self-describing record per
// shard and no header.  The farm now journals through the sweep journal,
// whose header names its kind, so resuming from the old file is refused
// with an error that names the version it found: no shard runs, and the
// file is left as it was.
func TestFarmCheckpointRefusesV1Journal(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("testdata", "v1-journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "v1.jsonl")
	if err := os.WriteFile(ckpt, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	counter := &shardCounter{}
	_, err = ballista.RunFarm(context.Background(), ballista.Linux,
		ballista.FarmConfig{Workers: 1, Checkpoint: ckpt},
		ballista.WithCap(1), ballista.WithObserver(counter))
	if err == nil {
		t.Fatal("a v1 farm journal was resumed")
	}
	if !strings.Contains(err.Error(), "v1") {
		t.Errorf("refusal %q does not name the journal's version", err)
	}
	if shards, _ := counter.counts(); shards != 0 {
		t.Errorf("the refused campaign ran %d shards", shards)
	}
	if got, _ := os.ReadFile(ckpt); !bytes.Equal(got, v1) {
		t.Error("refusing the v1 journal changed it")
	}
}

// TestFarmResumeAtBatchBoundaries kills a one-worker farm at every
// journal batch boundary — the journal then holds exactly the committed
// batches — and once with a torn line after the first batch.  Each
// resume runs only the shards the journal lacks and merges the
// uninterrupted result.
func TestFarmResumeAtBatchBoundaries(t *testing.T) {
	const (
		smallCap = 20
		batch    = 64 // sweep.Run's group-commit size
	)
	ref := runFarm(t, 1, ballista.WithCap(smallCap))
	full := filepath.Join(t.TempDir(), "full.jsonl")
	if _, err := ballista.RunFarm(context.Background(), ballista.WinNT,
		ballista.FarmConfig{Workers: 1, Checkpoint: full}, ballista.WithCap(smallCap)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	total := len(ref.Results)
	if len(lines) != 1+total {
		t.Fatalf("journal has %d lines, want header + %d", len(lines), total)
	}
	type cut struct {
		committed int
		torn      bool
	}
	cuts := []cut{{batch, true}, {total, false}}
	for c := 0; c < total; c += batch {
		cuts = append(cuts, cut{c, false})
	}
	for _, c := range cuts {
		name := fmt.Sprintf("%d committed, torn=%v", c.committed, c.torn)
		t.Run(name, func(t *testing.T) {
			kept := strings.Join(lines[:1+c.committed], "\n") + "\n"
			if c.torn {
				next := lines[1+c.committed]
				kept += next[:len(next)/2]
			}
			path := filepath.Join(t.TempDir(), "killed.jsonl")
			if err := os.WriteFile(path, []byte(kept), 0o644); err != nil {
				t.Fatal(err)
			}
			counter := &shardCounter{}
			res, err := ballista.RunFarm(context.Background(), ballista.WinNT,
				ballista.FarmConfig{Workers: 2, Checkpoint: path},
				ballista.WithCap(smallCap), ballista.WithObserver(counter))
			if err != nil {
				t.Fatal(err)
			}
			if shards, _ := counter.counts(); shards != total-c.committed {
				t.Errorf("resume ran %d shards, want the %d not committed", shards, total-c.committed)
			}
			sameOSResult(t, "resumed vs uninterrupted", ref, res)
		})
	}
}

// journaled counts the shards a farm journal holds, reading it back
// through the sweep journal the farm writes it with.
func journaled(t *testing.T, ckpt string, o ballista.OS, cap int) int {
	t.Helper()
	descs := farm.ShardDescs(o)
	done := make([]*farm.ShardResult, len(descs))
	jnl, err := sweep.OpenJournal(ckpt, "farm", farm.CampaignID(o.WireName(), cap, descs), done)
	if err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, sr := range done {
		if sr != nil {
			n++
		}
	}
	return n
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
