package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ballista/internal/chaos"
)

type square struct {
	V int `json:"v"`
}

// squaresN spans three full journal batches and a partial fourth.
const squaresN = 3*batchSize + 5

// squares is a squaresN-item job whose evaluations are counted.
func squares(path string, evals *atomic.Int64) Job[square] {
	return Job[square]{
		Kind: "testsweep", Unit: "item", ID: "0000000000000001",
		N: squaresN, Workers: 4, Checkpoint: path,
		Eval: func(_, i int) (*square, error) {
			evals.Add(1)
			return &square{V: i * i}, nil
		},
	}
}

// TestRunJournalChaos drives the sweep journal through the chaos plane:
// an always-firing ckpt.write plan fails the sweep with the injected
// error, and a retryable plan of torn and failed writes is absorbed —
// the results equal the fault-free run's, and the journal it leaves
// resumes with nothing re-evaluated.
func TestRunJournalChaos(t *testing.T) {
	var evals atomic.Int64
	ref, err := Run(context.Background(), squares("", &evals))
	if err != nil {
		t.Fatal(err)
	}

	fatal := squares(filepath.Join(t.TempDir(), "fatal.jsonl"), &evals)
	fatal.Chaos = (&chaos.Plan{Seed: 1, Rules: []chaos.Rule{
		{Op: chaos.OpCkptWrite, Kind: chaos.KindFail, RatePerMille: 1000},
	}}).NewInjector(nil)
	_, err = Run(context.Background(), fatal)
	if !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("always-firing plan: Run returned %v, want chaos.ErrInjected", err)
	}
	if !strings.Contains(err.Error(), "checkpointing item") {
		t.Errorf("error %q does not name the item it failed to checkpoint", err)
	}

	stats := chaos.NewStats()
	path := filepath.Join(t.TempDir(), "flaky.jsonl")
	flaky := squares(path, &evals)
	flaky.Chaos = (&chaos.Plan{Seed: 1, Rules: []chaos.Rule{
		{Op: chaos.OpCkptWrite, Kind: chaos.KindShort, RatePerMille: 300, Transient: true},
		{Op: chaos.OpCkptWrite, Kind: chaos.KindFail, RatePerMille: 300, Transient: true},
	}}).NewInjector(stats)
	got, err := Run(context.Background(), flaky)
	if err != nil {
		t.Fatalf("retryable plan leaked out of the sweep: %v", err)
	}
	if stats.Snapshot().Injected[chaos.OpCkptWrite] == 0 {
		t.Fatal("retryable plan injected nothing; the test proves nothing")
	}
	if !reflect.DeepEqual(got, ref) {
		t.Error("results under retryable journal faults differ from the fault-free run")
	}

	evals.Store(0)
	resumed, err := Run(context.Background(), squares(path, &evals))
	if err != nil {
		t.Fatal(err)
	}
	if n := evals.Load(); n != 0 {
		t.Errorf("resume re-evaluated %d items the faulted run journaled", n)
	}
	if !reflect.DeepEqual(resumed, ref) {
		t.Error("resumed results differ from the fault-free run")
	}
}

// TestEachReportsLowestFailingIndex: whatever the worker count, Each
// reports the failure at the lowest index, so an error is as
// deterministic as the results.
func TestEachReportsLowestFailingIndex(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		err := Each(context.Background(), 100, workers, func(_, i int) error {
			if i == 17 || i == 60 {
				return fmt.Errorf("item %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "item 17" {
			t.Errorf("%d workers: Each returned %v, want item 17", workers, err)
		}
	}
}

// TestEachWorkerIndex pins the contract that lets a caller keep one
// stateful executor per goroutine: every w lies in [0, min(workers, n)),
// and calls with the same w never overlap.
func TestEachWorkerIndex(t *testing.T) {
	for _, c := range []struct{ n, workers int }{{100, 1}, {100, 4}, {3, 8}, {0, 2}} {
		pool := max(1, min(c.workers, c.n))
		busy := make([]atomic.Bool, pool)
		var calls atomic.Int64
		err := Each(context.Background(), c.n, c.workers, func(w, i int) error {
			if w < 0 || w >= pool {
				return fmt.Errorf("item %d ran on worker %d, want [0, %d)", i, w, pool)
			}
			if !busy[w].CompareAndSwap(false, true) {
				return fmt.Errorf("item %d ran on worker %d while it was busy", i, w)
			}
			calls.Add(1)
			runtime.Gosched()
			busy[w].Store(false)
			return nil
		})
		if err != nil {
			t.Errorf("n=%d workers=%d: %v", c.n, c.workers, err)
		}
		if got := calls.Load(); got != int64(c.n) {
			t.Errorf("n=%d workers=%d: %d calls, want %d", c.n, c.workers, got, c.n)
		}
	}
}

// journalLines returns the journal at path split into lines, the header
// first.
func journalLines(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
}

// TestRunResumeAtBatchBoundaries kills a one-worker sweep at every batch
// boundary — the journal then holds exactly the committed batches — and
// with a torn line inside the next batch.  Each resume re-evaluates only
// what the journal lacks and returns the uninterrupted results, and the
// journal it leaves resumes with nothing left to evaluate.
func TestRunResumeAtBatchBoundaries(t *testing.T) {
	var evals atomic.Int64
	ref, err := Run(context.Background(), squares("", &evals))
	if err != nil {
		t.Fatal(err)
	}
	full := filepath.Join(t.TempDir(), "full.jsonl")
	job := squares(full, &evals)
	job.Workers = 1
	if _, err := Run(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	lines := journalLines(t, full)
	if len(lines) != 1+squaresN {
		t.Fatalf("journal has %d lines, want header + %d", len(lines), squaresN)
	}
	for committed := 0; committed <= squaresN; committed += batchSize {
		for _, torn := range []bool{false, true} {
			if torn && committed == squaresN {
				continue
			}
			name := fmt.Sprintf("%d committed, torn=%v", committed, torn)
			t.Run(name, func(t *testing.T) {
				kept := strings.Join(lines[:1+committed], "\n") + "\n"
				if torn {
					next := lines[1+committed]
					kept += next[:len(next)/2]
				}
				path := filepath.Join(t.TempDir(), "killed.jsonl")
				if err := os.WriteFile(path, []byte(kept), 0o644); err != nil {
					t.Fatal(err)
				}
				evals.Store(0)
				got, err := Run(context.Background(), squares(path, &evals))
				if err != nil {
					t.Fatal(err)
				}
				if n := evals.Load(); n != int64(squaresN-committed) {
					t.Errorf("resume evaluated %d items, want the %d not committed", n, squaresN-committed)
				}
				if !reflect.DeepEqual(got, ref) {
					t.Error("resumed results differ from the uninterrupted run")
				}
				evals.Store(0)
				if _, err := Run(context.Background(), squares(path, &evals)); err != nil {
					t.Fatal(err)
				}
				if n := evals.Load(); n != 0 {
					t.Errorf("the resumed journal left %d items to evaluate", n)
				}
			})
		}
	}
}

// TestRunCancelCommitsEvaluated cancels a four-worker sweep in the middle
// of a batch.  Run must commit every item it evaluated before returning
// the cancellation, so a resume evaluates exactly the items the first
// run never reached.
func TestRunCancelCommitsEvaluated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cancel.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		mu        sync.Mutex
		evaluated = make(map[int]bool)
	)
	job := squares(path, new(atomic.Int64))
	eval := job.Eval
	job.Eval = func(w, i int) (*square, error) {
		mu.Lock()
		evaluated[i] = true
		if len(evaluated) == batchSize+batchSize/2 {
			cancel()
		}
		mu.Unlock()
		return eval(w, i)
	}
	if _, err := Run(ctx, job); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Run returned %v, want context.Canceled", err)
	}

	journaled := make(map[int]bool)
	for _, line := range journalLines(t, path)[1:] {
		var rec record[square]
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		if journaled[rec.I] {
			t.Errorf("item %d journaled twice", rec.I)
		}
		journaled[rec.I] = true
	}
	if len(evaluated) == squaresN {
		t.Fatal("the cancel came after every item was evaluated; the test proves nothing")
	}
	if !reflect.DeepEqual(journaled, evaluated) {
		t.Errorf("journaled %d items, evaluated %d: a cancel lost evaluated items", len(journaled), len(evaluated))
	}

	var evals atomic.Int64
	if _, err := Run(context.Background(), squares(path, &evals)); err != nil {
		t.Fatal(err)
	}
	if n, want := evals.Load(), int64(squaresN-len(evaluated)); n != want {
		t.Errorf("resume evaluated %d items, want the %d never reached", n, want)
	}
}

// TestRunShortWriteOnBatch tears the second batch on every attempt, so
// the sweep fails with the injected error and leaves the batch's first
// half, torn, in the journal.  Resuming without faults re-evaluates only
// the items the tears did not keep whole and returns the fault-free
// results.
func TestRunShortWriteOnBatch(t *testing.T) {
	var evals atomic.Int64
	ref, err := Run(context.Background(), squares("", &evals))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "short.jsonl")
	job := squares(path, &evals)
	job.Workers = 1
	job.Chaos = (&chaos.Plan{Seed: 1, Rules: []chaos.Rule{
		{Op: chaos.OpCkptWrite, Kind: chaos.KindShort, RatePerMille: 1000, After: 1, Max: 6},
	}}).NewInjector(nil)
	if _, err := Run(context.Background(), job); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("torn batch: Run returned %v, want chaos.ErrInjected", err)
	}
	whole := make(map[int]bool)
	for _, line := range journalLines(t, path)[1:] {
		var rec record[square]
		if json.Unmarshal([]byte(line), &rec) == nil && rec.R != nil {
			whole[rec.I] = true
		}
	}
	if len(whole) <= batchSize || len(whole) >= 2*batchSize {
		t.Fatalf("journal keeps %d whole records, want the first batch and part of the second", len(whole))
	}

	evals.Store(0)
	got, err := Run(context.Background(), squares(path, &evals))
	if err != nil {
		t.Fatal(err)
	}
	if n, want := evals.Load(), int64(squaresN-len(whole)); n != want {
		t.Errorf("resume evaluated %d items, want the %d not kept whole", n, want)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Error("results resumed after a torn batch differ from the fault-free run")
	}
}
