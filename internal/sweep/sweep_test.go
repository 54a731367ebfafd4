package sweep

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"ballista/internal/chaos"
)

type square struct {
	V int `json:"v"`
}

// squares is a 40-item job whose evaluations are counted.
func squares(path string, evals *atomic.Int64) Job[square] {
	return Job[square]{
		Kind: "testsweep", Unit: "item", ID: "0000000000000001",
		N: 40, Workers: 4, Checkpoint: path,
		Eval: func(i int) *square {
			evals.Add(1)
			return &square{V: i * i}
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
