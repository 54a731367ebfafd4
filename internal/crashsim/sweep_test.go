package crashsim

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"ballista/internal/osprofile"
)

func reportJSON(t *testing.T, rep *Report) []byte {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSweepWorkerCountInvariance is the determinism oracle: evaluation
// is pure and the merge is in enumeration order, so the report must be
// byte-identical for any worker count.
func TestSweepWorkerCountInvariance(t *testing.T) {
	ref, err := Sweep(context.Background(), Config{Seed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		rep, err := Sweep(context.Background(), Config{Seed: 7, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref, rep) {
			t.Errorf("report at %d workers diverges from 1 worker", workers)
		}
		if !bytes.Equal(reportJSON(t, ref), reportJSON(t, rep)) {
			t.Errorf("report JSON at %d workers is not byte-identical", workers)
		}
	}
}

// TestSweepResumeFromTruncatedJournal simulates a mid-sweep kill: a
// complete journal is cut down to a prefix plus a torn half-line, and
// the resumed sweep must skip the tear, re-evaluate only the missing
// workloads, and produce a byte-identical report.  The resumed sweep
// must also journal every workload it evaluated: the first record it
// appends must not fuse onto the torn fragment, so a third sweep on the
// same journal evaluates nothing and leaves the file byte-identical
// (every evaluation appends a line).
func TestSweepResumeFromTruncatedJournal(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "crash.ckpt")
	cfg := Config{Seed: 7, Workers: 4, Checkpoint: path}

	ref, err := Sweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != ref.Workloads+1 {
		t.Fatalf("journal has %d lines, want header + %d", len(lines), ref.Workloads)
	}
	keep := lines[:1+ref.Workloads/2]
	torn := lines[1+ref.Workloads/2]
	truncated := strings.Join(keep, "\n") + "\n" + torn[:len(torn)/2]
	if err := os.WriteFile(path, []byte(truncated), 0o644); err != nil {
		t.Fatal(err)
	}

	resumed, err := Sweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportJSON(t, ref), reportJSON(t, resumed)) {
		t.Error("resumed report is not byte-identical to the uninterrupted run")
	}

	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Sweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Errorf("third sweep re-evaluated %d workloads the resume had already journaled",
			bytes.Count(after, []byte("\n"))-bytes.Count(before, []byte("\n")))
	}
	if !bytes.Equal(reportJSON(t, ref), reportJSON(t, again)) {
		t.Error("third sweep's report is not byte-identical to the uninterrupted run")
	}
}

// TestSweepResumesV1Journal: testdata/v1-journal.jsonl was written by
// the first journal implementation.  The same sweep journaled today
// writes identical bytes, and resuming from the old file re-evaluates
// nothing — it stays unchanged — and reports what a fresh run does.
func TestSweepResumesV1Journal(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("testdata", "v1-journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := Config{Seed: 7, Budget: 12, Workers: 1, Checkpoint: filepath.Join(dir, "fresh.jsonl")}
	fresh, err := Sweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(cfg.Checkpoint); !bytes.Equal(got, v1) {
		t.Error("a fresh journal differs from the v1 journal of the same sweep")
	}

	cfg.Checkpoint = filepath.Join(dir, "v1.jsonl")
	if err := os.WriteFile(cfg.Checkpoint, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	resumed, err := Sweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(cfg.Checkpoint); !bytes.Equal(got, v1) {
		t.Error("resuming from the v1 journal re-evaluated workloads")
	}
	if !bytes.Equal(reportJSON(t, fresh), reportJSON(t, resumed)) {
		t.Error("report resumed from the v1 journal differs from a fresh run")
	}
}

// TestSweepResumeAfterCancel kills a sweep for real — context
// cancellation mid-feed — then resumes from whatever the journal
// caught.
func TestSweepResumeAfterCancel(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "crash.ckpt")
	cfg := Config{Seed: 7, Workers: 2, Checkpoint: path}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancel before the feed: nothing (or almost nothing) runs
	if _, err := Sweep(ctx, cfg); err == nil {
		t.Fatal("cancelled sweep reported no error")
	}

	resumed, err := Sweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Sweep(context.Background(), Config{Seed: 7, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportJSON(t, ref), reportJSON(t, resumed)) {
		t.Error("resumed report diverges from an uninterrupted checkpoint-less run")
	}
}

// TestSweepChecksJournalIdentity: a journal from a different sweep
// configuration must be rejected, not silently reused.
func TestSweepChecksJournalIdentity(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "crash.ckpt")
	if _, err := Sweep(context.Background(), Config{Seed: 7, Budget: 12, Checkpoint: path}); err != nil {
		t.Fatal(err)
	}
	if _, err := Sweep(context.Background(), Config{Seed: 8, Budget: 12, Checkpoint: path}); err == nil {
		t.Fatal("sweep accepted a journal from a different seed")
	} else if !strings.Contains(err.Error(), "different sweep") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestSweepEvaluatesEachWorkloadOnce is the host-independent gate on the
// sweep's cost: a full MaxOps-3 sweep calls Evaluate exactly once per
// workload, so minimizing its findings evaluates nothing.
func TestSweepEvaluatesEachWorkloadOnce(t *testing.T) {
	before := evaluations.Load()
	rep, err := Sweep(context.Background(), Config{Seed: 7, MaxOps: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if n := evaluations.Load() - before; n != int64(rep.Workloads) {
		t.Errorf("a sweep of %d workloads called Evaluate %d times", rep.Workloads, n)
	}
	multi := 0
	for _, f := range rep.Findings {
		if len(f.Workload.Ops) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no finding kept more than one op, so minimization looked nothing up; the gate proves nothing")
	}
}

// TestSweepMinimizesLikeEvaluate: minimizing from the sweep's results
// yields the findings that evaluating every candidate afresh does, also
// when a budget cuts the enumeration inside the longest chains.
func TestSweepMinimizesLikeEvaluate(t *testing.T) {
	cfg := Config{Seed: 7, MaxOps: 3, Budget: 400, Workers: 2}
	rep, err := Sweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	oses := osprofile.All()
	seen := make(map[string]bool)
	var want []*Finding
	for _, w := range Enumerate(DefaultNames(), cfg.MaxOps, cfg.Seed, cfg.Budget) {
		f := Evaluate(w, nil, oses)
		if !f.Interesting() || seen[f.Signature] {
			continue
		}
		seen[f.Signature] = true
		want = append(want, f)
	}
	minSeen := make(map[string]bool)
	var minimized []*Finding
	for _, f := range want {
		if m := Minimize(f, nil, oses); !minSeen[m.Signature] {
			minSeen[m.Signature] = true
			minimized = append(minimized, m)
		}
	}
	got, _ := json.Marshal(rep.Findings)
	wantJSON, _ := json.Marshal(minimized)
	if !bytes.Equal(got, wantJSON) {
		t.Error("findings minimized from the sweep's results differ from findings minimized by Evaluate")
	}
}

// TestMinimizeStopsOnMiss: a candidate the lookup cannot find is an
// error, never a silent skip.
func TestMinimizeStopsOnMiss(t *testing.T) {
	oses := osprofile.All()
	f := Evaluate(wl(Op{Kind: OpRemove, File: "f0"}, Op{Kind: OpFsync, File: "f1"}), nil, oses)
	miss := fmt.Errorf("not in the sweep")
	_, err := minimize(f, oses, func(Workload) (*Finding, error) { return nil, miss })
	if err != miss {
		t.Fatalf("minimize returned %v, want the lookup's error", err)
	}
}

// TestSweepResumeAtEveryRecordBoundary kills a one-worker sweep after
// every journal record — every batch boundary among them, where a kill
// leaves exactly the committed batches — and again with a torn half of
// the next record.  Each resume evaluates only the workloads the journal
// lacks and reports the uninterrupted run's bytes.
func TestSweepResumeAtEveryRecordBoundary(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.ckpt")
	cfg := Config{Seed: 7, OSes: []osprofile.OS{osprofile.Win98}, Workers: 1, Checkpoint: full}
	ref, err := Sweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Findings) == 0 {
		t.Fatal("reference sweep found nothing; the test proves nothing")
	}
	want := reportJSON(t, ref)
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	lines = lines[:len(lines)-1] // the empty string after the last newline
	if len(lines) != ref.Workloads+1 {
		t.Fatalf("journal has %d lines, want header + %d", len(lines), ref.Workloads)
	}
	cfg.Checkpoint = filepath.Join(dir, "killed.ckpt")
	for committed := 0; committed <= ref.Workloads; committed++ {
		for _, torn := range []bool{false, true} {
			if torn && committed == ref.Workloads {
				continue
			}
			kept := strings.Join(lines[:1+committed], "")
			if torn {
				kept += lines[1+committed][:len(lines[1+committed])/2]
			}
			if err := os.WriteFile(cfg.Checkpoint, []byte(kept), 0o644); err != nil {
				t.Fatal(err)
			}
			before := evaluations.Load()
			got, err := Sweep(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if n := evaluations.Load() - before; n != int64(ref.Workloads-committed) {
				t.Errorf("%d committed, torn=%v: resume evaluated %d workloads, want %d",
					committed, torn, n, ref.Workloads-committed)
			}
			if !bytes.Equal(want, reportJSON(t, got)) {
				t.Errorf("%d committed, torn=%v: resumed report is not byte-identical", committed, torn)
			}
		}
	}
}

// TestSweepCancelJournalsEveryEvaluation cancels a two-worker sweep part
// way through.  Every workload it evaluated must be in the journal when
// Sweep returns, so the resume evaluates exactly the rest and reports the
// uninterrupted run's bytes.
func TestSweepCancelJournalsEveryEvaluation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crash.ckpt")
	cfg := Config{Seed: 7, MaxOps: 3, Budget: 600, Workers: 2, Checkpoint: path}
	ref, err := Sweep(context.Background(), Config{Seed: 7, MaxOps: 3, Budget: 600, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	before := evaluations.Load()
	done := make(chan struct{})
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		for evaluations.Load()-before < 200 {
			select {
			case <-done:
				return
			case <-time.After(time.Millisecond):
			}
		}
		cancel()
	}()
	_, err = Sweep(ctx, cfg)
	close(done)
	<-stopped
	if err == nil {
		t.Fatal("the sweep finished before the cancel; the test proves nothing")
	}
	evaluated := evaluations.Load() - before

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	journaled := bytes.Count(data, []byte("\n")) - 1
	if int64(journaled) != evaluated {
		t.Errorf("cancelled sweep evaluated %d workloads but journaled %d", evaluated, journaled)
	}

	before = evaluations.Load()
	resumed, err := Sweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := evaluations.Load() - before; n != int64(ref.Workloads-journaled) {
		t.Errorf("resume evaluated %d workloads, want the %d not journaled", n, ref.Workloads-journaled)
	}
	if !bytes.Equal(reportJSON(t, ref), reportJSON(t, resumed)) {
		t.Error("resumed report is not byte-identical to the uninterrupted run")
	}
}
