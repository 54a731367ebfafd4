package crashsim

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
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
