// Package sweep is the skeleton shared by the checkpointed sweep
// engines (crashsim, scarce, the farm): resume from the journal,
// evaluate what is left on an index-ordered worker pool, group-commit
// the results to the journal, and hand them back in enumeration order,
// then dedupe, minimize and re-dedupe the findings.  Engines keep only
// their enumeration, evaluation and report.  Each, the pool itself, also
// runs explore's candidate batches.  Journal, the checkpoint format, is
// also the fleet coordinator's shard journal.
package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"ballista/internal/chaos"
	"ballista/internal/journal"
)

// Job describes one sweep over N enumerated items.
type Job[T any] struct {
	// Kind names the journal format ("crashsweep"); it is recorded in the
	// header and prefixes errors.
	Kind string
	// Unit is what one item is called in errors ("workload").
	Unit string
	// ID fingerprints the sweep configuration: a journal whose header
	// carries another ID belongs to a different sweep and is refused.
	ID string
	// N is the number of enumerated items.
	N int
	// Workers bounds evaluation parallelism (values below 1 mean 1).
	Workers int
	// Checkpoint is the journal path; empty runs without one.
	Checkpoint string
	// Eval evaluates item i on worker w, in [0, Workers): no two calls
	// with the same w are in flight at once, so a caller can keep
	// per-worker state indexed by w.  Its result must be pure: results
	// may come from a journal written by an earlier run with any worker
	// count.  An error stops the sweep; a nil result with a nil error is
	// returned as nil and not journaled, so a resume evaluates it again.
	Eval func(w, i int) (*T, error)
	// Chaos, when non-nil, injects ckpt.write faults into the journal's
	// appends at site Kind, and its Stats count the retries.
	Chaos *chaos.Injector
}

// journalVersion is the header's format version.
const journalVersion = 1

// header is the journal's first line: the sweep identity.
type header struct {
	V    int    `json:"v"`
	Kind string `json:"kind"`
	ID   string `json:"id"`
}

// record is one journaled result.  The result sits in a named field:
// json cannot unmarshal into an embedded pointer to an unexported type,
// which would silently turn every resume into a full re-evaluation.
type record[T any] struct {
	I int `json:"i"`
	R *T  `json:"r"`
}

// batchSize is how many journal records one write and one fsync commit.
// A kill loses at most the batch not yet committed, whose items a resume
// re-evaluates.  A MaxOps-4 crash batch is about 64 KB and 30 ms of
// one-core evaluation: the fsync is amortized and a kill loses little.
const batchSize = 64

// Run evaluates every item not already in the journal and returns all N
// results in enumeration order.  The results are identical for any
// worker count and across a kill and resume, because Eval is pure and
// the merge is by index.  With a journal, results are group-committed
// batchSize at a time, in the order they complete, and every exit path —
// the end of the run, a cancelled ctx, a failed Eval or commit — commits
// what was evaluated before Run returns.  A commit that fails after its
// retries fails the sweep.
func Run[T any](ctx context.Context, job Job[T]) ([]*T, error) {
	results := make([]*T, job.N)
	var jnl *Journal[T]
	if job.Checkpoint != "" {
		var err error
		if jnl, err = OpenJournal(job.Checkpoint, job.Kind, job.ID, results); err != nil {
			return nil, err
		}
		defer jnl.Close()
		jnl.unit = job.Unit
		jnl.Arm(job.Chaos, job.Chaos.Stats(), job.Kind)
	}
	var todo []int
	for i, r := range results {
		if r == nil {
			todo = append(todo, i)
		}
	}
	err := Each(ctx, len(todo), job.Workers, func(w, k int) error {
		i := todo[k]
		r, err := job.Eval(w, i)
		if err != nil || r == nil {
			return err
		}
		results[i] = r
		if jnl == nil {
			return nil
		}
		return jnl.add(i, r)
	})
	if jnl != nil {
		if ferr := jnl.commit(); err == nil {
			err = ferr
		}
	}
	if err != nil {
		return nil, err
	}
	return results, nil
}

// Journal is a sweep's checkpoint: a JSONL file whose header names the
// sweep's kind and identity, followed by one {"i":index,"r":result}
// record per evaluated item.  Run group-commits records batchSize at a
// time; Append commits one, for a caller that must not acknowledge a
// result before it is durable (the fleet coordinator).
type Journal[T any] struct {
	kind string
	unit string // what one item is called in errors
	j    *journal.Journal

	mu      sync.Mutex // guards pending and orders the batch commits
	pending []any      // record[T] values
}

// OpenJournal replays the journal at path into results, one slot per
// item, and opens it for appending; a missing or empty file is a fresh
// journal and gets the header.  A header of another format version,
// kind or id is an error that names what it found, not a silent
// restart.  A line that is not JSON is a torn write: it is skipped and
// its item re-runs.  A record that is JSON but does not decode into a T,
// or names no item, is corruption and an error.  A repeated record
// keeps the last.
func OpenJournal[T any](path, kind, id string, results []*T) (*Journal[T], error) {
	sawHeader := false
	err := journal.Replay(path, func(line []byte) error {
		if !sawHeader {
			sawHeader = true
			var h header
			if err := json.Unmarshal(line, &h); err != nil {
				return fmt.Errorf("%s: checkpoint %s: unreadable header: %w", kind, path, err)
			}
			if h.Kind != kind || h.V != journalVersion {
				return fmt.Errorf("%s: checkpoint %s is a v%d journal of kind %q; this build reads v%d %q journals",
					kind, path, h.V, h.Kind, journalVersion, kind)
			}
			if h.ID != id {
				return fmt.Errorf("%s: checkpoint %s belongs to a different sweep (id %s, want %s)", kind, path, h.ID, id)
			}
			return nil
		}
		var rec record[T]
		err := json.Unmarshal(line, &rec)
		var torn *json.SyntaxError
		switch {
		case errors.As(err, &torn):
			return nil
		case err != nil:
			return fmt.Errorf("%s: checkpoint %s: bad record: %w", kind, path, err)
		case rec.R == nil || rec.I < 0 || rec.I >= len(results):
			return fmt.Errorf("%s: checkpoint %s: record for item %d of %d", kind, path, rec.I, len(results))
		}
		results[rec.I] = rec.R
		return nil
	})
	if err != nil {
		return nil, err
	}
	j, err := journal.Open(path, header{V: journalVersion, Kind: kind, ID: id})
	if err != nil {
		return nil, err
	}
	return &Journal[T]{kind: kind, unit: "item", j: j}, nil
}

// Arm sets up ckpt.write fault injection at site for every commit, with
// retries counted into stats; either may be nil.
func (j *Journal[T]) Arm(inj *chaos.Injector, stats *chaos.Stats, site string) {
	j.j.Arm(inj, stats, site)
}

// Append journals item i's result r on its own: it is durable when
// Append returns nil.
func (j *Journal[T]) Append(i int, r *T) error {
	return j.j.Append(record[T]{I: i, R: r})
}

// add appends item i's result to the pending batch and commits the
// batch once it holds batchSize records.  The caller whose record fills
// the batch commits it with the lock held, so batches reach the file
// whole and in order.
func (j *Journal[T]) add(i int, r *T) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.pending = append(j.pending, record[T]{I: i, R: r})
	if len(j.pending) < batchSize {
		return nil
	}
	return j.commitLocked()
}

// commit commits whatever is pending.
func (j *Journal[T]) commit() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.commitLocked()
}

// commitLocked makes the pending batch durable with one journal write
// and empties it, committed or not: a failed batch fails the sweep, and
// its items are re-evaluated on resume.
func (j *Journal[T]) commitLocked() error {
	batch := j.pending
	if len(batch) == 0 {
		return nil
	}
	j.pending = j.pending[:0]
	if err := j.j.AppendBatch(batch); err != nil {
		return fmt.Errorf("%s: checkpointing %s %d (a batch of %d): %w",
			j.kind, j.unit, batch[0].(record[T]).I, len(batch), err)
	}
	return nil
}

// Close closes the file.  Records not yet committed are not written:
// Run commits them first.
func (j *Journal[T]) Close() error { return j.j.Close() }

// Each calls fn(w, i) for every i in [0, n) on up to workers goroutines
// (values below 1 mean 1), handing out indices in increasing order.  w
// in [0, min(workers, n)) names the goroutine making the call, so a
// caller can keep per-goroutine state indexed by w: no two calls with
// the same w are ever in flight.  It stops handing out indices once ctx
// is done or a call fails, waits for the calls in flight, and returns
// ctx's error, else the failure at the lowest index — the same one
// whatever the worker count, because every index below a failing one
// was handed out before it.
func Each(ctx context.Context, n, workers int, fn func(w, i int) error) error {
	var (
		next    atomic.Int64
		stop    atomic.Bool
		mu      sync.Mutex
		first   error
		firstAt = n
		wg      sync.WaitGroup
	)
	for w := 0; w < max(1, min(workers, n)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() && ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(w, i); err != nil {
					mu.Lock()
					if i < firstAt {
						first, firstAt = err, i
					}
					mu.Unlock()
					stop.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	return first
}

// Findings is the findings half of the skeleton: dedupe by signature,
// minimize, dedupe again.  Add keeps only the first finding per
// signature as the merge walks the results, so duplicates are not held
// through minimization.
type Findings[F any] struct {
	sig  func(F) string
	seen map[string]bool
	kept []F
}

// NewFindings starts an empty set keyed by sig.
func NewFindings[F any](sig func(F) string) *Findings[F] {
	return &Findings[F]{sig: sig, seen: make(map[string]bool)}
}

// Add keeps f unless a finding with its signature was added before.
func (fs *Findings[F]) Add(f F) {
	if s := fs.sig(f); !fs.seen[s] {
		fs.seen[s] = true
		fs.kept = append(fs.kept, f)
	}
}

// Minimize minimizes the kept findings in order and keeps the first
// minimized finding per signature — minimization can collapse distinct
// findings onto one witness.  It stops at minimize's first error.
func (fs *Findings[F]) Minimize(minimize func(F) (F, error)) ([]F, error) {
	var out []F
	seen := make(map[string]bool)
	for _, f := range fs.kept {
		m, err := minimize(f)
		if err != nil {
			return nil, err
		}
		if !seen[fs.sig(m)] {
			seen[fs.sig(m)] = true
			out = append(out, m)
		}
	}
	return out, nil
}
