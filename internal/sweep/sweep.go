// Package sweep is the skeleton shared by the checkpointed sweep
// engines (crashsim, scarce): resume from the journal, evaluate what is
// left on an index-ordered worker pool, journal each result, and hand
// the results back in enumeration order, then dedupe, minimize and
// re-dedupe the findings.  Engines keep only their enumeration,
// evaluation and report.  Each, the pool itself, also runs explore's
// candidate batches.
package sweep

import (
	"context"
	"encoding/json"
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
	// Eval evaluates item i.  It must be pure: results may come from a
	// journal written by an earlier run with any worker count.
	Eval func(i int) *T
	// Chaos, when non-nil, injects ckpt.write faults into the journal's
	// appends at site Kind.
	Chaos *chaos.Injector
}

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

// Run evaluates every item not already in the journal and returns all N
// results in enumeration order.  The results are identical for any
// worker count and across a kill and resume, because Eval is pure and
// the merge is by index.  A journal append that fails after its retries
// fails the sweep.
func Run[T any](ctx context.Context, job Job[T]) ([]*T, error) {
	results := make([]*T, job.N)
	var jnl *journal.Journal
	if job.Checkpoint != "" {
		var err error
		if jnl, err = job.resume(results); err != nil {
			return nil, err
		}
		defer jnl.Close()
	}
	var todo []int
	for i, r := range results {
		if r == nil {
			todo = append(todo, i)
		}
	}
	err := Each(ctx, len(todo), job.Workers, func(k int) error {
		i := todo[k]
		results[i] = job.Eval(i)
		if jnl == nil {
			return nil
		}
		if err := jnl.Append(record[T]{I: i, R: results[i]}); err != nil {
			return fmt.Errorf("%s: checkpointing %s %d: %w", job.Kind, job.Unit, i, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// resume fills results from the journal at job.Checkpoint and opens it
// for appending.  A header naming another kind or sweep is an error, not
// a silent restart; a torn or unparseable record is skipped and its item
// simply re-runs.
func (job Job[T]) resume(results []*T) (*journal.Journal, error) {
	path := job.Checkpoint
	sawHeader := false
	err := journal.Replay(path, func(line []byte) error {
		if !sawHeader {
			sawHeader = true
			var h header
			if err := json.Unmarshal(line, &h); err != nil {
				return fmt.Errorf("%s: checkpoint %s: unreadable header: %w", job.Kind, path, err)
			}
			if h.Kind != job.Kind || h.V != 1 {
				return fmt.Errorf("%s: checkpoint %s is not a %s journal", job.Kind, path, job.Kind)
			}
			if h.ID != job.ID {
				return fmt.Errorf("%s: checkpoint %s belongs to a different sweep (id %s, want %s)", job.Kind, path, h.ID, job.ID)
			}
			return nil
		}
		var rec record[T]
		if json.Unmarshal(line, &rec) == nil && rec.R != nil && rec.I >= 0 && rec.I < len(results) {
			results[rec.I] = rec.R
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	jnl, err := journal.Open(path, header{V: 1, Kind: job.Kind, ID: job.ID})
	if err != nil {
		return nil, err
	}
	jnl.Arm(job.Chaos, nil, job.Kind)
	return jnl, nil
}

// Each calls fn(i) for every i in [0, n) on up to workers goroutines
// (values below 1 mean 1), handing out indices in increasing order.  It
// stops handing out indices once ctx is done or a call fails, waits for
// the calls in flight, and returns ctx's error, else the failure at the
// lowest index — the same one whatever the worker count, because every
// index below a failing one was handed out before it.
func Each(ctx context.Context, n, workers int, fn func(i int) error) error {
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
				if err := fn(i); err != nil {
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
// findings onto one witness.
func (fs *Findings[F]) Minimize(minimize func(F) F) []F {
	var out []F
	seen := make(map[string]bool)
	for _, f := range fs.kept {
		if m := minimize(f); !seen[fs.sig(m)] {
			seen[fs.sig(m)] = true
			out = append(out, m)
		}
	}
	return out
}
