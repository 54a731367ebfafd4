package crashsim

import (
	"context"
	"fmt"
	"hash/fnv"
	"strings"

	"ballista/internal/core"
	"ballista/internal/osprofile"
	"ballista/internal/sweep"
	"ballista/internal/telemetry/span"
)

// Config parameterizes one crash-consistency sweep.
type Config struct {
	// OSes is the differential set (default: all seven profiles).
	OSes []osprofile.OS
	// Seed parameterizes the data bytes workloads write; the chain set
	// itself is exhaustive and seed-independent.
	Seed uint64
	// MaxOps bounds workload chain length (default 2, B3's seq-2).
	MaxOps int
	// Names is the bounded file-name set (default f0, f1; the first
	// exists in the fixture).
	Names []string
	// Budget caps the number of workloads (0 = the full enumeration).
	Budget int
	// Workers sets evaluation parallelism (default 1).  The report is
	// byte-identical for any value: evaluation is pure and the merge is
	// in enumeration order.
	Workers int
	// Checkpoint, when non-empty, journals per-workload results to this
	// JSONL file so a killed sweep resumes without re-evaluating.
	Checkpoint string
	// Observer, when non-nil, receives one CrashEvent per workload.
	Observer core.Observer
	// Spans, when non-nil, records sweep/workload spans.
	Spans *span.Recorder
}

// Report is one sweep's deterministic summary: totals plus the deduped,
// minimized findings in enumeration order.
type Report struct {
	Seed        uint64     `json:"seed"`
	OSes        []string   `json:"oses"`
	MaxOps      int        `json:"max_ops"`
	Names       []string   `json:"names"`
	Workloads   int        `json:"workloads"`
	CrashPoints int        `json:"crash_points"`
	States      int        `json:"states"`
	Divergent   int        `json:"divergent"`
	Violating   int        `json:"violating"`
	Findings    []*Finding `json:"findings"`
}

// wlResult is one workload's evaluation, as journaled and merged.
type wlResult struct {
	CrashPoints int      `json:"cp"`
	States      int      `json:"st"`
	Violations  int      `json:"vi"`
	Finding     *Finding `json:"f,omitempty"` // only when interesting
}

// evalOne evaluates w and sums its verdicts.  An interesting finding is
// kept, its verdicts shared through in.
func evalOne(w Workload, names []string, oses []osprofile.OS, in *verdictInterner) *wlResult {
	f := Evaluate(w, names, oses)
	r := &wlResult{CrashPoints: len(w.Ops)}
	for _, v := range f.Verdicts {
		for cp, n := range v.States {
			r.States += n
			if len(v.Violations[cp]) > 0 {
				r.Violations++
			}
		}
	}
	if f.Interesting() {
		in.intern(f)
		r.Finding = f
	}
	return r
}

// sweepID fingerprints the sweep identity so a journal from a different
// configuration cannot silently poison a resume.
func sweepID(cfg Config, names []string, oses []osprofile.OS, workloads int) string {
	h := fnv.New64a()
	var wire []string
	for _, o := range oses {
		wire = append(wire, o.WireName())
	}
	fmt.Fprintf(h, "%d|%d|%d|%s|%s|%d",
		cfg.Seed, cfg.MaxOps, cfg.Budget, strings.Join(names, ","), strings.Join(wire, ","), workloads)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Sweep enumerates the bounded workload set and evaluates every chain
// across the OS set: per-profile crash-state enumeration, invariant
// checks, differential comparison.  Findings are deduplicated by
// signature and minimized from the sweep's own results, with no further
// evaluation.  The report is identical for any worker count and across a
// kill+resume through the checkpoint journal.
func Sweep(ctx context.Context, cfg Config) (*Report, error) {
	oses := cfg.OSes
	if len(oses) == 0 {
		oses = osprofile.All()
	}
	names := cfg.Names
	if len(names) == 0 {
		names = DefaultNames()
	}
	maxOps := cfg.MaxOps
	if maxOps <= 0 {
		maxOps = 2
	}
	workloads := Enumerate(names, maxOps, cfg.Seed, cfg.Budget)

	parent := cfg.Spans.Start("crashsweep",
		fmt.Sprintf("seed=%d max_ops=%d oses=%d workloads=%d", cfg.Seed, maxOps, len(oses), len(workloads)))
	defer parent.End()

	var verdicts verdictInterner
	results, err := sweep.Run(ctx, sweep.Job[wlResult]{
		Kind: "crashsweep", Unit: "workload",
		ID: sweepID(cfg, names, oses, len(workloads)),
		N:  len(workloads), Workers: cfg.Workers, Checkpoint: cfg.Checkpoint,
		Eval: func(_, i int) (*wlResult, error) {
			ws := cfg.Spans.StartSampled("crashwl", workloads[i].Key()).SetParent(parent.ID())
			defer ws.End()
			return evalOne(workloads[i], names, oses, &verdicts), nil
		},
	})
	if err != nil {
		return nil, err
	}

	// Merge in enumeration order: totals, observer events, then the
	// deduplicated, minimized findings.
	rep := &Report{Seed: cfg.Seed, MaxOps: maxOps, Names: names, Workloads: len(workloads)}
	for _, o := range oses {
		rep.OSes = append(rep.OSes, o.WireName())
	}
	found := sweep.NewFindings(func(f *Finding) string { return f.Signature })
	for i, r := range results {
		rep.CrashPoints += r.CrashPoints
		rep.States += r.States
		f := r.Finding
		if f != nil {
			if f.Divergent {
				rep.Divergent++
			}
			if f.Violating {
				rep.Violating++
			}
			found.Add(f)
		}
		if cfg.Observer != nil {
			ev := core.CrashEvent{
				Seq: i, Workload: workloads[i].Key(), OSes: rep.OSes,
				CrashPoints: r.CrashPoints, States: r.States, Violations: r.Violations,
			}
			if f != nil {
				ev.Divergent, ev.Violating = f.Divergent, f.Violating
			}
			cfg.Observer.Observe(&ev)
		}
	}
	// Minimize from the results: Enumerate is exhaustive and emits every
	// shorter workload before a longer one, even under a budget cut, so
	// each one-op-shorter candidate was evaluated above.
	index := make(map[string]int, len(workloads))
	for i, w := range workloads {
		index[w.Key()] = i
	}
	rep.Findings, err = found.Minimize(func(f *Finding) (*Finding, error) {
		return minimize(f, oses, func(w Workload) (*Finding, error) {
			i, ok := index[w.Key()]
			if !ok {
				return nil, fmt.Errorf("crashsim: minimization candidate %s is not in the sweep", w.Key())
			}
			return results[i].Finding, nil
		})
	})
	if err != nil {
		return nil, err
	}
	cfg.Spans.Instant("crashsweep", "done",
		fmt.Sprintf("findings=%d divergent=%d violating=%d states=%d",
			len(rep.Findings), rep.Divergent, rep.Violating, rep.States))
	return rep, nil
}
