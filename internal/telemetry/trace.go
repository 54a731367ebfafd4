package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"ballista/internal/core"
)

// TraceRecord is one JSONL trace line.  For Type "case" the OS, MuT,
// Case and Wide fields are exactly the service's CaseRequest schema, so
// a Catastrophic record pipes straight back into POST /api/case (or
// Runner.RunCase) as the paper's single-test reproduction program.
type TraceRecord struct {
	// Type discriminates the record: "mut_start", "case", "reboot",
	// "campaign", "shard", "chain", "fleet", "crash" or "scarce".
	Type string `json:"type"`
	// OS is the profile's wire name; records of no one OS ("fleet",
	// "crash", "scarce") omit it.
	OS   string `json:"os,omitempty"`
	MuT  string `json:"mut,omitempty"`
	Case []int  `json:"case,omitempty"`
	Wide bool   `json:"wide,omitempty"`

	// API/Group classify the MuT ("case" and "mut_start" records).
	API   string `json:"api,omitempty"`
	Group string `json:"group,omitempty"`

	// Seq is the case ordinal within its MuT campaign (-1 for standalone
	// single-case runs), or the chain, workload or item ordinal within its
	// fuzzing campaign or sweep.
	Seq *int `json:"seq,omitempty"`
	// Class is the CRASH classification of a "case" record.
	Class       string `json:"class,omitempty"`
	Exceptional bool   `json:"exceptional,omitempty"`
	ErrCode     uint32 `json:"err_code,omitempty"`
	Exception   uint32 `json:"exception,omitempty"`
	IsSignal    bool   `json:"is_signal,omitempty"`
	CrashReason string `json:"crash_reason,omitempty"`

	// Kernel health sampled right after the case classified.
	Epoch       int    `json:"epoch,omitempty"`
	Corruption  int    `json:"corruption,omitempty"`
	LiveHandles uint64 `json:"live_handles,omitempty"`
	MappedPages uint64 `json:"mapped_pages,omitempty"`

	// SimTicks and WallNS are the case's simulated and host durations.
	SimTicks uint64 `json:"sim_ticks,omitempty"`
	WallNS   int64  `json:"wall_ns,omitempty"`

	// Cases is the campaign size ("mut_start") or total run ("campaign").
	Cases int `json:"cases,omitempty"`
	// Reason is the crash reason of a "reboot" record.
	Reason string `json:"reason,omitempty"`
	// Reboots totals machine restarts ("campaign" and "shard" records).
	Reboots int `json:"reboots,omitempty"`

	// Worker/Shard attribute a "shard" record to the farm worker that
	// completed it.
	Worker *int `json:"worker,omitempty"`
	Shard  *int `json:"shard,omitempty"`

	// Chain fields ("chain" records from the sequence fuzzer).  Steps is
	// the candidate chain itself — the record replays through
	// explore.RunChain (or ballista -replay) byte-for-byte.
	Steps []core.ChainStep `json:"steps,omitempty"`
	// Classes maps OS wire name to per-step CRASH class names from the
	// differential oracle.
	Classes map[string][]string `json:"classes,omitempty"`
	// Novel marks a chain that joined the coverage corpus; Divergent and
	// Catastrophic mark oracle findings.
	Novel        bool `json:"novel,omitempty"`
	Divergent    bool `json:"divergent,omitempty"`
	Catastrophic bool `json:"catastrophic,omitempty"`
	// Fingerprint is the combined cross-OS kernel-state fingerprint, in
	// the fixed-width hex form explore.ParseFingerprint reads.
	Fingerprint string `json:"fingerprint,omitempty"`
	// CorpusSize is the coverage frontier size after this chain.
	CorpusSize int `json:"corpus_size,omitempty"`

	// Fleet control-plane fields ("fleet" records).  Event is the
	// coordinator action ("worker_join", "lease_granted", ...),
	// FleetWorker the named worker involved, Gen/Version the lease unit's
	// generation and monotonic assignment version (Shard carries the task
	// id), Live the worker-liveness gauge after the event.
	Event       string `json:"event,omitempty"`
	FleetWorker string `json:"fleet_worker,omitempty"`
	Gen         int    `json:"gen,omitempty"`
	Version     uint64 `json:"version,omitempty"`
	Live        int    `json:"live,omitempty"`

	// Sweep fields ("crash" and "scarce" records).  Workload is a crash
	// workload's op-chain key and Env a scarcity environment's name; OSes
	// lists the profiles checked.  CrashPoints, States and Violations
	// size a crash workload's enumeration; Crashed, Leaked and Ungraceful
	// count a scarcity item's per-OS oracle failures.  Divergent (above)
	// and Violating carry either sweep's verdict.
	Workload    string   `json:"workload,omitempty"`
	Env         string   `json:"env,omitempty"`
	OSes        []string `json:"oses,omitempty"`
	CrashPoints int      `json:"crash_points,omitempty"`
	States      int      `json:"states,omitempty"`
	Violations  int      `json:"violations,omitempty"`
	Crashed     int      `json:"crashed,omitempty"`
	Leaked      int      `json:"leaked,omitempty"`
	Ungraceful  int      `json:"ungraceful,omitempty"`
	Violating   bool     `json:"violating,omitempty"`
}

// TraceWriter is a core.Observer that appends one JSON object per line.
// It buffers; call Flush (or Close) before reading the output.
type TraceWriter struct {
	mu  sync.Mutex
	w   *bufio.Writer
	c   io.Closer
	enc *json.Encoder
	n   uint64
	err error
}

// NewTraceWriter wraps w.  If w is also an io.Closer, Close closes it.
func NewTraceWriter(w io.Writer) *TraceWriter {
	bw := bufio.NewWriterSize(w, 64<<10)
	tw := &TraceWriter{w: bw, enc: json.NewEncoder(bw)}
	if c, ok := w.(io.Closer); ok {
		tw.c = c
	}
	return tw
}

// Records reports how many records have been written.
func (tw *TraceWriter) Records() uint64 {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	return tw.n
}

// Err returns the first write error, if any.
func (tw *TraceWriter) Err() error {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	return tw.err
}

// Flush drains the buffer to the underlying writer.
func (tw *TraceWriter) Flush() error {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	if err := tw.w.Flush(); err != nil && tw.err == nil {
		tw.err = err
	}
	return tw.err
}

// Close flushes and closes the underlying writer when it is closable.
func (tw *TraceWriter) Close() error {
	if err := tw.Flush(); err != nil {
		return err
	}
	if tw.c != nil {
		return tw.c.Close()
	}
	return nil
}

func (tw *TraceWriter) emit(rec *TraceRecord) {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	if err := tw.enc.Encode(rec); err != nil && tw.err == nil {
		tw.err = err
	}
	tw.n++
}

// Observe implements core.Observer: every event kind but per-RPC fleet
// accounting lands in the trace, and a campaign summary flushes it.
func (tw *TraceWriter) Observe(ev core.Event) {
	rec, ok := record(ev)
	if !ok {
		return
	}
	tw.emit(&rec)
	if _, done := ev.(*core.CampaignEvent); done {
		_ = tw.Flush()
	}
}

// record converts an event to its trace record — the one conversion
// TraceWriter and Ring share, so the on-disk trace and the /api/events
// surface carry one schema.  ok is false for fleet "rpc" events:
// per-RPC byte accounting is metrics-only, since it would swamp the
// trace with one line per exchange.
func record(ev core.Event) (rec TraceRecord, ok bool) {
	switch ev := ev.(type) {
	case *core.MuTStartEvent:
		return TraceRecord{
			Type: "mut_start", OS: ev.OS, MuT: ev.MuT, API: ev.API,
			Group: ev.Group, Wide: ev.Wide, Cases: ev.Cases,
		}, true
	case *core.CaseEvent:
		seq := ev.Seq
		return TraceRecord{
			Type: "case", OS: ev.OS, MuT: ev.MuT, Case: ev.Case, Wide: ev.Wide,
			API: ev.API, Group: ev.Group, Seq: &seq,
			Class: ev.Class.String(), Exceptional: ev.Exceptional,
			ErrCode: ev.ErrCode, Exception: ev.Exception, IsSignal: ev.IsSignal,
			CrashReason: ev.CrashReason,
			Epoch:       ev.Kernel.Epoch, Corruption: ev.Kernel.Corruption,
			LiveHandles: ev.Kernel.LiveHandles, MappedPages: ev.Kernel.MappedPages,
			SimTicks: ev.SimTicks, WallNS: ev.Wall.Nanoseconds(),
		}, true
	case *core.RebootEvent:
		return TraceRecord{Type: "reboot", OS: ev.OS, MuT: ev.MuT, Epoch: ev.Epoch, Reason: ev.Reason}, true
	case *core.CampaignEvent:
		return TraceRecord{
			Type: "campaign", OS: ev.OS, Cases: ev.CasesRun,
			Reboots: ev.Reboots, WallNS: ev.Wall.Nanoseconds(),
		}, true
	case *core.ShardEvent:
		worker, shard := ev.Worker, ev.Shard
		return TraceRecord{
			Type: "shard", OS: ev.OS, MuT: ev.MuT, Wide: ev.Wide,
			Cases: ev.Cases, Reboots: ev.Reboots,
			Worker: &worker, Shard: &shard,
			WallNS: ev.Wall.Nanoseconds(),
		}, true
	case *core.ChainEvent:
		seq := ev.Seq
		classes := make(map[string][]string, len(ev.Classes))
		for os, cls := range ev.Classes {
			names := make([]string, len(cls))
			for i, c := range cls {
				names[i] = c.String()
			}
			classes[os] = names
		}
		return TraceRecord{
			Type: "chain", OS: ev.OS, Wide: ev.Wide, Seq: &seq,
			Steps: ev.Steps, Classes: classes,
			Novel: ev.Novel, Divergent: ev.Divergent, Catastrophic: ev.Catastrophic,
			Fingerprint: fmt.Sprintf("%016x", ev.Fingerprint),
			CorpusSize:  ev.CorpusSize,
		}, true
	case *core.FleetEvent:
		if ev.Kind == "rpc" {
			return TraceRecord{}, false
		}
		task := ev.Task
		return TraceRecord{
			Type: "fleet", Event: ev.Kind, FleetWorker: ev.Worker,
			Gen: ev.Gen, Shard: &task, Version: ev.Version, Live: ev.Live,
		}, true
	case *core.CrashEvent:
		seq := ev.Seq
		return TraceRecord{
			Type: "crash", Seq: &seq, Workload: ev.Workload, OSes: ev.OSes,
			CrashPoints: ev.CrashPoints, States: ev.States, Violations: ev.Violations,
			Divergent: ev.Divergent, Violating: ev.Violating,
		}, true
	case *core.ScarceEvent:
		seq := ev.Seq
		return TraceRecord{
			Type: "scarce", Seq: &seq, MuT: ev.MuT, API: ev.API, Env: ev.Env, OSes: ev.OSes,
			Crashed: ev.Crashed, Leaked: ev.Leaked, Ungraceful: ev.Ungraceful,
			Divergent: ev.Divergent, Violating: ev.Violating,
		}, true
	}
	return TraceRecord{}, false
}

// ReadTrace parses a JSONL trace stream, returning its records in order.
func ReadTrace(r io.Reader) ([]TraceRecord, error) {
	dec := json.NewDecoder(r)
	var out []TraceRecord
	for {
		var rec TraceRecord
		if err := dec.Decode(&rec); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return out, err
		}
		out = append(out, rec)
	}
}
