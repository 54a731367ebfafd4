// Package span is the flight recorder of the Ballista harness: a
// causal trace of what the harness did — campaign, shard, MuT, case,
// chain, fleet lease and upload — threaded through every execution
// layer.  The paper's methodology depends on reconstructing the exact
// harness context around each failure; the Observer seam records *what*
// each case classified as, and spans record *where and when* the
// harness ran it, across process boundaries.
//
// Design rules, in priority order:
//
//   - Cheap when off: a nil *Recorder (and the nil *Span every method
//     then returns) costs one pointer check, the same discipline as
//     core.Observer and chaos.Injector.
//   - Cheap when on: spans are pooled, case/chain spans are sampled
//     (1-in-N), and completed spans land in a bounded in-memory ring.
//   - Observation only: recording spans never changes campaign results;
//     the determinism oracles (byte-identical CSV with spans on or off)
//     are the enforcement.
//
// The package is intentionally dependency-free (stdlib only) so every
// layer — core, chaos, farm, fleet — can import it without cycles.
package span

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Record is one completed span in wire/JSONL form.  Trace is the
// campaign identity (the fleet coordinator's spec hash), so a record
// exported by a remote worker is attributable to the campaign that
// leased it; Parent links the causal chain campaign → shard → mut →
// case inside one process.
type Record struct {
	Trace  string `json:"trace,omitempty"`
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	// Phase is the layer that ran ("campaign", "shard", "mut", "case",
	// "chain", "unit", "lease", "upload", "heartbeat", "join", "fault",
	// "watchdog", "quarantine").
	Phase string `json:"phase"`
	// Name is the phase's subject: a MuT or OS name, a gen/task pair, a
	// chaos op.
	Name   string `json:"name,omitempty"`
	OS     string `json:"os,omitempty"`
	Worker string `json:"worker,omitempty"`
	Detail string `json:"detail,omitempty"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

// Buckets are the per-phase latency histogram upper bounds, in seconds.
// Simulated cases run in microseconds; whole campaigns in seconds.
var Buckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}

// PhaseStat is one phase's latency summary: observation count, summed
// seconds, and per-bucket counts (len(Buckets)+1, the last is +Inf).
type PhaseStat struct {
	Count   uint64
	Sum     float64
	Buckets []uint64
}

// Options sizes a Recorder.
type Options struct {
	// Ring is how many completed spans stay in memory (default 4096).
	Ring int
	// Sample records one in N case/chain spans through StartSampled
	// (default 1 = every one).  Structural spans (campaign, shard, mut,
	// fleet) are always recorded.
	Sample int
	// Sink, when non-nil, receives every completed span as one JSON
	// line (buffered; call Flush or Close).  If it is an io.Closer,
	// Close closes it.
	Sink io.Writer
	// FlightDir, when non-empty, enables crash dumps: Dump writes the
	// last FlightSpans ring records as a JSON artifact there.
	FlightDir string
	// FlightSpans is how many trailing spans one dump carries
	// (default 64).
	FlightSpans int
	// MaxDumps caps dump files per recorder (default 16), so a
	// pathological campaign cannot fill the disk with artifacts.
	MaxDumps int
}

// Span is one in-flight measurement.  A nil *Span (recorder disabled,
// or sampled out) absorbs every method as a no-op, so call sites never
// branch.  End returns the span to the pool; no method may be called
// after End.
type Span struct {
	rec    *Recorder
	id     uint64
	parent uint64
	phase  string
	name   string
	os     string
	worker string
	detail string
	start  time.Time
}

// Recorder collects spans.  All methods are safe for concurrent use
// and nil-receiver safe.
type Recorder struct {
	opts Options
	ids  atomic.Uint64
	tick atomic.Uint64 // StartSampled admission counter
	pool sync.Pool

	mu    sync.Mutex
	trace string
	buf   []Record
	next  int
	full  bool
	seen  uint64
	stats map[string]*PhaseStat

	sink    *json.Encoder
	sinkBuf interface{ Flush() error }
	sinkC   io.Closer
	sinkErr error // the first sink write error; it stops the sink
	dumpErr error // the first failed Dump; the sink keeps going

	dumps   int
	dumpSeq int
}

// New builds a recorder.  The zero Options value is usable: a 4096-span
// ring, no sampling, no sink, no flight dumps.
func New(o Options) *Recorder {
	if o.Ring < 1 {
		o.Ring = 4096
	}
	if o.Sample < 1 {
		o.Sample = 1
	}
	if o.FlightSpans < 1 {
		o.FlightSpans = 64
	}
	if o.MaxDumps < 1 {
		o.MaxDumps = 16
	}
	r := &Recorder{
		opts:  o,
		buf:   make([]Record, o.Ring),
		stats: make(map[string]*PhaseStat),
	}
	r.pool.New = func() any { return new(Span) }
	if o.Sink != nil {
		bw := newBufWriter(o.Sink)
		r.sink = json.NewEncoder(bw)
		r.sinkBuf = bw
		if c, ok := o.Sink.(io.Closer); ok {
			r.sinkC = c
		}
	}
	return r
}

// bufWriter is a tiny grow-and-flush buffer; enough for JSONL lines
// without importing bufio's full machinery twice over the mutex.
type bufWriter struct {
	w   io.Writer
	buf []byte
}

func newBufWriter(w io.Writer) *bufWriter {
	return &bufWriter{w: w, buf: make([]byte, 0, 64<<10)}
}

func (b *bufWriter) Write(p []byte) (int, error) {
	b.buf = append(b.buf, p...)
	if len(b.buf) >= 48<<10 {
		return len(p), b.Flush()
	}
	return len(p), nil
}

func (b *bufWriter) Flush() error {
	if len(b.buf) == 0 {
		return nil
	}
	_, err := b.w.Write(b.buf)
	b.buf = b.buf[:0]
	return err
}

// SetTrace stamps every span recorded from now on with the campaign
// identity (a fleet worker calls it with the joined campaign's hash, so
// its spans link back to the coordinator's trace).
func (r *Recorder) SetTrace(id string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.trace = id
	r.mu.Unlock()
}

// Trace returns the current campaign identity.
func (r *Recorder) Trace() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.trace
}

// Start opens a span unconditionally (structural phases).
func (r *Recorder) Start(phase, name string) *Span {
	if r == nil {
		return nil
	}
	s := r.pool.Get().(*Span)
	*s = Span{rec: r, id: r.ids.Add(1), phase: phase, name: name, start: time.Now()}
	return s
}

// StartSampled opens a span subject to the 1-in-N sampling rate — the
// high-volume case/chain phases, where recording every one of millions
// of spans would cost more than it tells.
func (r *Recorder) StartSampled(phase, name string) *Span {
	if r == nil {
		return nil
	}
	if n := r.opts.Sample; n > 1 && (r.tick.Add(1)-1)%uint64(n) != 0 {
		return nil
	}
	return r.Start(phase, name)
}

// Instant records a zero-duration span — an annotation, not a
// measurement (chaos fault sites, watchdog convictions).
func (r *Recorder) Instant(phase, name, detail string) {
	if r == nil {
		return
	}
	rec := Record{
		ID: fmtID(r.ids.Add(1)), Phase: phase, Name: name,
		Detail: detail, Start: time.Now().UnixNano(),
	}
	r.record(&rec, 0)
}

// ID returns the span's identity for parent links (0 when nil).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// SetParent links the span under another span's ID.
func (s *Span) SetParent(id uint64) *Span {
	if s != nil {
		s.parent = id
	}
	return s
}

// SetName replaces the span's subject (for spans whose subject is only
// known mid-flight, like a granted lease).
func (s *Span) SetName(name string) *Span {
	if s != nil {
		s.name = name
	}
	return s
}

// SetOS labels the span with the OS variant under test.
func (s *Span) SetOS(os string) *Span {
	if s != nil {
		s.os = os
	}
	return s
}

// SetWorker labels the span with the executing worker.
func (s *Span) SetWorker(w string) *Span {
	if s != nil {
		s.worker = w
	}
	return s
}

// SetDetail attaches free-form context.
func (s *Span) SetDetail(d string) *Span {
	if s != nil {
		s.detail = d
	}
	return s
}

// End completes the span: the record lands in the ring, the per-phase
// histogram, and the JSONL sink; the span returns to the pool.
func (s *Span) End() {
	if s == nil {
		return
	}
	r := s.rec
	dur := time.Since(s.start)
	rec := Record{
		ID: fmtID(s.id), Phase: s.phase, Name: s.name,
		OS: s.os, Worker: s.worker, Detail: s.detail,
		Start: s.start.UnixNano(), Dur: dur.Nanoseconds(),
	}
	if s.parent != 0 {
		rec.Parent = fmtID(s.parent)
	}
	*s = Span{}
	r.pool.Put(s)
	r.record(&rec, dur.Seconds())
}

func fmtID(id uint64) string { return fmt.Sprintf("%012x", id) }

func (r *Recorder) record(rec *Record, seconds float64) {
	r.mu.Lock()
	rec.Trace = r.trace
	r.buf[r.next] = *rec
	r.next++
	r.seen++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	st := r.stats[rec.Phase]
	if st == nil {
		st = &PhaseStat{Buckets: make([]uint64, len(Buckets)+1)}
		r.stats[rec.Phase] = st
	}
	st.Count++
	st.Sum += seconds
	st.Buckets[bucketFor(seconds)]++
	if r.sink != nil && r.sinkErr == nil {
		r.sinkErr = r.sink.Encode(rec)
	}
	r.mu.Unlock()
}

func bucketFor(v float64) int {
	i := sort.SearchFloat64s(Buckets, v)
	return i
}

// Seen reports how many spans have completed.
func (r *Recorder) Seen() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seen
}

// Last returns up to n most recent records, oldest first (n <= 0 means
// everything retained).
func (r *Recorder) Last(n int) []Record {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastLocked(n)
}

func (r *Recorder) lastLocked(n int) []Record {
	size := r.next
	if r.full {
		size = len(r.buf)
	}
	if n <= 0 || n > size {
		n = size
	}
	out := make([]Record, 0, n)
	for i := size - n; i < size; i++ {
		idx := i
		if r.full {
			idx = (r.next + i) % len(r.buf)
		}
		out = append(out, r.buf[idx])
	}
	return out
}

// LastFiltered returns up to n most recent records whose Phase matches
// phase, oldest first (phase "" matches everything, n <= 0 means no
// bound).  The scan walks the ring newest-to-oldest so a small n over a
// large ring stays cheap.
func (r *Recorder) LastFiltered(n int, phase string) []Record {
	if r == nil {
		return nil
	}
	if phase == "" {
		return r.Last(n)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	size := r.next
	if r.full {
		size = len(r.buf)
	}
	if n <= 0 || n > size {
		n = size
	}
	var out []Record
	for i := size - 1; i >= 0 && len(out) < n; i-- {
		idx := i
		if r.full {
			idx = (r.next + i) % len(r.buf)
		}
		if r.buf[idx].Phase == phase {
			out = append(out, r.buf[idx])
		}
	}
	// Reverse to oldest-first, matching Last.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// PhaseStats snapshots the per-phase latency summaries, keyed by phase
// name (the ballista_span_* metrics feed).
func (r *Recorder) PhaseStats() map[string]PhaseStat {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]PhaseStat, len(r.stats))
	for phase, st := range r.stats {
		cp := PhaseStat{Count: st.Count, Sum: st.Sum, Buckets: append([]uint64(nil), st.Buckets...)}
		out[phase] = cp
	}
	return out
}

// Err returns the first sink write error, else the first failed Dump's
// error, if any.
func (r *Recorder) Err() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return cmp.Or(r.sinkErr, r.dumpErr)
}

// Flush drains the JSONL sink buffer and returns Err.
func (r *Recorder) Flush() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sinkBuf != nil {
		if err := r.sinkBuf.Flush(); err != nil && r.sinkErr == nil {
			r.sinkErr = err
		}
	}
	return cmp.Or(r.sinkErr, r.dumpErr)
}

// Close flushes and closes the sink when it is closable, and returns
// Err: a failed Dump is reported here, not dropped.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	err := r.Flush()
	if r.sinkC != nil {
		if cerr := r.sinkC.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// FlightDump is the crash artifact Dump writes: why the harness
// snapshotted, which campaign, and the trailing spans for the affected
// window — the minimized what-was-I-doing record next to the fuzzer's
// minimized what-input-did-it reproducers.
type FlightDump struct {
	Reason string   `json:"reason"`
	Trace  string   `json:"trace,omitempty"`
	Seen   uint64   `json:"seen"`
	Spans  []Record `json:"spans"`
}

// Dump writes the last FlightSpans records as flight-NNN-<reason>.json
// under FlightDir and returns the path.  Without a FlightDir (or past
// MaxDumps) it is a silent no-op returning "".  The first failed dump's
// error is also kept for Err and Close, so a caller with no way to
// handle it (a watchdog, a panic quarantine) does not lose it.
func (r *Recorder) Dump(reason string) (string, error) {
	path, err := r.dump(reason)
	if err != nil {
		r.mu.Lock()
		if r.dumpErr == nil {
			r.dumpErr = fmt.Errorf("span: flight dump %q: %w", reason, err)
		}
		r.mu.Unlock()
	}
	return path, err
}

func (r *Recorder) dump(reason string) (string, error) {
	if r == nil || r.opts.FlightDir == "" {
		return "", nil
	}
	r.mu.Lock()
	if r.dumps >= r.opts.MaxDumps {
		r.mu.Unlock()
		return "", nil
	}
	r.dumps++
	r.dumpSeq++
	fd := FlightDump{
		Reason: reason, Trace: r.trace, Seen: r.seen,
		Spans: r.lastLocked(r.opts.FlightSpans),
	}
	seq := r.dumpSeq
	r.mu.Unlock()

	if err := os.MkdirAll(r.opts.FlightDir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(&fd, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(r.opts.FlightDir, fmt.Sprintf("flight-%03d-%s.json", seq, sanitize(reason)))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// ReadFlightDump parses one Dump artifact.
func ReadFlightDump(path string) (*FlightDump, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var fd FlightDump
	if err := json.Unmarshal(data, &fd); err != nil {
		return nil, err
	}
	return &fd, nil
}

// sanitize keeps dump filenames portable.
func sanitize(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s) && i < 32; i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	if len(out) == 0 {
		return "dump"
	}
	return string(out)
}
