// Package telemetry is the observability layer of the Ballista
// reproduction.  The paper's harness logged every test case to disk so
// Catastrophic failures could be replayed as single-test programs (§2,
// §3.3) and reported its findings as aggregate rate tables; this package
// supplies both halves as stock core.Observer implementations, each of
// which sees every event kind through the one Observe method:
//
//   - TraceWriter appends one JSONL record per event — test case, MuT
//     start, reboot, campaign, farm shard, fuzzer chain, fleet action,
//     crash-sweep workload and scarcity-sweep item; any case record's
//     {os, mut, case, wide} fields are a service CaseRequest, so traces
//     replay directly through POST /api/case or Runner.RunCase.
//   - Metrics accumulates counters per CRASH class and catalog group,
//     case-latency histograms, sim-kernel health gauges and per-engine
//     counters, and renders them in Prometheus text exposition format.
//   - Ring retains the last N records in memory for the service's
//     GET /api/events endpoint, in the trace's schema.
//
// TraceWriter and Ring build their records with one shared conversion,
// so the on-disk trace and the HTTP surface cannot drift apart.  All
// types here are safe for concurrent use: the campaign runner fires
// events from one goroutine, but farms, fleets and the testing service
// share observers across goroutines.
package telemetry

import (
	"fmt"
	"io"
	"log"
	"os"

	"ballista/internal/core"
)

// Multi fans one event stream out to several observers, in order.  Nil
// observers are dropped; zero live observers collapse to nil so the
// runner's nil check keeps the case path free, and a single live
// observer is returned undecorated.
func Multi(obs ...core.Observer) core.Observer {
	flat := make([]core.Observer, 0, len(obs))
	for _, o := range obs {
		if o != nil {
			flat = append(flat, o)
		}
	}
	switch len(flat) {
	case 0:
		return nil
	case 1:
		return flat[0]
	}
	return multi(flat)
}

type multi []core.Observer

func (m multi) Observe(ev core.Event) {
	for _, o := range m {
		o.Observe(ev)
	}
}

// Logger is the shared harness logger: a thin prefix-per-component
// wrapper so server and CLI log lines are uniform and testable.
type Logger struct {
	l *log.Logger
}

// NewLogger logs to w with a component prefix; a nil w selects stderr.
func NewLogger(w io.Writer, component string) *Logger {
	if w == nil {
		w = os.Stderr
	}
	return &Logger{l: log.New(w, component+": ", log.LstdFlags|log.LUTC|log.Lmsgprefix)}
}

// Printf logs one formatted line.
func (lg *Logger) Printf(format string, args ...any) {
	if lg == nil {
		return
	}
	lg.l.Printf(format, args...)
}

// Errorf logs one formatted line with an "error: " marker.
func (lg *Logger) Errorf(format string, args ...any) {
	if lg == nil {
		return
	}
	lg.l.Printf("error: %s", fmt.Sprintf(format, args...))
}
