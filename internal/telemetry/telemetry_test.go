package telemetry

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"ballista/internal/core"
)

func caseEvent(seq int, cls core.RawClass) *core.CaseEvent {
	return &core.CaseEvent{
		OS: "win98", MuT: "GetThreadContext", API: "Win32", Group: "proc/env",
		Case: core.Case{3, 0}, Seq: seq, Class: cls,
		Kernel:   core.KernelSample{Epoch: 1, Corruption: 2, LiveHandles: 4, MappedPages: 8},
		SimTicks: 17, Wall: 42 * time.Microsecond,
	}
}

func TestTraceWriterRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	tw.Observe(&core.MuTStartEvent{OS: "win98", MuT: "GetThreadContext", API: "Win32", Group: "proc/env", Cases: 24})
	tw.Observe(caseEvent(0, core.RawCatastrophic))
	tw.Observe(&core.RebootEvent{OS: "win98", MuT: "GetThreadContext", Epoch: 1, Reason: "bad write"})
	tw.Observe(&core.CampaignEvent{OS: "win98", MuTs: 1, CasesRun: 1, Reboots: 1, Wall: time.Millisecond})
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := tw.Records(); got != 4 {
		t.Errorf("Records() = %d, want 4", got)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 4 {
		t.Errorf("trace has %d lines, want 4", lines)
	}
	recs, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("ReadTrace returned %d records", len(recs))
	}
	for i, want := range []string{"mut_start", "case", "reboot", "campaign"} {
		if recs[i].Type != want {
			t.Errorf("record %d type %q, want %q", i, recs[i].Type, want)
		}
	}
	c := recs[1]
	if c.OS != "win98" || c.MuT != "GetThreadContext" || len(c.Case) != 2 || c.Case[0] != 3 {
		t.Errorf("case record lost its replay identity: %+v", c)
	}
	if c.Class != "catastrophic" || c.Seq == nil || *c.Seq != 0 || c.SimTicks != 17 || c.WallNS != 42000 {
		t.Errorf("case record payload: %+v", c)
	}
	if recs[2].Reason != "bad write" || recs[3].Reboots != 1 {
		t.Errorf("reboot/campaign records: %+v %+v", recs[2], recs[3])
	}
}

// TestTraceRecordsOmitEmptyOS: the records of no one OS carry no "os"
// key at all, while a case record keeps its replay identity's OS.
func TestTraceRecordsOmitEmptyOS(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	tw.Observe(&core.FleetEvent{Kind: "worker_join", Worker: "w1"})
	tw.Observe(&core.CrashEvent{Workload: "create(f0)", OSes: []string{"winnt"}})
	tw.Observe(&core.ScarceEvent{MuT: "ReadFile", Env: "handle-starved", OSes: []string{"winnt"}})
	tw.Observe(caseEvent(0, core.RawClean))
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("trace has %d lines, want 4", len(lines))
	}
	for _, line := range lines[:3] {
		if strings.Contains(line, `"os":`) {
			t.Errorf("record of no one OS carries an os key: %s", line)
		}
	}
	if !strings.Contains(lines[3], `"os":"win98"`) {
		t.Errorf("case record lost its OS: %s", lines[3])
	}
}

func TestRingWraparound(t *testing.T) {
	rg := NewRing(3)
	if got := rg.Last(10); len(got) != 0 {
		t.Errorf("empty ring Last = %v", got)
	}
	for i := 0; i < 5; i++ {
		rg.Observe(caseEvent(i, core.RawClean))
	}
	if rg.Seen() != 5 {
		t.Errorf("Seen() = %d, want 5", rg.Seen())
	}
	got := rg.Last(0)
	if len(got) != 3 {
		t.Fatalf("Last(0) returned %d records", len(got))
	}
	// Oldest first: seqs 2, 3, 4 survive.
	for i, want := range []int{2, 3, 4} {
		if got[i].Seq == nil || *got[i].Seq != want {
			t.Errorf("record %d seq = %v, want %d", i, got[i].Seq, want)
		}
	}
	if last := rg.Last(1); len(last) != 1 || *last[0].Seq != 4 {
		t.Errorf("Last(1) = %+v", last)
	}
	// Capacity is clamped to at least one record.
	tiny := NewRing(0)
	tiny.Observe(caseEvent(9, core.RawClean))
	if got := tiny.Last(5); len(got) != 1 || *got[0].Seq != 9 {
		t.Errorf("clamped ring Last = %+v", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 10})
	for _, v := range []float64{0.5, 1, 5, 100} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Errorf("Count() = %d", h.Count())
	}
	// 0.5 and 1 land in le=1 (upper bounds are inclusive), 5 in le=10,
	// 100 in +Inf.
	if h.counts[0] != 2 || h.counts[1] != 1 || h.counts[2] != 1 {
		t.Errorf("bucket counts = %v", h.counts)
	}
	if h.sum != 106.5 {
		t.Errorf("sum = %v", h.sum)
	}
}

func TestMetricsPrometheusOutput(t *testing.T) {
	m := NewMetrics()
	m.Observe(&core.MuTStartEvent{OS: "win98", MuT: "GetThreadContext"})
	m.Observe(caseEvent(0, core.RawAbort))
	m.Observe(caseEvent(1, core.RawCatastrophic))
	m.Observe(&core.RebootEvent{OS: "win98"})
	m.Observe(&core.CampaignEvent{OS: "win98"})
	m.ObserveHTTP("POST", "/api/case", 200, time.Millisecond)
	m.AddInFlight(1)

	if got := m.CaseCount("abort"); got != 1 {
		t.Errorf("CaseCount(abort) = %d", got)
	}
	if got := m.HTTPRequestCount(); got != 1 {
		t.Errorf("HTTPRequestCount() = %d", got)
	}

	var buf bytes.Buffer
	m.WritePrometheus(&buf)
	text := buf.String()
	for _, want := range []string{
		`ballista_cases_total{class="abort"} 1`,
		`ballista_cases_total{class="catastrophic"} 1`,
		`ballista_group_cases_total{group="proc/env",class="abort"} 1`,
		`ballista_os_cases_total{os="win98"} 2`,
		`ballista_muts_started_total 1`,
		`ballista_reboots_total 1`,
		`ballista_campaigns_total 1`,
		`ballista_sim_ticks_total 34`,
		`ballista_kernel_corruption_level{os="win98"} 2`,
		`ballista_kernel_live_handles{os="win98"} 4`,
		`ballista_kernel_mapped_pages{os="win98"} 8`,
		`ballista_kernel_epoch{os="win98"} 1`,
		`ballista_case_duration_seconds_count 2`,
		`ballista_http_requests_total{method="POST",path="/api/case",status="200"} 1`,
		`ballista_http_in_flight_requests 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	// Deterministic rendering: two passes agree byte for byte.
	var again bytes.Buffer
	m.WritePrometheus(&again)
	if text != again.String() {
		t.Error("WritePrometheus output is not stable")
	}
}

// countingObserver tallies the runner's four event kinds for Multi
// fan-out tests.
type countingObserver struct{ muts, cases, reboots, campaigns int }

func (c *countingObserver) Observe(ev core.Event) {
	switch ev.(type) {
	case *core.MuTStartEvent:
		c.muts++
	case *core.CaseEvent:
		c.cases++
	case *core.RebootEvent:
		c.reboots++
	case *core.CampaignEvent:
		c.campaigns++
	}
}

func TestMulti(t *testing.T) {
	a, b := &countingObserver{}, &countingObserver{}
	m := Multi(a, nil, b)
	m.Observe(&core.MuTStartEvent{})
	m.Observe(&core.CaseEvent{})
	m.Observe(&core.CaseEvent{})
	m.Observe(&core.RebootEvent{})
	m.Observe(&core.CampaignEvent{})
	for _, c := range []*countingObserver{a, b} {
		if c.muts != 1 || c.cases != 2 || c.reboots != 1 || c.campaigns != 1 {
			t.Errorf("fan-out counts: %+v", c)
		}
	}
	if Multi() != nil || Multi(nil) != nil {
		t.Error("empty Multi should collapse to nil")
	}
	if Multi(a) != core.Observer(a) {
		t.Error("single-observer Multi should return the observer itself")
	}
}

// extendedObserver also tallies the farm, fuzzer, fleet and sweep
// event kinds on top of the runner's four.
type extendedObserver struct {
	countingObserver
	shards, chains, fleet, crash, scarce int
}

func (e *extendedObserver) Observe(ev core.Event) {
	switch ev.(type) {
	case *core.ShardEvent:
		e.shards++
	case *core.ChainEvent:
		e.chains++
	case *core.FleetEvent:
		e.fleet++
	case *core.CrashEvent:
		e.crash++
	case *core.ScarceEvent:
		e.scarce++
	default:
		e.countingObserver.Observe(ev)
	}
}

// TestMultiExtensionFanout mixes an observer that counts only the
// runner's events with one that counts every engine's: the fan-out must
// deliver every event to both members, so the engine events reach the
// member that counts them and the runner events reach both, and the
// engine events must not land in the plain member's runner counters.
func TestMultiExtensionFanout(t *testing.T) {
	plain := &countingObserver{}
	ext := &extendedObserver{}
	m := Multi(plain, ext)

	m.Observe(&core.ShardEvent{})
	m.Observe(&core.ShardEvent{})
	m.Observe(&core.ChainEvent{})
	m.Observe(&core.FleetEvent{})
	m.Observe(&core.FleetEvent{})
	m.Observe(&core.FleetEvent{})
	m.Observe(&core.CrashEvent{})
	m.Observe(&core.ScarceEvent{})
	m.Observe(&core.CaseEvent{})

	if ext.shards != 2 || ext.chains != 1 || ext.fleet != 3 || ext.crash != 1 || ext.scarce != 1 {
		t.Errorf("engine fan-out counts: shards=%d chains=%d fleet=%d crash=%d scarce=%d",
			ext.shards, ext.chains, ext.fleet, ext.crash, ext.scarce)
	}
	if plain.cases != 1 || ext.cases != 1 {
		t.Errorf("base fan-out counts: plain=%d ext=%d", plain.cases, ext.cases)
	}
	// The engine events must not have leaked into the plain member's
	// runner counters.
	if plain.muts != 0 || plain.reboots != 0 || plain.campaigns != 0 {
		t.Errorf("plain observer saw phantom events: %+v", plain)
	}

	// A single observer is returned undecorated.
	if Multi(plain) != core.Observer(plain) {
		t.Error("single plain observer was wrapped")
	}
}

func TestLogger(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&buf, "test")
	lg.Printf("hello %d", 7)
	lg.Errorf("broken: %v", "pipe")
	out := buf.String()
	if !strings.Contains(out, "test: hello 7") || !strings.Contains(out, "test: error: broken: pipe") {
		t.Errorf("log output: %q", out)
	}
	// A nil logger is a safe sink.
	var nilLogger *Logger
	nilLogger.Printf("dropped")
	nilLogger.Errorf("dropped")
}
