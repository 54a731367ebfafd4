package span

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRecorderAndSpanAreNoOps(t *testing.T) {
	var r *Recorder
	r.SetTrace("x")
	if r.Trace() != "" {
		t.Fatal("nil recorder has a trace")
	}
	s := r.Start("case", "read")
	if s != nil {
		t.Fatal("nil recorder produced a span")
	}
	if s.ID() != 0 {
		t.Fatal("nil span has an ID")
	}
	// Every fluent setter and End must absorb the nil receiver.
	s.SetParent(7).SetName("n").SetOS("o").SetWorker("w").SetDetail("d").End()
	r.Instant("fault", "fs.write", "boom")
	if r.StartSampled("case", "x") != nil {
		t.Fatal("nil recorder sampled a span")
	}
	if got := r.Last(10); got != nil {
		t.Fatalf("nil recorder retained records: %v", got)
	}
	if r.Seen() != 0 || r.PhaseStats() != nil || r.Err() != nil {
		t.Fatal("nil recorder reports state")
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if path, err := r.Dump("why"); path != "" || err != nil {
		t.Fatalf("nil recorder dumped: %q %v", path, err)
	}
}

func TestRingRetainsMostRecent(t *testing.T) {
	r := New(Options{Ring: 4})
	for i := 0; i < 10; i++ {
		r.Start("case", string(rune('a'+i))).End()
	}
	if r.Seen() != 10 {
		t.Fatalf("seen = %d, want 10", r.Seen())
	}
	got := r.Last(0)
	if len(got) != 4 {
		t.Fatalf("retained %d records, want 4", len(got))
	}
	for i, rec := range got {
		want := string(rune('a' + 6 + i))
		if rec.Name != want {
			t.Fatalf("record %d name = %q, want %q (oldest first)", i, rec.Name, want)
		}
	}
	if two := r.Last(2); len(two) != 2 || two[1].Name != "j" {
		t.Fatalf("Last(2) = %v", two)
	}
}

func TestParentAndTraceThreading(t *testing.T) {
	r := New(Options{})
	r.SetTrace("cafebabe")
	parent := r.Start("campaign", "winnt")
	child := r.Start("mut", "read").SetParent(parent.ID()).SetOS("winnt")
	child.End()
	parent.End()
	recs := r.Last(0)
	if len(recs) != 2 {
		t.Fatalf("got %d records", len(recs))
	}
	// Child completes first (ring is completion-ordered).
	if recs[0].Parent != recs[1].ID {
		t.Fatalf("child parent %q != campaign id %q", recs[0].Parent, recs[1].ID)
	}
	for _, rec := range recs {
		if rec.Trace != "cafebabe" {
			t.Fatalf("record %q missing trace: %q", rec.Phase, rec.Trace)
		}
	}
	if recs[0].OS != "winnt" || recs[0].Phase != "mut" {
		t.Fatalf("child labels wrong: %+v", recs[0])
	}
}

func TestSampling(t *testing.T) {
	r := New(Options{Sample: 4})
	kept := 0
	for i := 0; i < 40; i++ {
		if s := r.StartSampled("case", "x"); s != nil {
			kept++
			s.End()
		}
	}
	if kept != 10 {
		t.Fatalf("kept %d of 40 at 1-in-4, want 10", kept)
	}
	// Structural spans bypass sampling.
	if s := r.Start("shard", "y"); s == nil {
		t.Fatal("Start sampled out a structural span")
	} else {
		s.End()
	}
}

func TestJSONLSinkRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	r := New(Options{Sink: &buf})
	r.SetTrace("t1")
	r.Start("shard", "read").SetWorker("3").End()
	r.Instant("fault", "fs.write", "/scratch/f")
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("sink has %d lines, want 2: %q", len(lines), buf.String())
	}
	var rec Record
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Phase != "shard" || rec.Worker != "3" || rec.Trace != "t1" {
		t.Fatalf("bad first record: %+v", rec)
	}
	rec = Record{}
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Phase != "fault" || rec.Detail != "/scratch/f" || rec.Dur != 0 {
		t.Fatalf("bad instant record: %+v", rec)
	}
}

func TestPhaseStats(t *testing.T) {
	r := New(Options{})
	for i := 0; i < 3; i++ {
		r.Start("case", "x").End()
	}
	r.Start("shard", "y").End()
	stats := r.PhaseStats()
	if stats["case"].Count != 3 || stats["shard"].Count != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	cs := stats["case"]
	if len(cs.Buckets) != len(Buckets)+1 {
		t.Fatalf("bucket count %d, want %d", len(cs.Buckets), len(Buckets)+1)
	}
	var total uint64
	for _, n := range cs.Buckets {
		total += n
	}
	if total != 3 {
		t.Fatalf("bucket sum %d, want 3", total)
	}
	// The snapshot must be a copy, not an alias.
	cs.Buckets[0] = 999
	if r.PhaseStats()["case"].Buckets[0] == 999 {
		t.Fatal("PhaseStats aliases internal state")
	}
}

// TestFlightDumpFailureIsReported: a dump that cannot be written (its
// FlightDir is a regular file) fails, and the recorder keeps the first
// failure for Err and Close, so a caller that cannot act on it does not
// lose it.  The sink keeps recording after it.
func TestFlightDumpFailureIsReported(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(dir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var sink bytes.Buffer
	r := New(Options{FlightDir: dir, Sink: &sink})
	r.Start("case", "a").End()
	if _, err := r.Dump("watchdog"); err == nil {
		t.Fatal("dump into a regular file succeeded")
	}
	if _, err := r.Dump("quarantine"); err == nil {
		t.Fatal("second dump into a regular file succeeded")
	}
	r.Start("case", "b").End()
	err := r.Close()
	if err == nil || !strings.Contains(err.Error(), `"watchdog"`) {
		t.Fatalf("Close returned %v, want the first dump failure", err)
	}
	if n := strings.Count(sink.String(), "\n"); n != 2 {
		t.Errorf("sink holds %d spans, want both", n)
	}
}

func TestFlightDump(t *testing.T) {
	dir := t.TempDir()
	r := New(Options{Ring: 16, FlightDir: dir, FlightSpans: 2, MaxDumps: 2})
	r.SetTrace("deadbeef")
	for _, name := range []string{"a", "b", "c"} {
		r.Start("case", name).End()
	}
	path, err := r.Dump("watchdog")
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "flight-001-watchdog.json" {
		t.Fatalf("dump path %q", path)
	}
	fd, err := ReadFlightDump(path)
	if err != nil {
		t.Fatal(err)
	}
	if fd.Reason != "watchdog" || fd.Trace != "deadbeef" || fd.Seen != 3 {
		t.Fatalf("dump header: %+v", fd)
	}
	if len(fd.Spans) != 2 || fd.Spans[0].Name != "b" || fd.Spans[1].Name != "c" {
		t.Fatalf("dump spans: %+v", fd.Spans)
	}
	// Reason strings become safe filenames.
	p2, err := r.Dump("injected: worker/panic!")
	if err != nil {
		t.Fatal(err)
	}
	if strings.ContainsAny(filepath.Base(p2), "/!: ") {
		t.Fatalf("unsanitized dump name %q", p2)
	}
	// The cap silently absorbs further dumps.
	if p3, err := r.Dump("extra"); p3 != "" || err != nil {
		t.Fatalf("dump past cap: %q %v", p3, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		t.Fatalf("%d dump files, want 2", len(ents))
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := New(Options{Ring: 128, Sample: 2})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.StartSampled("case", "x").End()
				r.Start("shard", "y").SetParent(1).End()
			}
		}()
	}
	wg.Wait()
	stats := r.PhaseStats()
	if stats["shard"].Count != 1600 {
		t.Fatalf("shard count %d, want 1600", stats["shard"].Count)
	}
	if stats["case"].Count != 800 {
		t.Fatalf("case count %d, want 800 (1-in-2 of 1600)", stats["case"].Count)
	}
}

func TestDurationsAreMeasured(t *testing.T) {
	r := New(Options{})
	s := r.Start("mut", "slow")
	time.Sleep(2 * time.Millisecond)
	s.End()
	rec := r.Last(1)[0]
	if rec.Dur < int64(time.Millisecond) {
		t.Fatalf("duration %dns, want >= 1ms", rec.Dur)
	}
	if rec.Start == 0 {
		t.Fatal("start timestamp missing")
	}
}
