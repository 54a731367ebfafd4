package telemetry

import (
	"io"
	"sync"
	"testing"
	"time"

	"ballista/internal/core"
)

// hammerObserver drives one observer from many goroutines the way a
// farm campaign does: every worker delivers case, shard, reboot and
// campaign events — and the sweeps' crash and scarce events —
// concurrently while readers poll the aggregates.  Run
// with -race (CI does) this is the concurrent-safety audit for the
// telemetry registry.
func hammerObserver(t *testing.T, obs core.Observer, read func()) {
	t.Helper()
	const workers = 8
	const eventsPerWorker = 200

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < eventsPerWorker; i++ {
				obs.Observe(&core.MuTStartEvent{OS: "winnt", MuT: "ReadFile"})
				obs.Observe(&core.CaseEvent{
					OS: "winnt", MuT: "ReadFile", Group: "File I/O",
					Case: core.Case{0, 1}, Seq: i,
					Class: core.RawClass(i % 6), Wall: time.Microsecond,
				})
				if i%10 == 0 {
					obs.Observe(&core.RebootEvent{OS: "winnt", Epoch: i / 10})
				}
				obs.Observe(&core.ShardEvent{
					OS: "winnt", Worker: w, Shard: i, MuT: "ReadFile",
					Cases: 10,
				})
				if i%20 == 0 {
					obs.Observe(&core.CrashEvent{Seq: i, Workload: "create(f0)", OSes: []string{"winnt"}, CrashPoints: 1})
					obs.Observe(&core.ScarceEvent{Seq: i, MuT: "ReadFile", Env: "handle-starved", OSes: []string{"winnt"}})
				}
			}
			obs.Observe(&core.CampaignEvent{OS: "winnt", MuTs: 1, CasesRun: eventsPerWorker})
		}(w)
	}

	// Concurrent readers race the writers on purpose.
	done := make(chan struct{})
	var readerWg sync.WaitGroup
	readerWg.Add(1)
	go func() {
		defer readerWg.Done()
		for {
			select {
			case <-done:
				return
			default:
				read()
			}
		}
	}()

	wg.Wait()
	close(done)
	readerWg.Wait()
	read()
}

func TestMetricsConcurrentObservers(t *testing.T) {
	m := NewMetrics()
	hammerObserver(t, m, func() {
		m.WritePrometheus(io.Discard)
		_ = m.CaseCount("clean")
		_ = m.ShardCount("0")
		_ = m.HTTPRequestCount()
	})
	var total uint64
	for _, cls := range []string{"clean", "error-return", "abort", "restart", "catastrophic", "skip"} {
		total += m.CaseCount(cls)
	}
	if want := uint64(8 * 200); total != want {
		t.Errorf("counted %d cases across classes, want %d", total, want)
	}
	var shards uint64
	for _, w := range []string{"0", "1", "2", "3", "4", "5", "6", "7"} {
		shards += m.ShardCount(w)
	}
	if want := uint64(8 * 200); shards != want {
		t.Errorf("counted %d shards across workers, want %d", shards, want)
	}
	if got, want := m.CrashWorkloadCount(), uint64(8*10); got != want {
		t.Errorf("counted %d crash workloads, want %d", got, want)
	}
	if got, want := m.ScarceItemCount(), uint64(8*10); got != want {
		t.Errorf("counted %d scarce items, want %d", got, want)
	}
}

func TestMetricsConcurrentHTTP(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				m.AddInFlight(1)
				m.ObserveHTTP("POST", "/api/campaign", 200, time.Millisecond)
				m.AddInFlight(-1)
			}
		}()
	}
	wg.Wait()
	if got := m.HTTPRequestCount(); got != 8*500 {
		t.Errorf("HTTPRequestCount = %d, want %d", got, 8*500)
	}
}

func TestRingConcurrentObservers(t *testing.T) {
	rg := NewRing(64)
	hammerObserver(t, rg, func() {
		_ = rg.Last(16)
		_ = rg.Seen()
	})
	if rg.Seen() == 0 {
		t.Error("ring saw nothing")
	}
	if got := len(rg.Last(0)); got != 64 {
		t.Errorf("full ring retains %d records, want 64", got)
	}
}

func TestTraceWriterConcurrentObservers(t *testing.T) {
	tw := NewTraceWriter(io.Discard)
	hammerObserver(t, tw, func() {
		_ = tw.Records()
		_ = tw.Err()
	})
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if tw.Records() == 0 {
		t.Error("trace writer wrote nothing")
	}
}

func TestMultiConcurrentFanout(t *testing.T) {
	m := NewMetrics()
	rg := NewRing(32)
	tw := NewTraceWriter(io.Discard)
	multi := Multi(m, rg, tw)
	hammerObserver(t, multi, func() {
		m.WritePrometheus(io.Discard)
		_ = rg.Last(8)
	})
	// Multi must forward every event kind to every member.
	if m.ShardCount("0") == 0 {
		t.Error("Multi dropped shard events to Metrics")
	}
	if m.CrashWorkloadCount() == 0 || m.ScarceItemCount() == 0 {
		t.Error("Multi dropped sweep events to Metrics")
	}
}

// TestRingConcurrentCampaignAndExplore hammers one ring (and the
// metrics registry behind the same Multi fan-out) from campaign-shaped
// writers and explore-shaped writers at once — the ballistad steady
// state when a farm campaign and a fuzzing run share the server's
// telemetry.  Run with -race this audits the chain path against
// every other event kind, which the farm-only hammer never covers.
func TestRingConcurrentCampaignAndExplore(t *testing.T) {
	m := NewMetrics()
	rg := NewRing(64)
	multi := Multi(m, rg)

	const chainWriters = 4
	const chainsPerWriter = 300
	var wg sync.WaitGroup
	for w := 0; w < chainWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < chainsPerWriter; i++ {
				multi.Observe(&core.ChainEvent{
					OS: "win98", Seq: i,
					Classes:      map[string][]core.RawClass{"win98": {core.RawClean}},
					Novel:        i%3 == 0,
					Divergent:    i%7 == 0,
					Catastrophic: i%50 == 0,
					CorpusSize:   i,
				})
			}
		}(w)
	}
	// Campaign-shaped traffic (cases, shards, reboots) races the chain
	// writers on the same observers; readers race both.
	hammerObserver(t, multi, func() {
		_ = rg.Last(16)
		_ = rg.Seen()
		m.WritePrometheus(io.Discard)
	})
	wg.Wait()

	if got := m.ChainCount(); got != chainWriters*chainsPerWriter {
		t.Errorf("ChainCount = %d, want %d", got, chainWriters*chainsPerWriter)
	}
	if rg.Seen() == 0 {
		t.Error("ring saw nothing")
	}
}
