package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"ballista/internal/chaos"
	"ballista/internal/core"
	"ballista/internal/store"
	"ballista/internal/telemetry/span"
)

// latencyBuckets are the case-latency histogram upper bounds, in
// seconds.  Simulated cases run in microseconds; the top buckets exist
// for heavily loaded or instrumented runs.
var latencyBuckets = []float64{
	1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 1e-1,
}

// Histogram is a fixed-bucket cumulative histogram.
type Histogram struct {
	buckets []float64 // upper bounds
	counts  []uint64  // one per bucket, plus +Inf at the end
	sum     float64
	total   uint64
}

// NewHistogram creates a histogram with the given upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{buckets: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.buckets, v)
	h.counts[i]++
	h.sum += v
	h.total++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total }

// Metrics is a core.Observer that aggregates campaign telemetry into a
// small in-memory registry and renders it in Prometheus text format.
// One Metrics instance may observe many concurrent runners.
type Metrics struct {
	mu sync.Mutex

	casesByClass map[string]uint64    // class -> count
	casesByGroup map[[2]string]uint64 // {group, class} -> count
	casesByOS    map[string]uint64    // os -> count
	mutsStarted  uint64
	reboots      uint64
	campaigns    uint64
	latency      *Histogram
	simTicks     uint64

	// Last-seen kernel health gauges, keyed by OS wire name so variants
	// under concurrent test do not clobber each other.
	kernel map[string]core.KernelSample

	// Farm attribution: per-worker shard/case/reboot counters, keyed by
	// worker label ("0", "1", ...).
	farmShards  map[string]uint64
	farmCases   map[string]uint64
	farmReboots map[string]uint64

	// Sequence-fuzzer counters: candidate chains evaluated, chains that
	// reached a novel kernel-state fingerprint (the coverage frontier),
	// differential-oracle divergences, machine-crashing chains, and the
	// latest corpus-size gauge.
	exploreChains       uint64
	exploreNovel        uint64
	exploreDivergent    uint64
	exploreCatastrophic uint64
	exploreCorpusSize   int

	// Crash-consistency oracle counters: workloads swept, crash points
	// and legal post-crash states enumerated, invariant violations, and
	// the workloads that diverged across profiles or violated an
	// invariant anywhere.
	crashWorkloads   uint64
	crashPoints      uint64
	crashStates      uint64
	crashViolations  uint64
	crashDivergent   uint64
	crashViolatingWl uint64

	// Resource-scarcity oracle counters: (MuT, environment) items swept,
	// probes run, machines crashed under scarcity, error-path leaks,
	// ungraceful degradations, and the items that diverged across
	// profiles or violated any scarce oracle.
	scarceItems      uint64
	scarceProbes     uint64
	scarceCrashed    uint64
	scarceLeaked     uint64
	scarceUngraceful uint64
	scarceDivergent  uint64
	scarceViolating  uint64

	// Fleet control-plane counters: lease lifecycle, idempotent-upload
	// dedup hits, worker liveness and transport byte totals.
	fleetLeasesGranted uint64
	fleetLeasesExpired uint64
	fleetLeasesStolen  uint64
	fleetUploads       uint64
	fleetUploadDedup   uint64
	fleetWorkersLive   int
	fleetBytesIn       uint64
	fleetBytesOut      uint64

	// HTTP middleware counters: {method, path, status} -> count.
	httpRequests map[[3]string]uint64
	httpLatency  *Histogram
	httpInFlight int64

	// chaosStats, when set, is snapshotted into ballista_chaos_* series
	// at scrape time (the chaos layer owns the live counters).
	chaosStats *chaos.Stats

	// spans, when set, is snapshotted into ballista_span_* series at
	// scrape time (the flight recorder owns the live histograms).
	spans *span.Recorder

	// store, when set, is snapshotted into ballista_store_* series at
	// scrape time (the result cache owns the live counters).
	store *store.Store

	// queueStats, when set, is called at scrape time to render the
	// ballista_queue_* series (the campaign queue owns the live state; a
	// closure avoids a telemetry→service dependency).
	queueStats func() QueueStats
}

// QueueStats is a point-in-time snapshot of the campaign queue,
// rendered into the ballista_queue_* series.
type QueueStats struct {
	Queued    int
	Running   int
	Submitted uint64
	Rejected  uint64
	Done      uint64
	Failed    uint64
	Canceled  uint64
}

// NewMetrics creates an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		casesByClass: make(map[string]uint64),
		casesByGroup: make(map[[2]string]uint64),
		casesByOS:    make(map[string]uint64),
		kernel:       make(map[string]core.KernelSample),
		farmShards:   make(map[string]uint64),
		farmCases:    make(map[string]uint64),
		farmReboots:  make(map[string]uint64),
		httpRequests: make(map[[3]string]uint64),
		latency:      NewHistogram(latencyBuckets),
		httpLatency:  NewHistogram([]float64{1e-4, 1e-3, 1e-2, 1e-1, 1, 10, 60}),
	}
}

// Observe implements core.Observer, folding every engine's events into
// its counters: cases, MuT starts, reboots and campaigns from the
// runner; per-worker shard attribution from farms (the way the paper
// tracked its six physical test machines separately); the coverage
// frontier and oracle findings from the sequence fuzzer; each crash
// workload's enumeration and verdict; each scarcity item's verdicts;
// and the fleet coordinator's control plane.
func (m *Metrics) Observe(ev core.Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch ev := ev.(type) {
	case *core.MuTStartEvent:
		m.mutsStarted++
	case *core.CaseEvent:
		cls := ev.Class.String()
		m.casesByClass[cls]++
		m.casesByGroup[[2]string{ev.Group, cls}]++
		m.casesByOS[ev.OS]++
		m.latency.Observe(ev.Wall.Seconds())
		m.simTicks += ev.SimTicks
		m.kernel[ev.OS] = ev.Kernel
	case *core.RebootEvent:
		m.reboots++
	case *core.CampaignEvent:
		m.campaigns++
	case *core.ShardEvent:
		w := strconv.Itoa(ev.Worker)
		m.farmShards[w]++
		m.farmCases[w] += uint64(ev.Cases)
		m.farmReboots[w] += uint64(ev.Reboots)
	case *core.ChainEvent:
		m.exploreChains++
		m.exploreNovel += b2u(ev.Novel)
		m.exploreDivergent += b2u(ev.Divergent)
		m.exploreCatastrophic += b2u(ev.Catastrophic)
		m.exploreCorpusSize = ev.CorpusSize
	case *core.CrashEvent:
		m.crashWorkloads++
		m.crashPoints += uint64(ev.CrashPoints)
		m.crashStates += uint64(ev.States)
		m.crashViolations += uint64(ev.Violations)
		m.crashDivergent += b2u(ev.Divergent)
		m.crashViolatingWl += b2u(ev.Violating)
	case *core.ScarceEvent:
		m.scarceItems++
		m.scarceProbes += uint64(len(ev.OSes))
		m.scarceCrashed += uint64(ev.Crashed)
		m.scarceLeaked += uint64(ev.Leaked)
		m.scarceUngraceful += uint64(ev.Ungraceful)
		m.scarceDivergent += b2u(ev.Divergent)
		m.scarceViolating += b2u(ev.Violating)
	case *core.FleetEvent:
		switch ev.Kind {
		case "rpc":
			// High-volume transport accounting; liveness comes from the
			// control events, which all carry the gauge.
			m.fleetBytesIn += uint64(ev.BytesIn)
			m.fleetBytesOut += uint64(ev.BytesOut)
			return
		case "lease_granted":
			m.fleetLeasesGranted++
		case "lease_expired":
			m.fleetLeasesExpired++
		case "lease_stolen":
			m.fleetLeasesStolen++
		case "upload":
			m.fleetUploads++
		case "upload_dedup":
			m.fleetUploadDedup++
		}
		m.fleetWorkersLive = ev.Live
	}
}

// b2u counts a flag.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// ScarceItemCount returns the total scarcity-sweep items observed.
func (m *Metrics) ScarceItemCount() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.scarceItems
}

// CrashWorkloadCount returns the total crash-sweep workloads observed.
func (m *Metrics) CrashWorkloadCount() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.crashWorkloads
}

// FleetLeaseCount returns the total leases granted.
func (m *Metrics) FleetLeaseCount() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.fleetLeasesGranted
}

// ChainCount returns the total candidate chains observed.
func (m *Metrics) ChainCount() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.exploreChains
}

// ShardCount returns the shards completed by one worker label.
func (m *Metrics) ShardCount(worker string) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.farmShards[worker]
}

// CaseCount returns the total observed cases for one CRASH class name.
func (m *Metrics) CaseCount(class string) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.casesByClass[class]
}

// SetChaosStats attaches a chaos-injection counter set; its snapshot is
// rendered into the ballista_chaos_* series on every scrape.
func (m *Metrics) SetChaosStats(s *chaos.Stats) {
	m.mu.Lock()
	m.chaosStats = s
	m.mu.Unlock()
}

// SetSpanRecorder attaches a flight recorder; its per-phase latency
// summaries are rendered into the ballista_span_* series on every
// scrape.
func (m *Metrics) SetSpanRecorder(r *span.Recorder) {
	m.mu.Lock()
	m.spans = r
	m.mu.Unlock()
}

// SetStore attaches the content-addressed result cache; its hit/miss
// counters are rendered into the ballista_store_* series on every
// scrape.
func (m *Metrics) SetStore(s *store.Store) {
	m.mu.Lock()
	m.store = s
	m.mu.Unlock()
}

// SetQueueStats attaches a campaign-queue snapshot source; it is called
// on every scrape to render the ballista_queue_* series.
func (m *Metrics) SetQueueStats(fn func() QueueStats) {
	m.mu.Lock()
	m.queueStats = fn
	m.mu.Unlock()
}

// ObserveHTTP records one served request (used by the service
// middleware).
func (m *Metrics) ObserveHTTP(method, path string, status int, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.httpRequests[[3]string{method, path, fmt.Sprintf("%d", status)}]++
	m.httpLatency.Observe(d.Seconds())
}

// HTTPRequestCount returns the total number of requests observed across
// every method/path/status combination.
func (m *Metrics) HTTPRequestCount() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var total uint64
	for _, n := range m.httpRequests {
		total += n
	}
	return total
}

// AddInFlight adjusts the in-flight request gauge by delta.
func (m *Metrics) AddInFlight(delta int64) {
	m.mu.Lock()
	m.httpInFlight += delta
	m.mu.Unlock()
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4), with stable ordering for testability.
func (m *Metrics) WritePrometheus(w io.Writer) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintf(w, "# HELP ballista_cases_total Test cases executed, by CRASH class.\n")
	fmt.Fprintf(w, "# TYPE ballista_cases_total counter\n")
	for _, cls := range sortedKeys(m.casesByClass) {
		fmt.Fprintf(w, "ballista_cases_total{class=%q} %d\n", cls, m.casesByClass[cls])
	}

	fmt.Fprintf(w, "# HELP ballista_group_cases_total Test cases by catalog group and CRASH class.\n")
	fmt.Fprintf(w, "# TYPE ballista_group_cases_total counter\n")
	groupKeys := make([][2]string, 0, len(m.casesByGroup))
	for k := range m.casesByGroup {
		groupKeys = append(groupKeys, k)
	}
	sort.Slice(groupKeys, func(i, j int) bool {
		if groupKeys[i][0] != groupKeys[j][0] {
			return groupKeys[i][0] < groupKeys[j][0]
		}
		return groupKeys[i][1] < groupKeys[j][1]
	})
	for _, k := range groupKeys {
		fmt.Fprintf(w, "ballista_group_cases_total{group=%q,class=%q} %d\n", k[0], k[1], m.casesByGroup[k])
	}

	fmt.Fprintf(w, "# HELP ballista_os_cases_total Test cases executed per OS variant.\n")
	fmt.Fprintf(w, "# TYPE ballista_os_cases_total counter\n")
	for _, o := range sortedKeys(m.casesByOS) {
		fmt.Fprintf(w, "ballista_os_cases_total{os=%q} %d\n", o, m.casesByOS[o])
	}

	fmt.Fprintf(w, "# HELP ballista_muts_started_total MuT campaigns begun.\n")
	fmt.Fprintf(w, "# TYPE ballista_muts_started_total counter\n")
	fmt.Fprintf(w, "ballista_muts_started_total %d\n", m.mutsStarted)

	fmt.Fprintf(w, "# HELP ballista_reboots_total Machine reboots forced by Catastrophic failures.\n")
	fmt.Fprintf(w, "# TYPE ballista_reboots_total counter\n")
	fmt.Fprintf(w, "ballista_reboots_total %d\n", m.reboots)

	fmt.Fprintf(w, "# HELP ballista_campaigns_total Completed full-OS campaigns.\n")
	fmt.Fprintf(w, "# TYPE ballista_campaigns_total counter\n")
	fmt.Fprintf(w, "ballista_campaigns_total %d\n", m.campaigns)

	fmt.Fprintf(w, "# HELP ballista_sim_ticks_total Simulated clock ticks consumed by cases.\n")
	fmt.Fprintf(w, "# TYPE ballista_sim_ticks_total counter\n")
	fmt.Fprintf(w, "ballista_sim_ticks_total %d\n", m.simTicks)

	writeHistogram(w, "ballista_case_duration_seconds", "Wall-clock duration of one test case.", m.latency)

	// Kernel health gauges, as sampled after the most recent case.
	for _, name := range []struct{ metric, help string }{
		{"ballista_kernel_corruption_level", "Accumulated kernel-heap corruption after the latest case."},
		{"ballista_kernel_epoch", "Machine reboot epoch."},
		{"ballista_kernel_live_handles", "Live kernel handle-table entries."},
		{"ballista_kernel_mapped_pages", "Live mapped pages across all address spaces."},
		{"ballista_kernel_probe_faults_total", "Failed syscall-boundary pointer probes."},
		{"ballista_kernel_heap_blocks", "Live heap blocks across all address spaces."},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n", name.metric, name.help)
		kind := "gauge"
		if name.metric == "ballista_kernel_probe_faults_total" {
			kind = "counter"
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", name.metric, kind)
		for _, o := range sortedSampleKeys(m.kernel) {
			ks := m.kernel[o]
			var v uint64
			switch name.metric {
			case "ballista_kernel_corruption_level":
				v = uint64(ks.Corruption)
			case "ballista_kernel_epoch":
				v = uint64(ks.Epoch)
			case "ballista_kernel_live_handles":
				v = ks.LiveHandles
			case "ballista_kernel_mapped_pages":
				v = ks.MappedPages
			case "ballista_kernel_probe_faults_total":
				v = ks.ProbeFaults
			case "ballista_kernel_heap_blocks":
				v = ks.HeapBlocks
			}
			fmt.Fprintf(w, "%s{os=%q} %d\n", name.metric, o, v)
		}
	}

	// Farm worker attribution series.
	for _, series := range []struct {
		metric, help string
		counts       map[string]uint64
	}{
		{"ballista_farm_worker_shards_total", "MuT shards completed, per farm worker.", m.farmShards},
		{"ballista_farm_worker_cases_total", "Test cases executed, per farm worker.", m.farmCases},
		{"ballista_farm_worker_reboots_total", "Machine reboots forced, per farm worker.", m.farmReboots},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n", series.metric, series.help)
		fmt.Fprintf(w, "# TYPE %s counter\n", series.metric)
		for _, wk := range sortedKeys(series.counts) {
			fmt.Fprintf(w, "%s{worker=%q} %d\n", series.metric, wk, series.counts[wk])
		}
	}

	// Sequence-fuzzer series.
	for _, series := range []struct {
		metric, help string
		v            uint64
	}{
		{"ballista_explore_chains_total", "Candidate call chains evaluated by the sequence fuzzer.", m.exploreChains},
		{"ballista_explore_novel_total", "Chains that reached a novel kernel-state fingerprint.", m.exploreNovel},
		{"ballista_explore_divergent_total", "Chains whose final call classified differently across OSes.", m.exploreDivergent},
		{"ballista_explore_catastrophic_total", "Chains that crashed at least one simulated machine.", m.exploreCatastrophic},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n", series.metric, series.help)
		fmt.Fprintf(w, "# TYPE %s counter\n", series.metric)
		fmt.Fprintf(w, "%s %d\n", series.metric, series.v)
	}
	fmt.Fprintf(w, "# HELP ballista_explore_corpus_size Coverage-corpus size (frontier) of the latest fuzzing campaign.\n")
	fmt.Fprintf(w, "# TYPE ballista_explore_corpus_size gauge\n")
	fmt.Fprintf(w, "ballista_explore_corpus_size %d\n", m.exploreCorpusSize)

	// Crash-consistency oracle series.
	for _, series := range []struct {
		metric, help string
		v            uint64
	}{
		{"ballista_crash_workloads_total", "Bounded workloads evaluated by the crash-consistency oracle.", m.crashWorkloads},
		{"ballista_crash_points_total", "Crash points (op boundaries) examined across all workloads.", m.crashPoints},
		{"ballista_crash_states_total", "Legal post-crash states enumerated across all crash points.", m.crashStates},
		{"ballista_crash_violations_total", "Crash states that violated a durability invariant.", m.crashViolations},
		{"ballista_crash_divergent_total", "Workloads whose crash behavior diverged across OS profiles.", m.crashDivergent},
		{"ballista_crash_violating_workloads_total", "Workloads with at least one invariant-violating crash state.", m.crashViolatingWl},
		{"ballista_scarce_items_total", "(MuT, environment) items evaluated by the resource-scarcity oracle.", m.scarceItems},
		{"ballista_scarce_probes_total", "Per-OS probes run inside depleted-resource environments.", m.scarceProbes},
		{"ballista_scarce_crashed_total", "Probes whose simulated machine crashed under scarcity.", m.scarceCrashed},
		{"ballista_scarce_leaked_total", "Probes that leaked resources on an error path.", m.scarceLeaked},
		{"ballista_scarce_ungraceful_total", "Probes that degraded ungracefully (wrong code or silent lie).", m.scarceUngraceful},
		{"ballista_scarce_divergent_total", "Items whose scarcity verdicts diverged across OS profiles.", m.scarceDivergent},
		{"ballista_scarce_violating_total", "Items with at least one scarce-oracle violation.", m.scarceViolating},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n", series.metric, series.help)
		fmt.Fprintf(w, "# TYPE %s counter\n", series.metric)
		fmt.Fprintf(w, "%s %d\n", series.metric, series.v)
	}

	// Fleet coordinator series.
	for _, series := range []struct {
		metric, help string
		v            uint64
	}{
		{"ballista_fleet_leases_granted_total", "Shard/batch leases granted to fleet workers.", m.fleetLeasesGranted},
		{"ballista_fleet_leases_expired_total", "Leases that expired without an upload (worker lost or stalled).", m.fleetLeasesExpired},
		{"ballista_fleet_leases_stolen_total", "Leases re-dispatched to another worker after expiry.", m.fleetLeasesStolen},
		{"ballista_fleet_uploads_total", "Result uploads accepted by the coordinator.", m.fleetUploads},
		{"ballista_fleet_upload_dedup_total", "Duplicate uploads absorbed by content-hash idempotency.", m.fleetUploadDedup},
		{"ballista_fleet_bytes_in_total", "Request-body bytes received by the coordinator.", m.fleetBytesIn},
		{"ballista_fleet_bytes_out_total", "Response-body bytes sent by the coordinator.", m.fleetBytesOut},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n", series.metric, series.help)
		fmt.Fprintf(w, "# TYPE %s counter\n", series.metric)
		fmt.Fprintf(w, "%s %d\n", series.metric, series.v)
	}
	fmt.Fprintf(w, "# HELP ballista_fleet_workers_live Fleet workers seen within the liveness window.\n")
	fmt.Fprintf(w, "# TYPE ballista_fleet_workers_live gauge\n")
	fmt.Fprintf(w, "ballista_fleet_workers_live %d\n", m.fleetWorkersLive)

	// Result-store series (only when a content-addressed cache is attached).
	if m.store != nil {
		snap := m.store.Snapshot()
		for _, series := range []struct {
			metric, help string
			v            uint64
		}{
			{"ballista_store_hits_total", "Shards served from the content-addressed result cache.", snap.Hits},
			{"ballista_store_misses_total", "Shard lookups the result cache could not serve.", snap.Misses},
			{"ballista_store_puts_total", "Shards written into the result cache.", snap.Puts},
			{"ballista_store_evictions_total", "Entries evicted from the result cache by the LRU bound.", snap.Evictions},
		} {
			fmt.Fprintf(w, "# HELP %s %s\n", series.metric, series.help)
			fmt.Fprintf(w, "# TYPE %s counter\n", series.metric)
			fmt.Fprintf(w, "%s %d\n", series.metric, series.v)
		}
		fmt.Fprintf(w, "# HELP ballista_store_entries Entries resident in the result cache.\n")
		fmt.Fprintf(w, "# TYPE ballista_store_entries gauge\n")
		fmt.Fprintf(w, "ballista_store_entries %d\n", snap.Entries)
	}

	// Campaign-queue series (only when the multi-tenant queue is attached).
	if m.queueStats != nil {
		qs := m.queueStats()
		for _, series := range []struct {
			metric, help string
			v            uint64
		}{
			{"ballista_queue_submitted_total", "Campaigns accepted into the queue.", qs.Submitted},
			{"ballista_queue_rejected_total", "Campaign submissions rejected (quota or validation).", qs.Rejected},
		} {
			fmt.Fprintf(w, "# HELP %s %s\n", series.metric, series.help)
			fmt.Fprintf(w, "# TYPE %s counter\n", series.metric)
			fmt.Fprintf(w, "%s %d\n", series.metric, series.v)
		}
		fmt.Fprintf(w, "# HELP ballista_queue_completed_total Campaigns that reached a terminal state, by state.\n")
		fmt.Fprintf(w, "# TYPE ballista_queue_completed_total counter\n")
		fmt.Fprintf(w, "ballista_queue_completed_total{state=\"done\"} %d\n", qs.Done)
		fmt.Fprintf(w, "ballista_queue_completed_total{state=\"failed\"} %d\n", qs.Failed)
		fmt.Fprintf(w, "ballista_queue_completed_total{state=\"canceled\"} %d\n", qs.Canceled)
		fmt.Fprintf(w, "# HELP ballista_queue_depth Campaigns waiting in the queue.\n")
		fmt.Fprintf(w, "# TYPE ballista_queue_depth gauge\n")
		fmt.Fprintf(w, "ballista_queue_depth %d\n", qs.Queued)
		fmt.Fprintf(w, "# HELP ballista_queue_running Campaigns currently executing.\n")
		fmt.Fprintf(w, "# TYPE ballista_queue_running gauge\n")
		fmt.Fprintf(w, "ballista_queue_running %d\n", qs.Running)
	}

	// Chaos-injection series (only when a campaign carries a fault plan).
	if m.chaosStats != nil {
		snap := m.chaosStats.Snapshot()
		fmt.Fprintf(w, "# HELP ballista_chaos_injected_total Faults injected by the chaos plan, by operation.\n")
		fmt.Fprintf(w, "# TYPE ballista_chaos_injected_total counter\n")
		ops := make([]string, 0, len(snap.Injected))
		for op := range snap.Injected {
			ops = append(ops, string(op))
		}
		sort.Strings(ops)
		for _, op := range ops {
			fmt.Fprintf(w, "ballista_chaos_injected_total{op=%q} %d\n", op, snap.Injected[chaos.Op(op)])
		}
		for _, series := range []struct {
			metric, help string
			v            uint64
		}{
			{"ballista_chaos_retried_total", "Harness writes retried after an injected or real fault.", snap.Retried},
			{"ballista_chaos_quarantined_total", "Shards quarantined after a harness fault (worker panic).", snap.Quarantined},
			{"ballista_chaos_wedged_total", "Calls wedged by the chaos plan and reaped by the watchdog.", snap.Wedged},
		} {
			fmt.Fprintf(w, "# HELP %s %s\n", series.metric, series.help)
			fmt.Fprintf(w, "# TYPE %s counter\n", series.metric)
			fmt.Fprintf(w, "%s %d\n", series.metric, series.v)
		}
	}

	// Flight-recorder series (only when a span recorder is attached).
	if m.spans != nil {
		stats := m.spans.PhaseStats()
		phases := make([]string, 0, len(stats))
		for p := range stats {
			phases = append(phases, p)
		}
		sort.Strings(phases)
		fmt.Fprintf(w, "# HELP ballista_spans_total Flight-recorder spans completed, by phase.\n")
		fmt.Fprintf(w, "# TYPE ballista_spans_total counter\n")
		for _, p := range phases {
			fmt.Fprintf(w, "ballista_spans_total{phase=%q} %d\n", p, stats[p].Count)
		}
		fmt.Fprintf(w, "# HELP ballista_span_duration_seconds Wall-clock duration of one span, by phase.\n")
		fmt.Fprintf(w, "# TYPE ballista_span_duration_seconds histogram\n")
		for _, p := range phases {
			st := stats[p]
			cum := uint64(0)
			for i, ub := range span.Buckets {
				cum += st.Buckets[i]
				fmt.Fprintf(w, "ballista_span_duration_seconds_bucket{phase=%q,le=%q} %d\n", p, formatFloat(ub), cum)
			}
			cum += st.Buckets[len(span.Buckets)]
			fmt.Fprintf(w, "ballista_span_duration_seconds_bucket{phase=%q,le=\"+Inf\"} %d\n", p, cum)
			fmt.Fprintf(w, "ballista_span_duration_seconds_sum{phase=%q} %g\n", p, st.Sum)
			fmt.Fprintf(w, "ballista_span_duration_seconds_count{phase=%q} %d\n", p, st.Count)
		}
	}

	// HTTP middleware series.
	fmt.Fprintf(w, "# HELP ballista_http_requests_total Requests served, by method, path and status.\n")
	fmt.Fprintf(w, "# TYPE ballista_http_requests_total counter\n")
	reqKeys := make([][3]string, 0, len(m.httpRequests))
	for k := range m.httpRequests {
		reqKeys = append(reqKeys, k)
	}
	sort.Slice(reqKeys, func(i, j int) bool {
		a, b := reqKeys[i], reqKeys[j]
		if a[1] != b[1] {
			return a[1] < b[1]
		}
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		return a[2] < b[2]
	})
	for _, k := range reqKeys {
		fmt.Fprintf(w, "ballista_http_requests_total{method=%q,path=%q,status=%q} %d\n",
			k[0], k[1], k[2], m.httpRequests[k])
	}
	fmt.Fprintf(w, "# HELP ballista_http_in_flight_requests Requests currently being served.\n")
	fmt.Fprintf(w, "# TYPE ballista_http_in_flight_requests gauge\n")
	fmt.Fprintf(w, "ballista_http_in_flight_requests %d\n", m.httpInFlight)
	writeHistogram(w, "ballista_http_request_duration_seconds", "Wall-clock duration of one HTTP request.", m.httpLatency)
}

// Handler serves the registry at an endpoint (GET /metrics).
func (m *Metrics) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		m.WritePrometheus(w)
	})
}

func writeHistogram(w io.Writer, name, help string, h *Histogram) {
	fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	cum := uint64(0)
	for i, ub := range h.buckets {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatFloat(ub), cum)
	}
	cum += h.counts[len(h.buckets)]
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", name, h.sum)
	fmt.Fprintf(w, "%s_count %d\n", name, h.total)
}

func formatFloat(f float64) string { return fmt.Sprintf("%g", f) }

func sortedKeys(m map[string]uint64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedSampleKeys(m map[string]core.KernelSample) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
