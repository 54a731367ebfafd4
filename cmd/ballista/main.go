// Command ballista runs robustness-testing campaigns against the
// simulated operating systems.
//
//	ballista -os win98                 # full campaign on one OS
//	ballista -os linux -mut read      # one Module under Test
//	ballista -os wince -cap 1000 -v   # verbose per-class counts
//	ballista -os win98 -isolated      # fresh machine per test case
//	ballista -os win98 -trace t.jsonl # per-case JSONL trace artifact
//	ballista -os win98 -spans s.jsonl -flight-dir dumps/  # flight recorder
//	ballista -os win98 -metrics-addr :9090   # live Prometheus /metrics
//	ballista -os win98 -pprof-addr localhost:6060  # live pprof profiling
//	ballista -os winnt -workers 8     # sharded parallel campaign farm
//	ballista -os winnt -workers 8 -checkpoint nt.ckpt  # resumable
//	ballista -explore -chains 2000 -seed 7             # sequence fuzzer
//	ballista -explore -diff-os linux,win98,winnt -repro-dir findings/
//	ballista -crashcheck -seed 7                       # crash-consistency oracle
//	ballista -crashcheck -workers 8 -crash-out crash.json -repro-dir findings/
//	ballista -scarce -seed 7                           # resource-scarcity oracle
//	ballista -scarce -scarce-env fd-full,thrashing -scarce-csv scarce.csv
//	ballista -os winnt -chaos-seed 42                  # seeded fault sweep
//	ballista -os winnt -chaos-seed 42 -chaos-preset disk -csv report.csv
//	ballista -os winnt -chaos-plan faults.json -case-deadline 100ms
//	ballista -os winnt -store results.seg              # content-addressed cache
//
// A full campaign with -workers > 1 shards the MuT catalog across a
// farm of simulated machines (one kernel per worker) and merges the
// results deterministically — identical output to a sequential run.
// With -checkpoint, completed MuT shards are journaled, 64 to a commit;
// killing the campaign (Ctrl-C commits what finished) and re-running
// with the same -checkpoint resumes without re-testing committed shards.
// A kill -9 loses at most the 64 shards not yet committed.
//
// -explore runs the coverage-guided sequence fuzzer: call chains of
// length 2-8 mutated under kernel-state-coverage feedback, every
// candidate judged by the cross-OS differential oracle.  The campaign is
// deterministic for a given -seed regardless of -workers; -checkpoint
// journals every candidate so a killed run resumes exactly; -repro-dir
// writes the minimized findings as self-contained JSON reproducers.
//
// -crashcheck runs the crash-consistency differential oracle: the
// bounded B3-style workload set (chains of create/write/fsync/rename/
// link/remove) is executed against the persistence model of each OS
// profile, every crash point's legal post-crash states are enumerated
// under that profile's durability policy (FAT's torn renames, ext2's
// data-only fsync, NTFS's metadata journal, CE's transactional store),
// and an invariant checker's verdicts are compared across profiles.
// The sweep is deterministic for a given -seed regardless of -workers;
// -checkpoint journals per-workload results for kill+resume; -crash-out
// writes the report as a diffable JSON artifact.
//
// -scarce runs the resource-scarcity differential oracle: every catalog
// MuT executes its all-valid test case inside depleted-resource
// environments (handle table full, descriptor table saturated, heap
// pages from commit failure, disk out of blocks, no free process slots)
// on every supporting OS profile, and three oracles judge the outcome —
// CRASH severity under scarcity, graceful degradation (documented
// scarcity code vs crash or lie), and error-path resource leaks.  The
// sweep is deterministic for a given -seed regardless of -workers;
// -checkpoint journals per-item results for kill+resume; -scarce-out /
// -scarce-csv write diffable artifacts; -repro-dir writes minimized
// reproducers.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ballista"
	"ballista/internal/catalog"
	"ballista/internal/cliutil"
	"ballista/internal/explore"
	"ballista/internal/fleet"
	"ballista/internal/osprofile"
	"ballista/internal/report"
	"ballista/internal/telemetry"
	"ballista/internal/version"
)

// atExit holds cleanups (trace/span sink flushes) that must run on
// every exit path.  os.Exit skips deferred calls, so the interrupt
// paths that exit with 128+signum would otherwise leave torn JSONL
// tails; exit() drains this registry first.  LIFO, run exactly once.
var (
	atExitMu  sync.Mutex
	atExitFns []func()
	atExitRun sync.Once
)

func atExit(fn func()) {
	atExitMu.Lock()
	atExitFns = append(atExitFns, fn)
	atExitMu.Unlock()
}

func runAtExit() {
	atExitRun.Do(func() {
		atExitMu.Lock()
		fns := atExitFns
		atExitMu.Unlock()
		for i := len(fns) - 1; i >= 0; i-- {
			fns[i]()
		}
	})
}

// exit is os.Exit with the atExit registry drained first.  Every exit
// path in this command goes through it (or returns from main, whose
// deferred runAtExit covers the success path).
func exit(code int) {
	runAtExit()
	os.Exit(code)
}

func main() {
	defer runAtExit()
	osFlag := flag.String("os", "win98", "target OS: linux win95 win98 win98se winnt win2000 wince")
	mutFlag := flag.String("mut", "", "test a single Module under Test by name")
	capFlag := flag.Int("cap", 5000, "test cases per MuT (paper: 5000)")
	isolated := flag.Bool("isolated", false, "fresh machine per test case (single-test reproduction mode)")
	verbose := flag.Bool("v", false, "per-MuT output")
	hinderFlag := flag.Bool("hinder", false, "run the Hindering-failure (wrong error code) oracle")
	traceFlag := flag.String("trace", "", "write a per-case JSONL trace to this file")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus /metrics on this address while the campaign runs")
	workers := flag.Int("workers", 1, "farm worker count for full campaigns (0 = one per CPU)")
	checkpoint := flag.String("checkpoint", "", "journal completed work to this JSONL file and resume from it: farm shards and sweep items 64 to a commit, fleet uploads and explore candidates one at a time")
	exploreFlag := flag.Bool("explore", false, "run the coverage-guided sequence fuzzer with the cross-OS differential oracle")
	chains := flag.Int("chains", 2000, "explore: candidate chain budget")
	seed := flag.Uint64("seed", 1, "explore/crashcheck: campaign seed (same seed = same report)")
	maxLen := flag.Int("maxlen", 8, "explore: maximum chain length (2-8)")
	diffOS := flag.String("diff-os", "", "explore: comma-separated differential-oracle OS set (default: all seven)")
	exploreMuTs := flag.String("explore-muts", "", "explore: comma-separated chain alphabet (default: cross-OS intersection)")
	reproDir := flag.String("repro-dir", "", "explore/crashcheck: write minimized reproducer JSON files to this directory")
	crashFlag := flag.Bool("crashcheck", false, "run the crash-consistency differential oracle over the simulated filesystem")
	crashMaxOps := flag.Int("crash-maxops", 2, "crashcheck: workload chain-length bound (B3's seq bound)")
	crashBudget := flag.Int("crash-budget", 0, "crashcheck: cap the enumerated workload set (0 = exhaustive)")
	crashOS := flag.String("crash-os", "", "crashcheck: comma-separated differential OS set (default: all seven)")
	crashOut := flag.String("crash-out", "", "crashcheck: write the report JSON to this file (a deterministic artifact, diffable across runs)")
	scarceFlag := flag.Bool("scarce", false, "run the resource-scarcity differential oracle (depleted handle/FD/heap/disk/process environments)")
	scarceEnv := flag.String("scarce-env", "", "scarce: environment names or raw axis specs like handles=0,fds=1 (';'-separated; default: the full matrix)")
	scarceOS := flag.String("scarce-os", "", "scarce: comma-separated differential OS set (default: all seven)")
	scarceBudget := flag.Int("scarce-budget", 0, "scarce: cap the MuT union (0 = the full catalog)")
	scarceOut := flag.String("scarce-out", "", "scarce: write the report JSON to this file (a deterministic artifact, diffable across runs)")
	scarceCSV := flag.String("scarce-csv", "", "scarce: write the findings CSV to this file (byte-identical for any -workers)")
	chaosFlags := cliutil.AddChaosFlags(flag.CommandLine)
	fleetFlags := cliutil.AddFleetFlags(flag.CommandLine)
	spanFlags := cliutil.AddSpanFlags(flag.CommandLine)
	storeFlags := cliutil.AddStoreFlags(flag.CommandLine)
	pprofAddr := cliutil.AddPprofFlag(flag.CommandLine)
	serveFleet := flag.String("serve-fleet", "", "coordinate a distributed fleet campaign on this address; workers join with -join")
	joinURL := flag.String("join", "", "join a fleet coordinator at this URL (e.g. http://host:8719) and work its campaign")
	caseDeadline := flag.Duration("case-deadline", 0, "per-case watchdog: a call exceeding this is classified Restart and its machine condemned (required for hang plans)")
	csvFlag := flag.String("csv", "", "write the per-MuT campaign report as CSV to this file (a deterministic artifact, diffable across runs)")
	versionFlag := flag.Bool("version", false, "print the code-version stamp and exit without running a campaign")
	flag.Parse()

	if *versionFlag {
		fmt.Println(version.Stamp())
		return
	}

	target, ok := osprofile.Parse(*osFlag)
	if !ok {
		fmt.Fprintf(os.Stderr, "ballista: unknown OS %q\n", *osFlag)
		exit(2)
	}
	opts := []ballista.Option{ballista.WithCap(*capFlag)}
	if *isolated {
		opts = append(opts, ballista.WithIsolation())
	}

	plan, err := chaosFlags.Plan()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ballista:", err)
		exit(2)
	}
	var chaosStats *ballista.ChaosStats
	if plan != nil {
		chaosStats = ballista.NewChaosStats()
		opts = append(opts, ballista.WithChaos(plan), ballista.WithChaosStats(chaosStats))
	}
	if *caseDeadline > 0 {
		opts = append(opts, ballista.WithCaseDeadline(*caseDeadline))
	}
	if err := cliutil.StartPprof(*pprofAddr); err != nil {
		fmt.Fprintln(os.Stderr, "ballista:", err)
		exit(1)
	}
	spanRec, err := spanFlags.Recorder()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ballista:", err)
		exit(1)
	}
	if spanRec != nil {
		// Registered (not deferred) so the interrupt exit paths flush the
		// JSONL tail too.
		atExit(func() {
			if err := spanRec.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "ballista: closing spans:", err)
			}
		})
		opts = append(opts, ballista.WithSpans(spanRec))
	}
	resultStore, err := storeFlags.Open()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ballista:", err)
		exit(1)
	}
	if resultStore != nil {
		atExit(func() {
			if err := resultStore.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "ballista: closing store:", err)
			}
		})
		opts = append(opts, ballista.WithStore(resultStore))
	}

	var observers []ballista.Observer
	if *traceFlag != "" {
		f, err := os.Create(*traceFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ballista:", err)
			exit(1)
		}
		tw := telemetry.NewTraceWriter(f)
		atExit(func() {
			if err := tw.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "ballista: closing trace:", err)
			}
		})
		observers = append(observers, tw)
	}
	var metrics *telemetry.Metrics
	if *metricsAddr != "" {
		metrics = telemetry.NewMetrics()
		if chaosStats != nil {
			metrics.SetChaosStats(chaosStats)
		}
		if spanRec != nil {
			metrics.SetSpanRecorder(spanRec)
		}
		if resultStore != nil {
			metrics.SetStore(resultStore)
		}
		observers = append(observers, metrics)
		mux := http.NewServeMux()
		mux.Handle("GET /metrics", metrics.Handler())
		go func() {
			if err := http.ListenAndServe(*metricsAddr, mux); err != nil {
				fmt.Fprintln(os.Stderr, "ballista: metrics listener:", err)
			}
		}()
		fmt.Printf("ballista: serving /metrics on %s\n", *metricsAddr)
	}
	observer := telemetry.Multi(observers...)
	opts = append(opts, ballista.WithObserver(observer))

	if *joinURL != "" {
		runJoin(*joinURL, fleetFlags.WorkerName(), *workers, plan, chaosStats, spanRec, resultStore, observer)
		return
	}

	if *serveFleet != "" && !*exploreFlag {
		runServeFleetFarm(fleetServeOpts{
			addr: *serveFleet, target: target, cap: *capFlag,
			caseDeadline: *caseDeadline, checkpoint: *checkpoint,
			plan: plan, chaosStats: chaosStats, observer: observer,
			ttl: fleetFlags.TTL, heartbeat: fleetFlags.Heartbeat,
			csv: *csvFlag, verbose: *verbose, spans: spanRec,
		})
		return
	}

	if *crashFlag {
		runCrashCheck(crashOpts{
			seed: *seed, maxOps: *crashMaxOps, budget: *crashBudget,
			osSet: *crashOS, workers: *workers, checkpoint: *checkpoint,
			reproDir: *reproDir, out: *crashOut, verbose: *verbose,
			observer: observer, spans: spanRec,
		})
		return
	}

	if *scarceFlag {
		runScarceCheck(scarceOpts{
			seed: *seed, budget: *scarceBudget, workers: *workers,
			envSet: *scarceEnv, osSet: *scarceOS, checkpoint: *checkpoint,
			reproDir: *reproDir, out: *scarceOut, csv: *scarceCSV,
			verbose: *verbose, observer: observer, spans: spanRec,
		})
		return
	}

	if *exploreFlag {
		runExplore(target, exploreOpts{
			chains: *chains, seed: *seed, maxLen: *maxLen,
			diffOS: *diffOS, muts: *exploreMuTs,
			workers: *workers, checkpoint: *checkpoint, reproDir: *reproDir,
			verbose: *verbose, observer: observer,
			chaos: plan, chaosStats: chaosStats,
			serveFleet: *serveFleet, fleetTTL: fleetFlags.TTL,
			fleetHeartbeat: fleetFlags.Heartbeat, caseDeadline: *caseDeadline,
			spans: spanRec,
		})
		return
	}

	runner := ballista.NewRunner(target, opts...)

	if *hinderFlag {
		rs, err := ballista.AuditHindering(target)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ballista:", err)
			exit(1)
		}
		bad := 0
		for _, r := range rs {
			mark := "ok"
			if r.Hindering {
				mark = "HINDERING"
				bad++
			}
			fmt.Printf("  %-24s %-40s code=%-4d %s\n", r.Probe.MuT, r.Probe.Desc, r.Code, mark)
		}
		fmt.Printf("%s: %d of %d probes misreport their error code\n", target, bad, len(rs))
		return
	}

	if *mutFlag != "" {
		runSingle(runner, target, *mutFlag)
		return
	}

	// Ctrl-C / SIGTERM stop the campaign identically at the next
	// test-case boundary; with -checkpoint the finished shards are
	// already journaled and a re-run resumes from them.  The exit code
	// is 128+signum (130 SIGINT, 143 SIGTERM) so containerized kills
	// read back conventionally.
	ctx, stop, caught := signalContext()
	defer stop()

	start := time.Now()
	var res *ballista.Result
	// A chaos plan forces the farm path even at -workers 1: substrate
	// fault streams are per machine boot, and only the farm's fresh-
	// machine-per-shard contract keeps a seeded campaign's report
	// independent of the worker count (sequential RunAll shares one
	// machine across MuTs, so its fault stream depends on shard order).
	// A result store forces it for the same fresh-machine reason: store
	// entries are keyed on a shard starting from boot, so only the farm
	// path makes every shard of a campaign cacheable.
	if *workers != 1 || *checkpoint != "" || plan != nil || resultStore != nil {
		fc := ballista.FarmConfig{Workers: *workers, Checkpoint: *checkpoint}
		res, err = ballista.RunFarm(ctx, target, fc, opts...)
	} else {
		res, err = runner.RunAll(ctx)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "ballista: campaign interrupted")
			if *checkpoint != "" {
				fmt.Fprintf(os.Stderr, "ballista: completed shards journaled; re-run with -checkpoint %s to resume\n", *checkpoint)
			}
			exit(signalExitCode(caught))
		}
		fmt.Fprintln(os.Stderr, "ballista:", err)
		exit(1)
	}
	if chaosStats != nil {
		defer printChaosSummary(chaosStats)
	}
	reportCampaign(target, res, time.Since(start), *verbose, *csvFlag)
	if resultStore != nil {
		printStoreSummary(resultStore)
	}
}

// printStoreSummary reports the result store's footprint after a
// campaign (CI greps misses=0 to prove a warm rerun executed nothing).
func printStoreSummary(st *ballista.ResultStore) {
	s := st.Snapshot()
	fmt.Printf("store: hits=%d misses=%d puts=%d evictions=%d entries=%d\n",
		s.Hits, s.Misses, s.Puts, s.Evictions, s.Entries)
}

// reportCampaign prints the campaign summary (and the CSV artifact) —
// shared by the local farm path and the fleet coordinator path, whose
// outputs must be byte-identical.
func reportCampaign(target ballista.OS, res *ballista.Result, elapsed time.Duration, verbose bool, csvPath string) {
	if csvPath != "" {
		if err := writeCSVReport(csvPath, target, res); err != nil {
			fmt.Fprintln(os.Stderr, "ballista:", err)
			exit(1)
		}
	}
	fmt.Printf("%s: %d MuTs, %d test cases, %d reboots, %v\n",
		target, len(res.Results), res.CasesRun, res.Reboots, elapsed.Round(time.Millisecond))
	s := report.Summarize(target, res)
	fmt.Printf("system calls: %d tested, %d Catastrophic, abort %.1f%%, restart %.2f%%\n",
		s.SysTested, s.SysCatastrophic, s.SysAbortPct, s.SysRestartPct)
	fmt.Printf("C library:    %d tested, %d Catastrophic, abort %.1f%%, restart %.2f%%\n",
		s.CLibTested, s.CLibCatastrophic, s.CLibAbortPct, s.CLibRestartPct)
	if names := res.CatastrophicMuTs(); len(names) > 0 {
		fmt.Printf("Catastrophic: %s\n", strings.Join(names, " "))
	}
	if verbose {
		fmt.Println()
		for _, mr := range res.Results {
			fmt.Printf("  %-30s cases=%-5d abort=%5.1f%% restart=%5.2f%% catastrophic=%v\n",
				mr.Name(), mr.Executed(), 100*mr.AbortRate(), 100*mr.RestartRate(), mr.Catastrophic())
		}
	}
}

// runJoin works a fleet campaign as one worker process until the
// campaign completes or a signal stops it.  The chaos flags arm the
// client-side transport plan (the "net" preset); the substrate plan
// comes from the coordinator's campaign spec.
func runJoin(url, name string, slots int, plan *ballista.ChaosPlan, stats *ballista.ChaosStats, spans *ballista.SpanRecorder, st *ballista.ResultStore, obs ballista.Observer) {
	ctx, stop, caught := signalContext()
	defer stop()
	if plan != nil && stats == nil {
		stats = ballista.NewChaosStats()
	}
	err := ballista.RunFleetWorker(ctx, ballista.FleetWorkerConfig{
		URL: url, Name: name, Slots: slots, Chaos: plan, ChaosStats: stats,
		Spans: spans, Store: st, Observer: obs,
	})
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "ballista: worker interrupted; its leases will expire and be re-dispatched")
			exit(signalExitCode(caught))
		}
		fmt.Fprintln(os.Stderr, "ballista:", err)
		exit(1)
	}
	if stats != nil {
		printChaosSummary(stats)
	}
	if st != nil {
		printStoreSummary(st)
	}
	fmt.Printf("ballista: worker %s finished campaign\n", name)
}

// fleetServeOpts carries the -serve-fleet farm-coordinator flag set.
type fleetServeOpts struct {
	addr         string
	target       ballista.OS
	cap          int
	caseDeadline time.Duration
	checkpoint   string
	plan         *ballista.ChaosPlan
	chaosStats   *ballista.ChaosStats
	observer     ballista.Observer
	ttl          time.Duration
	heartbeat    time.Duration
	csv          string
	verbose      bool
	spans        *ballista.SpanRecorder
}

// runServeFleetFarm coordinates a distributed farm campaign: serve the
// lease table on addr, wait for workers to drain the shard catalog, and
// report exactly what a local farm run would.
func runServeFleetFarm(fo fleetServeOpts) {
	spec := ballista.FleetSpec{
		Kind: fleet.KindFarm, OS: fo.target.WireName(), Cap: fo.cap,
		CaseDeadlineMS: fo.caseDeadline.Milliseconds(), Chaos: fo.plan,
	}
	coord, err := fleet.New(fleet.Config{
		Spec: spec, TTL: fo.ttl, Heartbeat: fo.heartbeat,
		Journal: fo.checkpoint, Chaos: fo.plan, ChaosStats: fo.chaosStats,
		Observer: fo.observer, Spans: fo.spans,
		Log: telemetry.NewLogger(os.Stderr, "fleet"),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ballista:", err)
		exit(1)
	}
	defer coord.Close()
	srv := &http.Server{Addr: fo.addr, Handler: coord.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "ballista: fleet listener:", err)
			exit(1)
		}
	}()
	fmt.Printf("ballista: fleet coordinator on %s (campaign %s, %s)\n", fo.addr, coord.ID(), fo.target)

	ctx, stop, caught := signalContext()
	defer stop()
	start := time.Now()
	res, err := coord.Wait(ctx)
	if err == nil {
		// Drain grace: idle workers poll at half the heartbeat interval,
		// so serving a moment longer lets them observe the campaign is
		// done and exit instead of retrying against a dead listener.
		drain := fo.heartbeat
		if drain <= 0 {
			drain = fo.ttl / 3
		}
		if drain < 250*time.Millisecond {
			drain = 250 * time.Millisecond
		}
		time.Sleep(drain)
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = srv.Shutdown(shutdownCtx)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "ballista: coordinator interrupted")
			if fo.checkpoint != "" {
				fmt.Fprintf(os.Stderr, "ballista: collected shards journaled; re-run with -checkpoint %s to resume\n", fo.checkpoint)
			}
			exit(signalExitCode(caught))
		}
		fmt.Fprintln(os.Stderr, "ballista:", err)
		exit(1)
	}
	fmt.Printf("ballista: campaign drained by %d workers\n", coord.WorkersSeen())
	reportCampaign(fo.target, res, time.Since(start), fo.verbose, fo.csv)
}

// writeCSVReport stores the per-MuT campaign report as a CSV file — a
// deterministic artifact (no timings, no worker attribution) that CI
// diffs across worker counts and fault plans.
func writeCSVReport(path string, target ballista.OS, res *ballista.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := report.WriteMuTCSV(f, map[ballista.OS]*ballista.Result{target: res}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// signalContext cancels on SIGINT or SIGTERM — treated identically, so
// an operator Ctrl-C and a container runtime's kill drain the same way —
// and records which signal arrived for the exit code.
func signalContext() (context.Context, context.CancelFunc, *atomic.Int32) {
	ctx, cancel := context.WithCancel(context.Background())
	caught := new(atomic.Int32)
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		select {
		case sig := <-ch:
			if s, ok := sig.(syscall.Signal); ok {
				caught.Store(int32(s))
			}
			cancel()
		case <-ctx.Done():
		}
		signal.Stop(ch)
	}()
	return ctx, cancel, caught
}

// signalExitCode renders the conventional 128+signum exit code (130 for
// SIGINT, 143 for SIGTERM); SIGINT's 130 is the fallback for a
// cancellation whose signal was not observed.
func signalExitCode(caught *atomic.Int32) int {
	if n := caught.Load(); n != 0 {
		return 128 + int(n)
	}
	return 130
}

// printChaosSummary reports the fault plan's footprint after a campaign.
func printChaosSummary(stats *ballista.ChaosStats) {
	snap := stats.Snapshot()
	total := uint64(0)
	for _, n := range snap.Injected {
		total += n
	}
	fmt.Printf("chaos: %d faults injected, %d writes retried, %d shards quarantined, %d calls wedged\n",
		total, snap.Retried, snap.Quarantined, snap.Wedged)
}

// exploreOpts carries the -explore flag set.
type exploreOpts struct {
	chains, maxLen, workers int
	seed                    uint64
	diffOS, muts            string
	checkpoint, reproDir    string
	verbose                 bool
	observer                ballista.Observer
	chaos                   *ballista.ChaosPlan
	chaosStats              *ballista.ChaosStats
	serveFleet              string
	fleetTTL                time.Duration
	fleetHeartbeat          time.Duration
	caseDeadline            time.Duration
	spans                   *ballista.SpanRecorder
}

func runExplore(primary ballista.OS, eo exploreOpts) {
	cfg := ballista.ExploreConfig{
		Primary: primary, Seed: eo.seed, Budget: eo.chains,
		MaxLen: eo.maxLen, Workers: eo.workers, Checkpoint: eo.checkpoint,
		Chaos: eo.chaos, ChaosStats: eo.chaosStats, Spans: eo.spans,
		Observer: eo.observer,
	}
	if eo.diffOS != "" {
		for _, name := range strings.Split(eo.diffOS, ",") {
			o, ok := osprofile.Parse(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(os.Stderr, "ballista: unknown OS %q in -diff-os\n", name)
				exit(2)
			}
			cfg.OSes = append(cfg.OSes, o)
		}
	}
	if eo.muts != "" {
		for _, name := range strings.Split(eo.muts, ",") {
			cfg.MuTs = append(cfg.MuTs, strings.TrimSpace(name))
		}
	}
	// -serve-fleet: candidate batches are evaluated by joined workers
	// instead of the local pool; the report stays byte-identical.
	var coord *fleet.Coordinator
	var fleetSrv *http.Server
	if eo.serveFleet != "" {
		var oses []string
		for _, o := range explore.ResolveOSes(primary, cfg.OSes) {
			oses = append(oses, o.WireName())
		}
		spec := ballista.FleetSpec{
			Kind: fleet.KindExplore, OSes: oses,
			Chaos: eo.chaos, CaseDeadlineMS: eo.caseDeadline.Milliseconds(),
		}
		var err error
		coord, err = fleet.New(fleet.Config{
			Spec: spec, TTL: eo.fleetTTL, Heartbeat: eo.fleetHeartbeat,
			ChaosStats: eo.chaosStats, Observer: eo.observer,
			Spans: eo.spans,
			Log:   telemetry.NewLogger(os.Stderr, "fleet"),
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "ballista:", err)
			exit(1)
		}
		fleetSrv = &http.Server{Addr: eo.serveFleet, Handler: coord.Handler(), ReadHeaderTimeout: 5 * time.Second}
		go func() {
			if err := fleetSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "ballista: fleet listener:", err)
				exit(1)
			}
		}()
		fmt.Printf("ballista: fleet coordinator on %s (campaign %s, explore)\n", eo.serveFleet, coord.ID())
		cfg.Remote = coord.RemoteEval()
	}

	ctx, stop, caught := signalContext()
	defer stop()

	start := time.Now()
	rep, err := ballista.Explore(ctx, cfg)
	if coord != nil {
		coord.Finish()
		// Drain grace: let idle workers poll once more and observe the
		// campaign is finished before the listener disappears.
		drain := eo.fleetHeartbeat
		if drain <= 0 {
			drain = eo.fleetTTL / 3
		}
		if drain < 250*time.Millisecond {
			drain = 250 * time.Millisecond
		}
		time.Sleep(drain)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = fleetSrv.Shutdown(shutdownCtx)
		cancel()
		_ = coord.Close()
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "ballista: exploration interrupted")
			if eo.checkpoint != "" {
				fmt.Fprintf(os.Stderr, "ballista: corpus journaled; re-run with -checkpoint %s to resume\n", eo.checkpoint)
			}
			exit(signalExitCode(caught))
		}
		fmt.Fprintln(os.Stderr, "ballista:", err)
		exit(1)
	}
	if eo.chaosStats != nil {
		defer printChaosSummary(eo.chaosStats)
	}

	fmt.Printf("explore %s (oracle: %s): %d chains, corpus %d, %d divergent, %d catastrophic, %v\n",
		rep.Primary, strings.Join(rep.OSes, " "), rep.Executed, rep.CorpusSize,
		rep.DivergentChains, rep.CatastrophicChains, time.Since(start).Round(time.Millisecond))
	fmt.Printf("findings: %d distinct (final call x cross-OS signature)\n", len(rep.Divergences))
	for i, d := range rep.Divergences {
		if !eo.verbose && i >= 10 {
			fmt.Printf("  ... %d more (use -v for all)\n", len(rep.Divergences)-i)
			break
		}
		ch := d.Chain
		if d.Minimized != nil {
			ch = *d.Minimized
		}
		mark := ""
		if d.Catastrophic {
			mark = " CATASTROPHIC"
		}
		fmt.Printf("  %-40s %s%s\n", ch, d.Signature, mark)
	}

	if eo.reproDir != "" {
		if err := os.MkdirAll(eo.reproDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "ballista:", err)
			exit(1)
		}
		reps := rep.Reproducers()
		for i, r := range reps {
			r.Name = fmt.Sprintf("finding-%03d", i)
			path := fmt.Sprintf("%s/finding-%03d.json", strings.TrimRight(eo.reproDir, "/"), i)
			if err := r.WriteFile(path); err != nil {
				fmt.Fprintln(os.Stderr, "ballista:", err)
				exit(1)
			}
		}
		fmt.Printf("wrote %d reproducers to %s\n", len(reps), eo.reproDir)
	}
}

// crashOpts carries the -crashcheck flag set.
type crashOpts struct {
	seed                    uint64
	maxOps, budget, workers int
	osSet, checkpoint       string
	reproDir, out           string
	verbose                 bool
	observer                ballista.Observer
	spans                   *ballista.SpanRecorder
}

func runCrashCheck(co crashOpts) {
	cfg := ballista.CrashConfig{
		Seed: co.seed, MaxOps: co.maxOps, Budget: co.budget,
		Workers: co.workers, Checkpoint: co.checkpoint, Spans: co.spans,
		Observer: co.observer,
	}
	if co.osSet != "" {
		for _, name := range strings.Split(co.osSet, ",") {
			o, ok := osprofile.Parse(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(os.Stderr, "ballista: unknown OS %q in -crash-os\n", name)
				exit(2)
			}
			cfg.OSes = append(cfg.OSes, o)
		}
	}
	ctx, stop, caught := signalContext()
	defer stop()

	start := time.Now()
	rep, err := ballista.CrashSweep(ctx, cfg)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "ballista: crash sweep interrupted")
			if co.checkpoint != "" {
				fmt.Fprintf(os.Stderr, "ballista: evaluated workloads journaled; re-run with -checkpoint %s to resume\n", co.checkpoint)
			}
			exit(signalExitCode(caught))
		}
		fmt.Fprintln(os.Stderr, "ballista:", err)
		exit(1)
	}

	fmt.Printf("crashcheck (oracle: %s): %d workloads, %d crash points, %d legal states, %d divergent, %d violating, %v\n",
		strings.Join(rep.OSes, " "), rep.Workloads, rep.CrashPoints, rep.States,
		rep.Divergent, rep.Violating, time.Since(start).Round(time.Millisecond))
	fmt.Printf("findings: %d distinct (op kinds x result pattern x violations)\n", len(rep.Findings))
	for i, f := range rep.Findings {
		if !co.verbose && i >= 10 {
			fmt.Printf("  ... %d more (use -v for all)\n", len(rep.Findings)-i)
			break
		}
		fmt.Printf("  %-36s %s\n", f.Workload.Key(), f.Signature)
	}

	if co.out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "ballista:", err)
			exit(1)
		}
		if err := os.WriteFile(co.out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "ballista:", err)
			exit(1)
		}
		fmt.Printf("wrote report to %s\n", co.out)
	}
	if co.reproDir != "" {
		if err := os.MkdirAll(co.reproDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "ballista:", err)
			exit(1)
		}
		reps := rep.Reproducers()
		for i, r := range reps {
			r.Name = fmt.Sprintf("crash-%03d", i)
			path := fmt.Sprintf("%s/crash-%03d.json", strings.TrimRight(co.reproDir, "/"), i)
			if err := r.WriteFile(path); err != nil {
				fmt.Fprintln(os.Stderr, "ballista:", err)
				exit(1)
			}
		}
		fmt.Printf("wrote %d reproducers to %s\n", len(reps), co.reproDir)
	}
}

// scarceOpts carries the -scarce flag set.
type scarceOpts struct {
	seed               uint64
	budget, workers    int
	envSet, osSet      string
	checkpoint         string
	reproDir, out, csv string
	verbose            bool
	observer           ballista.Observer
	spans              *ballista.SpanRecorder
}

func runScarceCheck(so scarceOpts) {
	cfg := ballista.ScarceConfig{
		Seed: so.seed, Budget: so.budget,
		Workers: so.workers, Checkpoint: so.checkpoint, Spans: so.spans,
		Observer: so.observer,
	}
	if so.osSet != "" {
		for _, name := range strings.Split(so.osSet, ",") {
			o, ok := osprofile.Parse(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(os.Stderr, "ballista: unknown OS %q in -scarce-os\n", name)
				exit(2)
			}
			cfg.OSes = append(cfg.OSes, o)
		}
	}
	if so.envSet != "" {
		// Semicolons separate environments; a segment containing '=' is
		// one raw axis spec (whose own commas separate axes), anything
		// else is a comma-separated list of matrix names.
		for _, seg := range strings.Split(so.envSet, ";") {
			names := []string{seg}
			if !strings.Contains(seg, "=") {
				names = strings.Split(seg, ",")
			}
			for _, name := range names {
				e, err := ballista.ParseScarceEnv(strings.TrimSpace(name))
				if err != nil {
					fmt.Fprintln(os.Stderr, "ballista:", err)
					exit(2)
				}
				cfg.Envs = append(cfg.Envs, e)
			}
		}
	}
	ctx, stop, caught := signalContext()
	defer stop()

	start := time.Now()
	rep, err := ballista.ScarceSweep(ctx, cfg)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "ballista: scarcity sweep interrupted")
			if so.checkpoint != "" {
				fmt.Fprintf(os.Stderr, "ballista: evaluated items journaled; re-run with -checkpoint %s to resume\n", so.checkpoint)
			}
			exit(signalExitCode(caught))
		}
		fmt.Fprintln(os.Stderr, "ballista:", err)
		exit(1)
	}

	fmt.Printf("scarce (oracle: %s): %d MuTs x %d envs = %d items, %d probes, %d crashed, %d leaked, %d ungraceful, %d divergent, %d violating, %v\n",
		strings.Join(rep.OSes, " "), rep.MuTs, len(rep.Envs), rep.Items, rep.Probes,
		rep.Crashed, rep.Leaked, rep.Ungraceful, rep.Divergent, rep.Violating,
		time.Since(start).Round(time.Millisecond))
	fmt.Printf("findings: %d distinct (MuT x environment x verdict pattern)\n", len(rep.Findings))
	for i, f := range rep.Findings {
		if !so.verbose && i >= 10 {
			fmt.Printf("  ... %d more (use -v for all)\n", len(rep.Findings)-i)
			break
		}
		fmt.Printf("  %-28s %s\n", f.MuT, f.Signature)
	}

	if so.out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "ballista:", err)
			exit(1)
		}
		if err := os.WriteFile(so.out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "ballista:", err)
			exit(1)
		}
		fmt.Printf("wrote report to %s\n", so.out)
	}
	if so.csv != "" {
		f, err := os.Create(so.csv)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ballista:", err)
			exit(1)
		}
		if err := report.WriteScarceCSV(f, rep); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "ballista:", err)
			exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "ballista:", err)
			exit(1)
		}
		fmt.Printf("wrote findings CSV to %s\n", so.csv)
	}
	if so.reproDir != "" {
		if err := os.MkdirAll(so.reproDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "ballista:", err)
			exit(1)
		}
		reps := rep.Reproducers()
		for i, r := range reps {
			r.Name = fmt.Sprintf("scarce-%03d", i)
			path := fmt.Sprintf("%s/scarce-%03d.json", strings.TrimRight(so.reproDir, "/"), i)
			if err := r.WriteFile(path); err != nil {
				fmt.Fprintln(os.Stderr, "ballista:", err)
				exit(1)
			}
		}
		fmt.Printf("wrote %d reproducers to %s\n", len(reps), so.reproDir)
	}
}

func runSingle(runner interface {
	RunMuT(ctx context.Context, m catalog.MuT, wide bool) (*ballista.MuTResult, error)
}, target ballista.OS, name string) {
	var mut catalog.MuT
	found := false
	for _, m := range catalog.MuTsFor(target) {
		if m.Name == name {
			mut, found = m, true
			break
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "ballista: %q is not tested on %s\n", name, target)
		exit(2)
	}
	res, err := runner.RunMuT(context.Background(), mut, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ballista:", err)
		exit(1)
	}
	fmt.Printf("%s on %s: %d cases\n", name, target, res.Executed())
	for _, cls := range []ballista.RawClass{
		ballista.Catastrophic, ballista.Restart, ballista.Abort,
		ballista.ErrorReturn, ballista.Clean, ballista.Skip,
	} {
		if n := res.Count(cls); n > 0 {
			fmt.Printf("  %-14s %d\n", cls, n)
		}
	}
	if res.Incomplete {
		fmt.Println("  campaign incomplete: a Catastrophic failure interrupted testing (paper §4)")
	}
}
