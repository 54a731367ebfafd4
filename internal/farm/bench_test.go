package farm_test

import (
	"context"
	"runtime"
	"testing"

	"ballista"
	"ballista/internal/telemetry"
)

// BenchmarkFarm runs the full WinNT catalog at the paper's 5000-case
// cap across varying pool sizes.  On a multi-core host the 8-worker
// farm should clear a sequential run by well over 3x; the per-op metric
// to watch is cases/sec.  The os=linux row profiles the POSIX
// comparison campaign, whose MAXINT mmap and truncate lengths exercise
// the page table and file sizes the WinNT catalog never stretches.  CI
// runs this with -benchtime=1x as a smoke test, so a single iteration
// must stay affordable.
func BenchmarkFarm(b *testing.B) {
	for _, row := range []struct {
		name    string
		os      ballista.OS
		workers int
	}{
		{"workers=1", ballista.WinNT, 1},
		{"workers=2", ballista.WinNT, 2},
		{"workers=4", ballista.WinNT, 4},
		{"workers=8", ballista.WinNT, 8},
		{"os=linux,workers=1", ballista.Linux, 1},
	} {
		b.Run(row.name, func(b *testing.B) {
			var cases int
			for i := 0; i < b.N; i++ {
				res, err := ballista.RunFarm(context.Background(), row.os,
					ballista.FarmConfig{Workers: row.workers})
				if err != nil {
					b.Fatal(err)
				}
				cases = res.CasesRun
			}
			b.ReportMetric(float64(cases)*float64(b.N)/b.Elapsed().Seconds(), "cases/sec")
		})
	}
}

// BenchmarkSequential is the farm's baseline: the plain shared-machine
// Runner.RunAll the paper's single test machine corresponds to.
func BenchmarkSequential(b *testing.B) {
	var cases int
	for i := 0; i < b.N; i++ {
		res, err := ballista.RunContext(context.Background(), ballista.WinNT)
		if err != nil {
			b.Fatal(err)
		}
		cases = res.CasesRun
	}
	b.ReportMetric(float64(cases)*float64(b.N)/b.Elapsed().Seconds(), "cases/sec")
}

// TestFarmCaseAllocs is the farm's host-independent cost gate: a
// one-worker campaign at a 300-case cap may allocate at most maxAllocs
// times and, where maxBytes is set, maxBytes bytes per case.  The WinNT
// row runs about 28k cases; the Linux row is the one whose MAXINT mmap
// and truncate lengths a dense page table or file body would pay for,
// and a dense truncate is a single allocation, so only its bytes budget
// catches one.  A case's process, frame and page backings come from the
// runner's case arena, so what remains is the work of the call itself:
// the strings it reads, the kernel objects it creates.  Allocation
// counts and bytes do not depend on the host, so the budgets hold on
// any machine and under -race.  An intentional
// change edits the constants and records the old and new figures in
// CHANGES.md.
func TestFarmCaseAllocs(t *testing.T) {
	for _, tc := range []struct {
		os                  ballista.OS
		maxAllocs, maxBytes float64
	}{
		{os: ballista.WinNT, maxAllocs: 1.72},
		{os: ballista.Linux, maxAllocs: 1.87, maxBytes: 578},
	} {
		t.Run(tc.os.WireName(), func(t *testing.T) {
			allocs, bytes, res := farmCost(t, tc.os, 300, nil)
			cases := res.CasesRun
			if allocs > tc.maxAllocs {
				t.Errorf("farm allocates %.2f times per case (%d cases), want at most %.2f", allocs, cases, tc.maxAllocs)
			}
			if tc.maxBytes > 0 && bytes > tc.maxBytes {
				t.Errorf("farm allocates %.0f bytes per case (%d cases), want at most %.0f", bytes, cases, tc.maxBytes)
			}
			t.Logf("%.2f allocations and %.0f bytes per case over %d cases", allocs, bytes, cases)
		})
	}
}

// TestObservedFarmCaseAllocs is the observed path's cost gate: a WinNT
// one-worker campaign at a 50-case cap with a metrics registry attached
// may allocate no more per case than the same campaign with a nil
// observer.  The runner reuses one CaseEvent for every case it reports,
// so the allowance is one allocation for each rarer event — a MuT start
// and a shard completion per shard, each reboot, the campaign summary —
// plus 1% of the case count for the runtime's own allocations, which
// vary by about ten between identical runs.  An observer path that
// boxed a fresh event per case adds about one allocation per case and
// fails here on any host.
func TestObservedFarmCaseAllocs(t *testing.T) {
	bare, _, bareRes := farmCost(t, ballista.WinNT, 50, nil)
	observed, _, res := farmCost(t, ballista.WinNT, 50, telemetry.NewMetrics())
	if res.CasesRun != bareRes.CasesRun {
		t.Fatalf("observed campaign ran %d cases, bare campaign %d", res.CasesRun, bareRes.CasesRun)
	}
	rare := 2*len(res.Results) + res.Reboots + 1
	allowance := float64(rare+res.CasesRun/100) / float64(res.CasesRun)
	if observed > bare+allowance {
		t.Errorf("observed farm allocates %.3f times per case, bare farm %.3f (+%.3f allowed: %d rarer events over %d cases)",
			observed, bare, allowance, rare, res.CasesRun)
	}
	t.Logf("%.3f allocations per case observed, %.3f bare, over %d cases", observed, bare, res.CasesRun)
}

// farmCost runs a one-worker campaign capped at caseCap cases once to warm up
// and once measured, on one P as testing.AllocsPerRun does, and returns
// its allocations and allocated bytes per case and the measured result.
func farmCost(t *testing.T, o ballista.OS, caseCap int, obs ballista.Observer) (allocs, bytes float64, res *ballista.Result) {
	t.Helper()
	run := func() *ballista.Result {
		res, err := ballista.RunFarm(context.Background(), o,
			ballista.FarmConfig{Workers: 1}, ballista.WithCap(caseCap), ballista.WithObserver(obs))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res = run()
	runtime.ReadMemStats(&after)
	if res.CasesRun == 0 {
		t.Fatal("the campaign ran no cases")
	}
	return float64(after.Mallocs-before.Mallocs) / float64(res.CasesRun),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(res.CasesRun), res
}
