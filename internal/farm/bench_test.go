package farm_test

import (
	"context"
	"runtime"
	"testing"

	"ballista"
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
// catches one.  Allocation counts and bytes do not depend on the host,
// so the budgets hold on any machine and under -race.  An intentional
// change edits the constants and records the old and new figures in
// CHANGES.md.
func TestFarmCaseAllocs(t *testing.T) {
	for _, tc := range []struct {
		os                  ballista.OS
		maxAllocs, maxBytes float64
	}{
		{os: ballista.WinNT, maxAllocs: 5.6},
		{os: ballista.Linux, maxAllocs: 5.8, maxBytes: 7840},
	} {
		t.Run(tc.os.WireName(), func(t *testing.T) {
			allocs, bytes, cases := farmCost(t, tc.os)
			if allocs > tc.maxAllocs {
				t.Errorf("farm allocates %.2f times per case (%d cases), want at most %.1f", allocs, cases, tc.maxAllocs)
			}
			if tc.maxBytes > 0 && bytes > tc.maxBytes {
				t.Errorf("farm allocates %.0f bytes per case (%d cases), want at most %.0f", bytes, cases, tc.maxBytes)
			}
			t.Logf("%.2f allocations and %.0f bytes per case over %d cases", allocs, bytes, cases)
		})
	}
}

// farmCost runs a one-worker campaign at a 300-case cap once to warm up
// and once measured, on one P as testing.AllocsPerRun does, and returns
// its allocations and allocated bytes per case.
func farmCost(t *testing.T, o ballista.OS) (allocs, bytes float64, cases int) {
	t.Helper()
	run := func() int {
		res, err := ballista.RunFarm(context.Background(), o,
			ballista.FarmConfig{Workers: 1}, ballista.WithCap(300))
		if err != nil {
			t.Fatal(err)
		}
		return res.CasesRun
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cases = run()
	runtime.ReadMemStats(&after)
	if cases == 0 {
		t.Fatal("the campaign ran no cases")
	}
	return float64(after.Mallocs-before.Mallocs) / float64(cases),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(cases), cases
}
