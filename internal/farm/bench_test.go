package farm_test

import (
	"context"
	"fmt"
	"testing"

	"ballista"
)

// BenchmarkFarm runs the full WinNT catalog at the paper's 5000-case
// cap across varying pool sizes.  On a multi-core host the 8-worker
// farm should clear a sequential run by well over 3x; the per-op metric
// to watch is cases/sec.  CI runs this with -benchtime=1x as a smoke
// test, so a single iteration must stay affordable.
func BenchmarkFarm(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var cases int
			for i := 0; i < b.N; i++ {
				res, err := ballista.RunFarm(context.Background(), ballista.WinNT,
					ballista.FarmConfig{Workers: workers})
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
// one-worker WinNT campaign at a 300-case cap (about 28k cases) may
// allocate at most maxAllocsPerCase times per case.  Allocation counts
// do not depend on the host, so the budget holds on any machine and
// under -race.  An intentional change edits the constant and records the
// old and new counts in CHANGES.md.
func TestFarmCaseAllocs(t *testing.T) {
	const maxAllocsPerCase = 39.5
	var cases int
	allocs := testing.AllocsPerRun(1, func() {
		res, err := ballista.RunFarm(context.Background(), ballista.WinNT,
			ballista.FarmConfig{Workers: 1}, ballista.WithCap(300))
		if err != nil {
			t.Fatal(err)
		}
		cases = res.CasesRun
	})
	if cases == 0 {
		t.Fatal("the campaign ran no cases")
	}
	if per := allocs / float64(cases); per > maxAllocsPerCase {
		t.Errorf("farm allocates %.2f times per case (%d cases), want at most %.1f", per, cases, maxAllocsPerCase)
	} else {
		t.Logf("%.2f allocations per case over %d cases", per, cases)
	}
}
