package crashsim

import (
	"testing"

	"ballista/internal/osprofile"
)

// BenchmarkCrashEnum measures the full oracle pipeline — execute,
// enumerate legal states, check invariants — over a fixed slice of the
// bounded workload set on all seven profiles.  The cases/sec metric
// counts workload evaluations per second; TestCrashEvalAllocs gates the
// same workload set's allocations.
func BenchmarkCrashEnum(b *testing.B) {
	oses := osprofile.All()
	workloads := Enumerate(nil, 2, 7, 24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range workloads {
			Evaluate(w, nil, oses)
		}
	}
	b.ReportMetric(float64(b.N*len(workloads))/b.Elapsed().Seconds(), "cases/sec")
}

// TestCrashEvalAllocs is the crash oracle's host-independent cost gate:
// BenchmarkCrashEnum's workload set, evaluated once on all seven
// profiles, may allocate at most maxAllocsPerWorkload times per
// workload.  The evaluation draws nothing from a sync.Pool, so the
// count is the same under -race.  An intentional change edits the
// constant and records the old and new counts in CHANGES.md.
func TestCrashEvalAllocs(t *testing.T) {
	const maxAllocsPerWorkload = 388
	oses := osprofile.All()
	workloads := Enumerate(nil, 2, 7, 24)
	allocs := testing.AllocsPerRun(5, func() {
		for _, w := range workloads {
			Evaluate(w, nil, oses)
		}
	})
	if per := allocs / float64(len(workloads)); per > maxAllocsPerWorkload {
		t.Errorf("crash evaluation allocates %.1f times per workload (%d workloads x %d profiles), want at most %d",
			per, len(workloads), len(oses), maxAllocsPerWorkload)
	} else {
		t.Logf("%.1f allocations per workload over %d workloads x %d profiles", per, len(workloads), len(oses))
	}
}
