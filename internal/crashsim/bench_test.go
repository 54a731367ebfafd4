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

// raceEnabled reports a -race build (set in race_test.go).
var raceEnabled bool

// TestCrashEvalAllocs is the crash oracle's host-independent cost gate:
// BenchmarkCrashEnum's workload set, evaluated once on all seven
// profiles, may allocate at most maxAllocsPerWorkload times per
// workload.  An intentional change edits the constants and records the
// old and new counts in CHANGES.md.
func TestCrashEvalAllocs(t *testing.T) {
	const maxAllocsPerWorkload = 843
	// Under -race, sync.Pool drops a random quarter of its Puts, so fmt's
	// pooled printers are allocated afresh more often and the count
	// varies from run to run (866-870 measured).
	const maxAllocsPerWorkloadRace = 895
	budget := float64(maxAllocsPerWorkload)
	if raceEnabled {
		budget = maxAllocsPerWorkloadRace
	}
	oses := osprofile.All()
	workloads := Enumerate(nil, 2, 7, 24)
	allocs := testing.AllocsPerRun(5, func() {
		for _, w := range workloads {
			Evaluate(w, nil, oses)
		}
	})
	if per := allocs / float64(len(workloads)); per > budget {
		t.Errorf("crash evaluation allocates %.1f times per workload (%d workloads x %d profiles), want at most %.0f",
			per, len(workloads), len(oses), budget)
	} else {
		t.Logf("%.1f allocations per workload over %d workloads x %d profiles", per, len(workloads), len(oses))
	}
}
