package ballista_test

import (
	"context"
	"testing"

	"ballista"
)

// BenchmarkScarceSweep measures the full scarcity pipeline — enumerate
// the budgeted MuT union, deplete each environment, probe every profile
// through the crash/degradation/leak oracles, minimize and merge — at
// the sweep's default concurrency.  A sweep builds one data-type
// registry, and each probe boots a fresh machine whose first fixture
// install copies the boot-once template, so the profile is the probes
// themselves.  The cases/sec metric counts scarcity probes per second;
// TestScarceProbeAllocs gates the allocations of a smaller sweep.
func BenchmarkScarceSweep(b *testing.B) {
	cfg := ballista.ScarceConfig{Seed: 7, Budget: 50, Workers: 8}
	var probes int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := ballista.ScarceSweep(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		probes = rep.Probes
	}
	b.ReportMetric(float64(b.N*probes)/b.Elapsed().Seconds(), "cases/sec")
}

// TestScarceProbeAllocs is a host-independent cost gate for the scarce
// sweep: a budgeted one-environment sweep (784 probes) may allocate at
// most 79 times per probe, amortized.  A probe boots a fresh machine
// and copies the fixture template, about 76 allocations; a data-type
// registry built per probe instead of once per sweep adds about 985.
func TestScarceProbeAllocs(t *testing.T) {
	const maxPerProbe = 79
	cfg := ballista.ScarceConfig{Seed: 7, Budget: 200, Workers: 1, Envs: ballista.DefaultScarceEnvs()[:1]}
	var probes int
	allocs := testing.AllocsPerRun(3, func() {
		rep, err := ballista.ScarceSweep(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		probes = rep.Probes
	})
	if probes == 0 {
		t.Fatal("the sweep ran no probes")
	}
	if per := allocs / float64(probes); per > maxPerProbe {
		t.Errorf("scarce sweep allocates %.1f times per probe (%d probes), want at most %d", per, probes, maxPerProbe)
	} else {
		t.Logf("%.1f allocations per probe over %d probes", per, probes)
	}
}
