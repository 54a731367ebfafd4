package fleet_test

import (
	"context"
	"net/http/httptest"
	"testing"

	"ballista"
	"ballista/internal/fleet"
)

// loopbackCampaign runs one full distributed campaign over the HTTP
// loopback — coordinator, one four-slot worker, every shard crossing
// the wire twice — and returns the cases it ran.
func loopbackCampaign(tb testing.TB, env fleet.Env) int {
	coord, err := fleet.New(fleet.Config{
		Spec: fleet.CampaignSpec{Kind: fleet.KindFarm, OS: "winnt", Cap: 30},
	})
	if err != nil {
		tb.Fatal(err)
	}
	ts := httptest.NewServer(coord.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	werr := make(chan error, 1)
	go func() {
		werr <- fleet.RunWorker(ctx, fleet.WorkerConfig{
			Client: fleet.ClientConfig{BaseURL: ts.URL}, Name: "bench", Env: env, Slots: 4,
		})
	}()
	res, err := coord.Wait(ctx)
	if err != nil {
		tb.Fatal(err)
	}
	if err := <-werr; err != nil {
		tb.Fatal(err)
	}
	cancel()
	ts.Close()
	coord.Close()
	return res.CasesRun
}

// BenchmarkFleetLoopback measures one loopback campaign per iteration
// and reports end-to-end case throughput.
func BenchmarkFleetLoopback(b *testing.B) {
	env := ballista.FleetEnv()
	cases := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cases += loopbackCampaign(b, env)
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(cases)/sec, "cases/sec")
	}
}

// TestFleetLoopbackAllocs is the fleet's host-independent cost gate:
// BenchmarkFleetLoopback's campaign may allocate at most
// maxAllocsPerCase times per case.  Lease polling and heartbeats make
// the count vary slightly between runs, so the budget covers the
// observed spread plus 3%.  An intentional change edits the constant and
// records the old and new counts in CHANGES.md.
func TestFleetLoopbackAllocs(t *testing.T) {
	const maxAllocsPerCase = 18.9
	env := ballista.FleetEnv()
	var cases int
	allocs := testing.AllocsPerRun(1, func() { cases = loopbackCampaign(t, env) })
	if cases == 0 {
		t.Fatal("the campaign ran no cases")
	}
	if per := allocs / float64(cases); per > maxAllocsPerCase {
		t.Errorf("fleet campaign allocates %.2f times per case (%d cases, %.0f in all), want at most %.1f",
			per, cases, allocs, maxAllocsPerCase)
	} else {
		t.Logf("%.2f allocations per case over %d cases (%.0f in all)", per, cases, allocs)
	}
}
