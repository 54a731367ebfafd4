package store_test

import (
	"context"
	"testing"

	"ballista"
)

// storeCampaign runs the full-catalog WinNT campaign through the store.
func storeCampaign(tb testing.TB, st *ballista.ResultStore) int {
	res, err := ballista.RunFarm(context.Background(), ballista.WinNT,
		ballista.FarmConfig{Workers: 4}, ballista.WithStore(st))
	if err != nil {
		tb.Fatal(err)
	}
	return res.CasesRun
}

// warmStore fills a fresh store with one cold campaign and returns it
// with the cold campaign's case count.
func warmStore(tb testing.TB) (*ballista.ResultStore, int) {
	st, err := ballista.OpenStore(ballista.StoreOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	cases := storeCampaign(tb, st)
	if hits := st.Snapshot().Hits; hits != 0 {
		tb.Fatalf("cold fill already hit %d times", hits)
	}
	return st, cases
}

// BenchmarkStoreWarm measures warm-cache campaign throughput: the store
// is populated by one cold full-catalog WinNT run outside the timer,
// then every timed iteration replays the whole campaign from cache.  A
// regression here means hits stopped being cheap.  A warm iteration is
// about 1ms, so measure throughput with a fixed count such as
// -benchtime=100x rather than a single iteration.
func BenchmarkStoreWarm(b *testing.B) {
	st, coldCases := warmStore(b)
	b.ResetTimer()
	var cases int
	for i := 0; i < b.N; i++ {
		cases = storeCampaign(b, st)
	}
	b.StopTimer()
	if cases != coldCases {
		b.Fatalf("warm run reports %d cases, cold %d", cases, coldCases)
	}
	s := st.Snapshot()
	if s.Hits == 0 || s.Misses != s.Puts {
		b.Fatalf("warm iterations were not served from the store: %+v", s)
	}
	b.ReportMetric(float64(cases)*float64(b.N)/b.Elapsed().Seconds(), "cases/sec")
}

// raceEnabled reports a -race build (set in race_test.go).
var raceEnabled bool

// TestStoreWarmAllocs is the store's host-independent cost gate: a warm
// full-catalog WinNT replay may allocate at most maxAllocsPerHit times
// per shard served from the store.  An intentional change edits the
// constants and records the old and new counts in CHANGES.md.
func TestStoreWarmAllocs(t *testing.T) {
	const maxAllocsPerHit = 12.9
	// Under -race, sync.Pool drops a random quarter of its Puts, so the
	// JSON encoder state behind every store key is allocated afresh more
	// often and the count varies from run to run (13.9-14.1 measured).
	const maxAllocsPerHitRace = 14.5
	budget := maxAllocsPerHit
	if raceEnabled {
		budget = maxAllocsPerHitRace
	}
	st, coldCases := warmStore(t)
	var cases int
	allocs := testing.AllocsPerRun(5, func() { cases = storeCampaign(t, st) })
	if cases != coldCases {
		t.Fatalf("warm run reports %d cases, cold %d", cases, coldCases)
	}
	// The cold fill stored every shard, so a warm campaign that misses
	// none is served one hit per stored shard.
	s := st.Snapshot()
	if s.Hits == 0 || s.Misses != s.Puts {
		t.Fatalf("warm campaigns were not served from the store: %+v", s)
	}
	hits := float64(s.Puts)
	if per := allocs / hits; per > budget {
		t.Errorf("warm campaign allocates %.2f times per store hit (%.0f hits, %.0f in all), want at most %.1f",
			per, hits, allocs, budget)
	} else {
		t.Logf("%.2f allocations per store hit over %.0f hits (%.0f in all)", per, hits, allocs)
	}
}
