package ballista_test

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"ballista"
	"ballista/internal/core"
	"ballista/internal/report"
)

const storeOracleCap = 120

// caseCounter counts cases the engine actually executed; a store hit
// replays a shard without running any.
type caseCounter struct {
	n atomic.Uint64
}

func (c *caseCounter) Observe(ev core.Event) {
	if _, ok := ev.(*core.CaseEvent); ok {
		c.n.Add(1)
	}
}

func campaignCSV(t *testing.T, target ballista.OS, res *ballista.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := report.WriteMuTCSV(&buf, map[ballista.OS]*ballista.Result{target: res}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStoreWarmRerunIsPureObservation is the cache determinism oracle:
// with a shared result store, a second identical campaign must (a)
// produce a byte-identical CSV report, (b) execute zero cases — every
// shard served from the store — and (c) match a storeless run exactly,
// at one worker and at eight.
func TestStoreWarmRerunIsPureObservation(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			bare, err := ballista.RunFarm(context.Background(), ballista.WinNT,
				ballista.FarmConfig{Workers: workers}, ballista.WithCap(storeOracleCap))
			if err != nil {
				t.Fatal(err)
			}

			st, err := ballista.OpenStore(ballista.StoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			run := func() (*ballista.Result, uint64) {
				var counter caseCounter
				res, err := ballista.RunFarm(context.Background(), ballista.WinNT,
					ballista.FarmConfig{Workers: workers},
					ballista.WithCap(storeOracleCap), ballista.WithStore(st),
					ballista.WithObserver(&counter))
				if err != nil {
					t.Fatal(err)
				}
				return res, counter.n.Load()
			}

			cold, coldCases := run()
			if coldCases == 0 {
				t.Fatal("cold run executed no cases")
			}
			if !reflect.DeepEqual(bare, cold) {
				t.Error("cache on/off is not pure observation: cold run diverges from storeless run")
			}
			shards := len(cold.Results)
			if s := st.Snapshot(); s.Puts != uint64(shards) || s.Hits != 0 {
				t.Fatalf("cold run stats: %+v, want %d puts and no hits", s, shards)
			}

			warm, warmCases := run()
			if warmCases != 0 {
				t.Errorf("warm rerun executed %d cases, want 0 (all shards from the store)", warmCases)
			}
			if s := st.Snapshot(); s.Hits != uint64(shards) || s.Misses != uint64(shards) {
				t.Errorf("warm run stats: %+v, want %d hits and still %d misses", s, shards, shards)
			}
			if !reflect.DeepEqual(cold, warm) {
				t.Error("warm rerun result diverges from cold run")
			}
			if !bytes.Equal(campaignCSV(t, ballista.WinNT, cold), campaignCSV(t, ballista.WinNT, warm)) {
				t.Error("warm rerun CSV is not byte-identical to the cold run")
			}
		})
	}
}

// TestStoreWarmRerunUnderChaos repeats the oracle under a seeded disk
// fault plan: injected faults (including retryable harness-domain ones)
// are part of the shard identity, so the warm rerun must still replay
// every shard from the store and reproduce the exact faulted report.
func TestStoreWarmRerunUnderChaos(t *testing.T) {
	plan := smokePlan(t, "disk", 42)
	st, err := ballista.OpenStore(ballista.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) (*ballista.Result, uint64) {
		var counter caseCounter
		res, err := ballista.RunFarm(context.Background(), ballista.WinNT,
			ballista.FarmConfig{Workers: workers},
			ballista.WithCap(storeOracleCap), ballista.WithStore(st),
			ballista.WithChaos(plan), ballista.WithObserver(&counter))
		if err != nil {
			t.Fatal(err)
		}
		return res, counter.n.Load()
	}
	cold, coldCases := run(8)
	if coldCases == 0 {
		t.Fatal("cold chaos run executed no cases")
	}
	// The warm rerun uses a different worker count on purpose: a store
	// hit is keyed on the shard, not the schedule, so it must hold.
	warm, warmCases := run(1)
	if warmCases != 0 {
		t.Errorf("warm chaos rerun executed %d cases, want 0", warmCases)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Error("warm chaos rerun diverges from cold run")
	}
	if !bytes.Equal(campaignCSV(t, ballista.WinNT, cold), campaignCSV(t, ballista.WinNT, warm)) {
		t.Error("warm chaos rerun CSV is not byte-identical")
	}
}

// TestStoreSegmentWarmsAcrossProcesses simulates the cross-process warm
// start: a cold campaign populates an on-disk segment, the store is
// closed and reopened (a new process would do the same), and the rerun
// replays entirely from the loaded segment.
func TestStoreSegmentWarmsAcrossProcesses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.seg")
	run := func(st *ballista.ResultStore) (*ballista.Result, uint64) {
		var counter caseCounter
		res, err := ballista.RunFarm(context.Background(), ballista.WinNT,
			ballista.FarmConfig{Workers: 4},
			ballista.WithCap(storeOracleCap), ballista.WithStore(st),
			ballista.WithObserver(&counter))
		if err != nil {
			t.Fatal(err)
		}
		return res, counter.n.Load()
	}

	st, err := ballista.OpenStore(ballista.StoreOptions{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	cold, _ := run(st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := ballista.OpenStore(ballista.StoreOptions{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != len(cold.Results) {
		t.Fatalf("segment reloaded %d entries, want %d", re.Len(), len(cold.Results))
	}
	warm, warmCases := run(re)
	if warmCases != 0 {
		t.Errorf("segment-warmed rerun executed %d cases, want 0", warmCases)
	}
	if !bytes.Equal(campaignCSV(t, ballista.WinNT, cold), campaignCSV(t, ballista.WinNT, warm)) {
		t.Error("segment-warmed rerun CSV is not byte-identical")
	}
}
