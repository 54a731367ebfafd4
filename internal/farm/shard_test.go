package farm_test

import (
	"context"
	"encoding/json"
	"testing"

	"ballista"
	"ballista/internal/farm"
	"ballista/internal/fleet"
)

// TestShardDescGoldenJSON pins the shard descriptor's wire form: the
// fleet protocol and the checkpoint journal both speak it, so a field
// rename is a cross-version incompatibility, not a refactor.
func TestShardDescGoldenJSON(t *testing.T) {
	for _, tc := range []struct {
		desc farm.ShardDesc
		want string
	}{
		{farm.ShardDesc{Index: 3, MuT: "ReadFile", Wide: true}, `{"shard":3,"mut":"ReadFile","wide":true}`},
		{farm.ShardDesc{Index: 0, MuT: "strncpy"}, `{"shard":0,"mut":"strncpy"}`},
	} {
		got, err := json.Marshal(tc.desc)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("desc %+v encodes as %s, want %s", tc.desc, got, tc.want)
		}
		var back farm.ShardDesc
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatal(err)
		}
		if back != tc.desc {
			t.Errorf("round trip changed the descriptor: %+v -> %+v", tc.desc, back)
		}
	}
}

// TestShardResultGoldenJSON pins the packed result's wire form.
func TestShardResultGoldenJSON(t *testing.T) {
	sr := farm.ShardResult{Classes: "01245", Exceptional: "00100", Incomplete: true, Reboots: 2}
	want := `{"classes":"01245","exceptional":"00100","incomplete":true,"reboots":2}`
	got, err := json.Marshal(sr)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Errorf("result encodes as %s, want %s", got, want)
	}
	var back farm.ShardResult
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	if back != sr {
		t.Errorf("round trip changed the result: %+v -> %+v", sr, back)
	}
}

// TestShardWireRoundTripMatchesInProcess is the fleet's foundation
// property, checked for every OS profile: running each shard through a
// JSON serialize → deserialize → Executor cycle (what a remote worker
// does) and merging reproduces the in-process farm campaign exactly.
func TestShardWireRoundTripMatchesInProcess(t *testing.T) {
	const cap = 60
	env := ballista.FleetEnv()
	for _, o := range ballista.AllOSes() {
		o := o
		t.Run(o.WireName(), func(t *testing.T) {
			t.Parallel()
			baseline, err := ballista.RunFarm(context.Background(), o,
				ballista.FarmConfig{Workers: 1}, ballista.WithCap(cap))
			if err != nil {
				t.Fatal(err)
			}
			exec, err := env.NewShardExecutor(fleet.CampaignSpec{
				Kind: fleet.KindFarm, OS: o.WireName(), Cap: cap,
			})
			if err != nil {
				t.Fatal(err)
			}
			descs := farm.ShardDescs(o)
			results := make([]farm.ShardResult, len(descs))
			for i, d := range descs {
				wire, err := json.Marshal(d)
				if err != nil {
					t.Fatal(err)
				}
				var back farm.ShardDesc
				if err := json.Unmarshal(wire, &back); err != nil {
					t.Fatal(err)
				}
				res, err := exec.RunShard(context.Background(), back)
				if err != nil {
					t.Fatalf("shard %d (%s): %v", d.Index, d.MuT, err)
				}
				results[i] = res
			}
			merged, err := farm.MergeShardResults(o, descs, results)
			if err != nil {
				t.Fatal(err)
			}
			sameOSResult(t, o.WireName(), baseline, merged)
		})
	}
}

// TestShardDecodeAllocs: decoding a shard result costs its own result
// and two slices, whatever the catalog's size.  Resolving the MuT is one
// lookup in the OS's shared index; rebuilding the catalog per call cost
// 266 allocations on WinNT, for each of a merge's 247 shards.
func TestShardDecodeAllocs(t *testing.T) {
	const maxAllocs = 3
	descs := farm.ShardDescs(ballista.WinNT)
	d := descs[len(descs)-1]
	sr := farm.ShardResult{Classes: "01245", Exceptional: "00100"}
	if _, err := sr.Decode(ballista.WinNT, d); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := sr.Decode(ballista.WinNT, d); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxAllocs {
		t.Errorf("decoding shard %d (%s) allocates %.0f times, want at most %d", d.Index, d.MuT, allocs, maxAllocs)
	}
	if _, err := sr.Decode(ballista.WinNT, farm.ShardDesc{Index: 1, MuT: "NoSuchCall"}); err == nil {
		t.Error("decoded a shard whose MuT is not in the catalog")
	}
}
