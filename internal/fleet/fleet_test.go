package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"ballista"
	"ballista/internal/chaos"
	"ballista/internal/core"
	"ballista/internal/explore"
	"ballista/internal/farm"
	"ballista/internal/fleet"
	"ballista/internal/osprofile"
	"ballista/internal/report"
	"ballista/internal/sweep"
)

const fleetCap = 60

// recObs records fleet control-plane events and can trigger a hook on
// each one (used to kill workers at precise campaign moments).
type recObs struct {
	mu      sync.Mutex
	kinds   map[string]int
	onEvent func(core.FleetEvent)
}

func newRecObs() *recObs { return &recObs{kinds: make(map[string]int)} }

func (r *recObs) Observe(e core.Event) {
	ev, ok := e.(*core.FleetEvent)
	if !ok {
		return
	}
	r.mu.Lock()
	r.kinds[ev.Kind]++
	hook := r.onEvent
	r.mu.Unlock()
	if hook != nil {
		hook(*ev)
	}
}

func (r *recObs) count(kind string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.kinds[kind]
}

// csvBytes renders one campaign result the way the CLI's -csv flag
// does; byte equality of this rendering is the fleet's contract.
func csvBytes(t *testing.T, res *core.OSResult) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := report.WriteMuTCSV(&b, map[osprofile.OS]*core.OSResult{osprofile.WinNT: res}); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// farmBaseline runs the sequential single-process farm the fleet must
// reproduce byte for byte.
func farmBaseline(t *testing.T) *core.OSResult {
	t.Helper()
	res, err := ballista.RunFarm(context.Background(), ballista.WinNT,
		ballista.FarmConfig{Workers: 1}, ballista.WithCap(fleetCap))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFleetMatchesFarmUnderChaos is the determinism oracle from the
// fleet's contract: three workers — one killed mid-campaign, the rest
// running under the "net" chaos preset (dropped RPCs, duplicated
// uploads, delayed heartbeats) — plus one deliberately abandoned lease,
// and the merged report is still byte-identical to a sequential farm
// run.
func TestFleetMatchesFarmUnderChaos(t *testing.T) {
	baseline := csvBytes(t, farmBaseline(t))

	obs := newRecObs()
	coord, err := fleet.New(fleet.Config{
		Spec:     fleet.CampaignSpec{Kind: fleet.KindFarm, OS: "winnt", Cap: fleetCap},
		TTL:      400 * time.Millisecond,
		Observer: obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	// A ghost worker takes one lease and vanishes — no upload, no
	// heartbeat — forcing a lease expiry and a steal.
	coord.Join(fleet.JoinRequest{Name: "ghost"})
	glr, err := coord.Lease(fleet.LeaseRequest{Campaign: coord.ID(), Worker: "ghost"})
	if err != nil || glr.Lease == nil {
		t.Fatalf("ghost lease: %v %+v", err, glr)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	runWorker := func(wctx context.Context, name string, seed uint64) {
		defer wg.Done()
		cc := fleet.ClientConfig{
			BaseURL:     ts.URL,
			BackoffBase: 5 * time.Millisecond,
			BackoffMax:  100 * time.Millisecond,
		}
		if seed != 0 {
			plan, perr := chaos.Preset("net", seed)
			if perr != nil {
				t.Error(perr)
				return
			}
			cc.Chaos = plan
			cc.ChaosStats = chaos.NewStats()
		}
		err := fleet.RunWorker(wctx, fleet.WorkerConfig{
			Client: cc, Name: name, Env: ballista.FleetEnv(), Slots: 2,
		})
		if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("worker %s: %v", name, err)
		}
	}

	// Worker A is killed 150ms in — mid-campaign, leases in flight.
	actx, akill := context.WithCancel(ctx)
	defer akill()
	time.AfterFunc(150*time.Millisecond, akill)
	wg.Add(3)
	go runWorker(actx, "wa", 0)
	go runWorker(ctx, "wb", 7)
	go runWorker(ctx, "wc", 8)

	res, err := coord.Wait(ctx)
	if err != nil {
		t.Fatalf("fleet campaign: %v", err)
	}
	cancel()
	wg.Wait()

	if got := csvBytes(t, res); !bytes.Equal(got, baseline) {
		t.Errorf("fleet CSV differs from sequential farm CSV:\nfleet %d bytes, farm %d bytes", len(got), len(baseline))
	}
	if obs.count("lease_expired") == 0 || obs.count("lease_stolen") == 0 {
		t.Errorf("ghost lease was never expired/stolen: %+v", obs.kinds)
	}
	if obs.count("campaign_done") != 1 {
		t.Errorf("campaign_done fired %d times", obs.count("campaign_done"))
	}
	if coord.WorkersSeen() < 3 {
		t.Errorf("coordinator saw %d workers, want >= 3", coord.WorkersSeen())
	}
}

// TestFleetCoordinatorResume kills the coordinator mid-campaign (after
// a handful of journaled shards) and starts a fresh one on the same
// shard journal: the completed shards are not re-leased, and the final
// report is byte-identical to the sequential farm run.
func TestFleetCoordinatorResume(t *testing.T) {
	baseline := csvBytes(t, farmBaseline(t))
	journal := t.TempDir() + "/fleet.ckpt"

	spec := fleet.CampaignSpec{Kind: fleet.KindFarm, OS: "winnt", Cap: fleetCap}
	obs1 := newRecObs()
	wctx1, stop1 := context.WithCancel(context.Background())
	defer stop1()
	obs1.mu.Lock()
	obs1.onEvent = func(ev core.FleetEvent) {
		if ev.Kind == "upload" && obs1.count("upload") >= 5 {
			stop1()
		}
	}
	obs1.mu.Unlock()
	coord1, err := fleet.New(fleet.Config{Spec: spec, Journal: journal, Observer: obs1})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(coord1.Handler())
	werr := make(chan error, 1)
	go func() {
		werr <- fleet.RunWorker(wctx1, fleet.WorkerConfig{
			Client: fleet.ClientConfig{BaseURL: ts1.URL}, Name: "w1", Env: ballista.FleetEnv(),
		})
	}()
	if err := <-werr; err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("first worker: %v", err)
	}
	ts1.Close()
	// The first coordinator dies without ceremony; only its fsync'd
	// journal survives.
	if err := coord1.Close(); err != nil {
		t.Fatal(err)
	}
	journaled := obs1.count("upload")
	if journaled < 5 {
		t.Fatalf("first coordinator collected %d shards, want >= 5", journaled)
	}

	coord2, err := fleet.New(fleet.Config{Spec: spec, Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()
	st := coord2.Status()
	if st.Done < 5 {
		t.Fatalf("resumed coordinator restored %d shards, want >= 5", st.Done)
	}
	if st.Campaign != coord1.ID() {
		t.Errorf("campaign identity changed across restart: %s vs %s", st.Campaign, coord1.ID())
	}

	ts2 := httptest.NewServer(coord2.Handler())
	defer ts2.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	go func() {
		werr <- fleet.RunWorker(ctx, fleet.WorkerConfig{
			Client: fleet.ClientConfig{BaseURL: ts2.URL}, Name: "w2", Env: ballista.FleetEnv(), Slots: 2,
		})
	}()
	res, err := coord2.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := <-werr; err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("second worker: %v", err)
	}
	if got := csvBytes(t, res); !bytes.Equal(got, baseline) {
		t.Error("resumed fleet CSV differs from sequential farm CSV")
	}
}

// TestFleetCoordinatorResumeEveryRecord kills the coordinator after
// every journal record: a coordinator that restarts on the journal cut
// after k records restores exactly those k shards, acknowledges a
// re-upload of one of them as a duplicate, accepts the rest, and merges
// the uninterrupted result byte for byte.
func TestFleetCoordinatorResumeEveryRecord(t *testing.T) {
	baseline := csvBytes(t, farmBaseline(t))
	spec := fleet.CampaignSpec{Kind: fleet.KindFarm, OS: "winnt", Cap: fleetCap}
	dir := t.TempDir()
	full := dir + "/full.ckpt"
	coord, err := fleet.New(fleet.Config{Spec: spec, Journal: full})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord.Handler())
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	werr := make(chan error, 1)
	go func() {
		werr <- fleet.RunWorker(ctx, fleet.WorkerConfig{
			Client: fleet.ClientConfig{BaseURL: ts.URL}, Name: "w", Env: ballista.FleetEnv(), Slots: 2,
		})
	}()
	if _, err := coord.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-werr; err != nil {
		t.Fatalf("worker: %v", err)
	}
	ts.Close()
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	descs := farm.ShardDescs(osprofile.WinNT)
	if len(lines) != 1+len(descs) {
		t.Fatalf("journal has %d lines, want header + %d", len(lines), len(descs))
	}
	shards := make([]*farm.ShardResult, len(descs))
	jnl, err := sweep.OpenJournal(full, fleet.KindFarm, coord.ID(), shards)
	if err != nil {
		t.Fatal(err)
	}
	jnl.Close()
	var order []int // shard indices in journal order
	for _, line := range lines[1:] {
		var rec struct {
			I int `json:"i"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		order = append(order, rec.I)
	}

	for k := 0; k <= len(order); k++ {
		path := fmt.Sprintf("%s/cut-%d.ckpt", dir, k)
		if err := os.WriteFile(path, []byte(strings.Join(lines[:1+k], "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := fleet.New(fleet.Config{Spec: spec, Journal: path})
		if err != nil {
			t.Fatalf("cut after %d records: %v", k, err)
		}
		if done := c.Status().Done; done != k {
			t.Errorf("cut after %d records: %d shards restored", k, done)
		}
		upload := func(i int) string {
			resp, err := c.Upload(fleet.UploadRequest{
				Campaign: c.ID(), Worker: "w", Task: i,
				Hash: fleet.PayloadHash(*shards[i]), Shard: shards[i],
			})
			if err != nil {
				t.Fatalf("cut after %d records: uploading shard %d: %v", k, i, err)
			}
			return resp.Status
		}
		if k > 0 {
			if st := upload(order[k-1]); st != "duplicate" {
				t.Errorf("cut after %d records: re-upload of restored shard %d was %q", k, order[k-1], st)
			}
		}
		for _, i := range order[k:] {
			if st := upload(i); st != "accepted" {
				t.Errorf("cut after %d records: upload of shard %d was %q", k, i, st)
			}
		}
		res, err := c.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if got := csvBytes(t, res); !bytes.Equal(got, baseline) {
			t.Fatalf("cut after %d records: resumed fleet CSV differs from sequential farm CSV", k)
		}
	}
}

// TestLeaseExpiryAndSteal exercises the lease table directly: an
// expired lease is re-granted to the next caller with a higher version
// and the expiry/steal events fire.
func TestLeaseExpiryAndSteal(t *testing.T) {
	obs := newRecObs()
	coord, err := fleet.New(fleet.Config{
		Spec:     fleet.CampaignSpec{Kind: fleet.KindFarm, OS: "winnt", Cap: 30},
		TTL:      50 * time.Millisecond,
		Observer: obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	lr1, err := coord.Lease(fleet.LeaseRequest{Campaign: coord.ID(), Worker: "w1"})
	if err != nil || lr1.Lease == nil {
		t.Fatalf("first lease: %v %+v", err, lr1)
	}
	time.Sleep(120 * time.Millisecond)
	lr2, err := coord.Lease(fleet.LeaseRequest{Campaign: coord.ID(), Worker: "w2"})
	if err != nil || lr2.Lease == nil {
		t.Fatalf("second lease: %v %+v", err, lr2)
	}
	if lr2.Lease.Gen != lr1.Lease.Gen || lr2.Lease.Task != lr1.Lease.Task {
		t.Fatalf("w2 got %d/%d, want the reclaimed %d/%d",
			lr2.Lease.Gen, lr2.Lease.Task, lr1.Lease.Gen, lr1.Lease.Task)
	}
	if lr2.Lease.Version <= lr1.Lease.Version {
		t.Errorf("stolen lease version %d not above original %d", lr2.Lease.Version, lr1.Lease.Version)
	}
	if obs.count("lease_expired") != 1 || obs.count("lease_stolen") != 1 {
		t.Errorf("events: %+v", obs.kinds)
	}
	// A heartbeat keeps w2's lease alive past the TTL.
	time.Sleep(30 * time.Millisecond)
	if _, err := coord.Heartbeat(fleet.HeartbeatRequest{Campaign: coord.ID(), Worker: "w2"}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	lr3, err := coord.Lease(fleet.LeaseRequest{Campaign: coord.ID(), Worker: "w3"})
	if err != nil {
		t.Fatal(err)
	}
	if lr3.Lease != nil && lr3.Lease.Task == lr2.Lease.Task && lr3.Lease.Gen == lr2.Lease.Gen {
		t.Error("heartbeat did not keep w2's lease alive")
	}
}

// TestUploadIdempotency exercises the content-hashed collection rules:
// accepted, deduplicated, conflicting, corrupt and misaddressed
// uploads.
func TestUploadIdempotency(t *testing.T) {
	coord, err := fleet.New(fleet.Config{
		Spec: fleet.CampaignSpec{Kind: fleet.KindFarm, OS: "winnt", Cap: 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coord.Join(fleet.JoinRequest{Name: "w1"})
	lr, err := coord.Lease(fleet.LeaseRequest{Campaign: coord.ID(), Worker: "w1"})
	if err != nil || lr.Lease == nil || lr.Lease.Shard == nil {
		t.Fatalf("lease: %v %+v", err, lr)
	}
	exec, err := ballista.FleetEnv().NewShardExecutor(coord.Spec())
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.RunShard(context.Background(), *lr.Lease.Shard)
	if err != nil {
		t.Fatal(err)
	}
	req := fleet.UploadRequest{
		Campaign: coord.ID(), Worker: "w1",
		Gen: lr.Lease.Gen, Task: lr.Lease.Task, Version: lr.Lease.Version,
		Hash: fleet.PayloadHash(res), Shard: &res,
	}
	resp, err := coord.Upload(req)
	if err != nil || resp.Status != "accepted" {
		t.Fatalf("first upload: %v %+v", err, resp)
	}
	resp, err = coord.Upload(req)
	if err != nil || resp.Status != "duplicate" {
		t.Fatalf("repeat upload: %v %+v", err, resp)
	}

	// Same unit, different (but well-formed) content: conflict.
	altered := res
	flip := byte('1')
	if altered.Classes[0] == '1' {
		flip = '0'
	}
	altered.Classes = string(flip) + altered.Classes[1:]
	creq := req
	creq.Shard = &altered
	creq.Hash = fleet.PayloadHash(altered)
	if _, err := coord.Upload(creq); !errors.Is(err, fleet.ErrConflict) {
		t.Errorf("conflicting upload: %v, want ErrConflict", err)
	}

	// Declared hash that does not match the payload: bad payload.
	breq := req
	breq.Hash = "deadbeef"
	if _, err := coord.Upload(breq); !errors.Is(err, fleet.ErrBadPayload) {
		t.Errorf("corrupt upload: %v, want ErrBadPayload", err)
	}

	ureq := req
	ureq.Task = 9999
	if _, err := coord.Upload(ureq); !errors.Is(err, fleet.ErrUnknownUnit) {
		t.Errorf("unknown unit: %v, want ErrUnknownUnit", err)
	}

	wreq := req
	wreq.Campaign = "0000000000000000"
	if _, err := coord.Upload(wreq); !errors.Is(err, fleet.ErrWrongCampaign) {
		t.Errorf("wrong campaign: %v, want ErrWrongCampaign", err)
	}
}

// TestFleetExplore runs the sequence fuzzer with fleet-remote
// evaluation and requires the report to be identical to the local run —
// the explore side of the determinism contract.
func TestFleetExplore(t *testing.T) {
	cfg := ballista.ExploreConfig{Primary: osprofile.Win98, Seed: 3, Budget: 64}
	local, err := ballista.Explore(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	oses := explore.ResolveOSes(cfg.Primary, nil)
	names := make([]string, len(oses))
	for i, o := range oses {
		names[i] = o.WireName()
	}
	coord, err := fleet.New(fleet.Config{
		Spec: fleet.CampaignSpec{Kind: fleet.KindExplore, OSes: names},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	werr := make(chan error, 1)
	go func() {
		werr <- fleet.RunWorker(ctx, fleet.WorkerConfig{
			Client: fleet.ClientConfig{BaseURL: ts.URL}, Name: "ew1",
			Env: ballista.FleetEnv(), Slots: 2,
		})
	}()

	rcfg := cfg
	rcfg.Remote = coord.RemoteEval()
	remote, err := ballista.Explore(ctx, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	coord.Finish()
	if err := <-werr; err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("explore worker: %v", err)
	}

	lj, err := json.Marshal(local)
	if err != nil {
		t.Fatal(err)
	}
	rj, err := json.Marshal(remote)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lj, rj) {
		t.Errorf("fleet-evaluated explore report differs from local:\nlocal  %s\nremote %s", lj, rj)
	}
}
