package ballista_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"ballista"
	"ballista/internal/telemetry"
)

// stockSinks fans one event stream out to every stock telemetry sink —
// the trace writer, the metrics registry and the event ring — the way
// the CLI's -trace/-metrics-addr runs and every ballistad campaign do.
// read flushes the trace and returns its records.
func stockSinks(t *testing.T) (obs ballista.Observer, read func() []telemetry.TraceRecord) {
	t.Helper()
	var buf bytes.Buffer
	tw := telemetry.NewTraceWriter(&buf)
	obs = telemetry.Multi(tw, telemetry.NewMetrics(), telemetry.NewRing(64))
	return obs, func() []telemetry.TraceRecord {
		t.Helper()
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
		recs, err := telemetry.ReadTrace(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
}

// recordsOf keeps the trace records of one type, in trace order.
func recordsOf(recs []telemetry.TraceRecord, typ string) []telemetry.TraceRecord {
	var out []telemetry.TraceRecord
	for _, rec := range recs {
		if rec.Type == typ {
			out = append(out, rec)
		}
	}
	return out
}

// checkSeqOrder asserts recs carry seq 0, 1, 2, ... in order.
func checkSeqOrder(t *testing.T, recs []telemetry.TraceRecord) {
	t.Helper()
	for i, rec := range recs {
		if rec.Seq == nil || *rec.Seq != i {
			t.Fatalf("record %d carries seq %v, want %d", i, rec.Seq, i)
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestObserversArePureObservation extends the spans determinism oracle
// to the observer path, for every engine: with the stock sinks attached,
// each engine's deterministic output must be byte-identical to its
// nil-observer run, and the trace must hold exactly one record per unit
// of work.  An observer that perturbed scheduling or classification, or
// a sink that dropped an engine's events, shows up here.
func TestObserversArePureObservation(t *testing.T) {
	ctx := context.Background()
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("farm/workers=%d", workers), func(t *testing.T) {
			run := func(obs ballista.Observer) *ballista.Result {
				res, err := ballista.RunFarm(ctx, ballista.WinNT, ballista.FarmConfig{Workers: workers},
					ballista.WithCap(chaosSmokeCap), ballista.WithObserver(obs))
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			bare := run(nil)
			obs, read := stockSinks(t)
			res := run(obs)
			if !bytes.Equal(mutCSV(t, ballista.WinNT, bare), mutCSV(t, ballista.WinNT, res)) {
				t.Error("merged CSV differs with observers attached")
			}
			recs := read()
			if got := len(recordsOf(recs, "case")); got != res.CasesRun {
				t.Errorf("trace holds %d case records, campaign ran %d cases", got, res.CasesRun)
			}
			if got := len(recordsOf(recs, "shard")); got != len(res.Results) {
				t.Errorf("trace holds %d shard records, campaign has %d shards", got, len(res.Results))
			}
		})
	}

	t.Run("crash", func(t *testing.T) {
		run := func(obs ballista.Observer) *ballista.CrashReport {
			rep, err := ballista.CrashSweep(ctx, ballista.CrashConfig{Seed: 7, Workers: 2, Observer: obs})
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}
		bare := run(nil)
		obs, read := stockSinks(t)
		rep := run(obs)
		if !bytes.Equal(crashReportJSON(t, bare), crashReportJSON(t, rep)) {
			t.Error("crash sweep report differs with observers attached")
		}
		if got := len(recordsOf(read(), "crash")); got != rep.Workloads {
			t.Errorf("trace holds %d crash records, sweep evaluated %d workloads", got, rep.Workloads)
		}
	})

	t.Run("scarce", func(t *testing.T) {
		run := func(obs ballista.Observer) *ballista.ScarceReport {
			rep, err := ballista.ScarceSweep(ctx, ballista.ScarceConfig{Seed: 7, Budget: 60, Workers: 2, Observer: obs})
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}
		bare := run(nil)
		obs, read := stockSinks(t)
		rep := run(obs)
		if !bytes.Equal(scarceReportJSON(t, bare), scarceReportJSON(t, rep)) {
			t.Error("scarce sweep report differs with observers attached")
		}
		if got := len(recordsOf(read(), "scarce")); got != rep.Items {
			t.Errorf("trace holds %d scarce records, sweep evaluated %d items", got, rep.Items)
		}
	})

	t.Run("explore", func(t *testing.T) {
		run := func(obs ballista.Observer) *ballista.ExploreReport {
			rep, err := ballista.Explore(ctx, ballista.ExploreConfig{
				Primary: ballista.Win98, Seed: 7, Budget: 150, Workers: 2, Observer: obs,
			})
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}
		bare := run(nil)
		obs, read := stockSinks(t)
		rep := run(obs)
		if !bytes.Equal(mustJSON(t, bare), mustJSON(t, rep)) {
			t.Error("explore report differs with observers attached")
		}
		if got := len(recordsOf(read(), "chain")); got != rep.Executed {
			t.Errorf("trace holds %d chain records, fuzzer executed %d chains", got, rep.Executed)
		}
	})
}

// TestCrashSweepTrace: a crash sweep with a trace writer attached writes
// one "crash" record per workload, in enumeration order, each carrying
// the workload's key, OS set and enumeration sizes.
func TestCrashSweepTrace(t *testing.T) {
	var buf bytes.Buffer
	tw := telemetry.NewTraceWriter(&buf)
	rep, err := ballista.CrashSweep(context.Background(),
		ballista.CrashConfig{Seed: 7, MaxOps: 2, Observer: tw})
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(buf.Bytes(), []byte(`"type":"crash"`)); n != rep.Workloads || rep.Workloads == 0 {
		t.Fatalf("trace holds %d crash lines, sweep evaluated %d workloads", n, rep.Workloads)
	}
	recs, err := telemetry.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != rep.Workloads {
		t.Fatalf("trace holds %d records, want only the %d crash records", len(recs), rep.Workloads)
	}
	checkSeqOrder(t, recs)
	points, states := 0, 0
	for _, rec := range recs {
		if rec.Workload == "" || len(rec.OSes) != len(rep.OSes) {
			t.Fatalf("crash record lost its workload identity: %+v", rec)
		}
		points += rec.CrashPoints
		states += rec.States
	}
	if points != rep.CrashPoints || states != rep.States {
		t.Errorf("crash records sum to %d crash points / %d states, report says %d / %d",
			points, states, rep.CrashPoints, rep.States)
	}
}

// TestScarceSweepTrace: a scarcity sweep with a trace writer attached
// writes one "scarce" record per (MuT, environment) item, in
// enumeration order.
func TestScarceSweepTrace(t *testing.T) {
	var buf bytes.Buffer
	tw := telemetry.NewTraceWriter(&buf)
	rep, err := ballista.ScarceSweep(context.Background(),
		ballista.ScarceConfig{Seed: 7, Budget: 3, Observer: tw})
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(buf.Bytes(), []byte(`"type":"scarce"`)); n != rep.Items || rep.Items == 0 {
		t.Fatalf("trace holds %d scarce lines, sweep evaluated %d items", n, rep.Items)
	}
	recs, err := telemetry.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != rep.Items {
		t.Fatalf("trace holds %d records, want only the %d scarce records", len(recs), rep.Items)
	}
	checkSeqOrder(t, recs)
	crashed := 0
	for _, rec := range recs {
		if rec.MuT == "" || rec.Env == "" || len(rec.OSes) == 0 {
			t.Fatalf("scarce record lost its item identity: %+v", rec)
		}
		crashed += rec.Crashed
	}
	if crashed != rep.Crashed {
		t.Errorf("scarce records sum to %d crashed probes, report says %d", crashed, rep.Crashed)
	}
}
