package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"ballista/internal/osprofile"
)

// TestTracedMatchesFacade runs a small version of each workload twice:
// through the public facade, and through the traced seams with the
// replica runner factories.  The two must produce byte-identical
// outputs, and the traced layers must fit inside the traced wall time.
func TestTracedMatchesFacade(t *testing.T) {
	crashGolden, err := os.ReadFile(filepath.Join("..", "testdata", "crashsweep-golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	two := []osprofile.OS{osprofile.Win98, osprofile.Linux}
	cases := []struct {
		name  string
		w     workload
		layer string // a layer the workload must exercise
		want  []byte // the facade's expected output, when committed
	}{
		{"paper-campaign", &paperCampaign{oses: two, cap: 20}, "suite.fixture", nil},
		{"scarce-matrix", &scarceMatrix{seed: 7, oses: two, budget: 5}, "suite.registry", nil},
		{"crash-seq2", &crashSeq{seed: 7, maxOps: 2, journalDir: t.TempDir()}, "crashsim.evaluate", crashGolden},
		{"explore-diff", &exploreDiff{budget: 40}, "api.dispatch", nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			plain, err := runPass(c.w, nil)
			if err != nil {
				t.Fatal(err)
			}
			if c.want != nil && !bytes.Equal(plain.artifacts[0].data, c.want) {
				t.Errorf("facade output differs from the committed reference")
			}
			tr := newTracer(c.name)
			traced, err := runPass(c.w, tr)
			if err != nil {
				t.Fatal(err)
			}
			if plain.ops != traced.ops || plain.digest() != traced.digest() {
				t.Errorf("traced outputs (%d ops) differ from facade outputs (%d ops)", traced.ops, plain.ops)
			}
			m := tr.metrics()
			if m[c.layer+".calls"] == 0 {
				t.Errorf("%s was never called", c.layer)
			}
			if m["engine.residual.s"] < 0 {
				t.Errorf("traced layers add up to %v s more than the wall time", -m["engine.residual.s"])
			}
		})
	}
}

// runPass runs every step of one pass.
func runPass(w workload, tr *tracer) (output, error) {
	var pass output
	for i := 0; i < w.steps(); i++ {
		_, so, err := timedStep(context.Background(), w, i, tr)
		if err != nil {
			return output{}, err
		}
		pass.add(so)
	}
	if tr != nil {
		tr.passes = 1
	}
	return pass, nil
}

// TestMetricsMatchSpec checks that the runner measures exactly the
// workloads and metrics BENCHMARK.json lists.
func TestMetricsMatchSpec(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Errorf("BENCHMARK.json lists %d workloads, the runner %d", len(spec.Workloads), len(workloadNames))
	}
	for _, n := range workloadNames {
		if !spec.hasWorkload(n) {
			t.Errorf("workload %s is not in BENCHMARK.json", n)
		}
	}
	one := launched{
		steps: []stepStat{{Ops: 1, WallS: 1, CPUS: 1, AllocBytes: 1, Allocs: 1}},
		slow:  []float64{1},
		res:   childResult{Passes: 1},
	}
	scaled, raw := endToEndMetrics(one, []float64{1}, 1)
	if _, err := label(spec.EndToEnd, scaled); err != nil {
		t.Error(err)
	}
	if _, err := label(spec.EndToEnd, raw); err != nil {
		t.Error(err)
	}

	prev := flag.Lookup("test.benchtime").Value.String()
	if err := flag.Set("test.benchtime", "1x"); err != nil {
		t.Fatal(err)
	}
	defer flag.Set("test.benchtime", prev)
	layers, err := microMetrics()
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer("spec")
	tr.passes, tr.wall = 1, 1
	for k, v := range tr.metrics() {
		layers[k] = v
	}
	one.res.Layers = layers
	if _, err := label(spec.PerLayer, layerMetrics(one, one)); err != nil {
		t.Error(err)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	got := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if want := [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
}

// TestCompare checks that -compare gates on the bounds and refuses
// results from different hosts.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name, cpu string, rate float64) string {
		rec := record{Host: host{NProc: 2, CPU: cpu}, Workload: "scarce-matrix",
			Result: result{Metrics: map[string]metric{"units_per_s": {Value: rate}}}}
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, append(line, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a", "x", 1000)
	for _, c := range []struct {
		name    string
		b       string
		wantErr bool
	}{
		{"within bound", write("b1", "x", 900), false},
		{"worse than bound", write("b2", "x", 700), true},
		{"other host", write("b3", "y", 1000), true},
	} {
		err := runCompare(io.Discard, "..", []string{base, "--", c.b})
		if (err != nil) != c.wantErr {
			t.Errorf("%s: err = %v", c.name, err)
		}
	}
}

// BenchmarkMicro runs the per-layer micro-benchmarks the traced run
// reports as micro.*.
func BenchmarkMicro(b *testing.B) {
	for _, mb := range micros {
		b.Run(mb.name, mb.fn)
	}
}
