// Command bench is the repository benchmark.  It runs four workloads —
// the paper's campaign, the resource-scarcity sweep, the crash-consistency
// sweep and the differential sequence fuzzer — each in a child process
// with one engine worker, through the public facade, and checks every
// output against a committed reference.  BENCHMARK.json at the
// repository root names the workloads and metrics; README.md in this
// directory says why each was chosen.
//
// Run it from the repository root:
//
//	bash bench/run.sh --workload paper-campaign --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --workload all --trace 1
//	bash bench/run.sh -compare a.jsonl -- b.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.  With --trace 0 the metrics are
// the end-to-end metrics of an untraced run; with --trace 1 they are the
// per-layer metrics of a traced run.  Every run also appends a record,
// with a block describing the host, to bench-out/results.jsonl.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"ballista/internal/version"
)

// setupLaunches is how many set-up-only children a run times for
// setup_s; the median of several damps the host's exec jitter.
const setupLaunches = 5

// microBenchtime is each micro-benchmark's run length in a traced run.
const microBenchtime = "100ms"

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 15, "how long one run measures")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced run")
	compare := fs.Bool("compare", false, "compare result files: -compare A... -- B...")
	child := fs.String("child", "", "run as a workload child: setup, run or traced")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	switch {
	case *compare:
		err = runCompare(os.Stdout, root, fs.Args())
	case *child == "setup" || *child == "run" || *child == "traced":
		err = runChild(ctx, root, *name, *seed, *seconds, *child)
	case *child != "":
		err = fmt.Errorf("unknown child mode %q", *child)
	default:
		var ok bool
		ok, err = runParent(ctx, root, *name, *seed, *seconds, *trace == 1)
		if err == nil && !ok {
			return 1
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// findRoot locates the repository root from the repository root itself
// or from the bench directory (where go test runs).
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "bench", "go.mod")); err == nil {
			return dir, nil
		}
	}
	return "", errors.New("run from the repository root: bench/go.mod not found")
}

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the runner reads: it is the
// one place metric names and units are defined.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// label gives measured values their units, and fails unless the values
// are exactly the metrics the spec lists.
func label(specs []metricSpec, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", s.Name, v)
		}
		out[s.Name] = metric{Value: v, Unit: s.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not in BENCHMARK.json", name)
		}
	}
	return out, nil
}

// host describes the machine a result was measured on; results from
// different hosts are not compared.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
}

func thisHost() host {
	return host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: cpuModel(), Go: runtime.Version()}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// record is one run as bench-out/results.jsonl keeps it.
type record struct {
	Host     host    `json:"host"`
	Stamp    string  `json:"stamp"`
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	// Slowdown is the host's calibrated slowdown against the reference,
	// and Raw holds the end-to-end values before scaling by it.
	Slowdown float64            `json:"slowdown"`
	Raw      map[string]float64 `json:"raw,omitempty"`
	Result   result             `json:"result"`
}

func appendRecord(root string, rec record) error {
	dir := filepath.Join(root, "bench-out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, "results.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runParent runs one workload, or all of them, and prints the result
// line of each.  It reports whether every run was correct.
func runParent(ctx context.Context, root, name string, seed uint64, seconds float64, traced bool) (bool, error) {
	spec, err := loadSpec(root)
	if err != nil {
		return false, err
	}
	names := []string{name}
	if name == "all" {
		names = workloadNames
	}
	allOK := true
	for _, n := range names {
		if !spec.hasWorkload(n) {
			return false, fmt.Errorf("workload %q is not in BENCHMARK.json", n)
		}
		m, err := runWorkload(ctx, spec, n, seed, seconds, traced)
		if err != nil {
			return false, fmt.Errorf("%s: %w", n, err)
		}
		res := m.result
		rec := record{
			Host: thisHost(), Stamp: version.Stamp(), Workload: n, Seed: seed, Seconds: seconds, Trace: traced,
			Slowdown: m.slowdown, Raw: m.raw, Result: res,
		}
		if err := appendRecord(root, rec); err != nil {
			return false, err
		}
		line, err := json.Marshal(res)
		if err != nil {
			return false, err
		}
		if len(names) > 1 {
			fmt.Printf("# %s\n", n)
		}
		fmt.Println(string(line))
		allOK = allOK && res.Correct
	}
	return allOK, nil
}

// measured is one workload run: its result line, the host's
// calibrated slowdown against the reference, and the end-to-end values
// before scaling by it.
type measured struct {
	result   result
	slowdown float64
	raw      map[string]float64
}

// runWorkload measures one workload.  An untraced run times set-up in
// setupLaunches set-up-only children, with a calibration before and
// after, then measures one child.  A traced run measures one child that
// runs every step twice, untraced and then traced, and reports the layer
// metrics, the tracing overhead between the two, and whether their
// outputs are identical.
func runWorkload(ctx context.Context, spec *benchSpec, name string, seed uint64, seconds float64, traced bool) (measured, error) {
	if !traced {
		before := calibrate()
		setups := make([]float64, setupLaunches)
		for i := range setups {
			c, err := launch(ctx, name, seed, seconds, "setup")
			if err != nil {
				return measured{}, err
			}
			setups[i] = c.setup
		}
		setupSlow := slowdown(before, calibrate())
		c, err := launch(ctx, name, seed, seconds, "run")
		if err != nil {
			return measured{}, err
		}
		scaled, raw := endToEndMetrics(c, setups, setupSlow)
		metrics, err := label(spec.EndToEnd, scaled)
		if err != nil {
			return measured{}, err
		}
		res := result{Correct: c.res.Failed == 0, Attempted: c.res.Ops, Failed: c.res.Failed, Metrics: metrics}
		return measured{result: res, slowdown: c.sum().slowdown(), raw: raw}, nil
	}

	c, err := launch(ctx, name, seed, seconds, "traced")
	if err != nil {
		return measured{}, err
	}
	tc := c.only(true)
	layers := layerMetrics(c.only(false), tc)
	metrics, err := label(spec.PerLayer, layers)
	if err != nil {
		return measured{}, err
	}
	correct := c.res.Failed == 0
	if c.res.Digest != c.res.TracedDigest {
		fmt.Fprintln(os.Stderr, "bench: traced outputs differ from untraced outputs")
		correct = false
	}
	if layers["engine.residual.s"] < 0 {
		fmt.Fprintln(os.Stderr, "bench: traced layers add up to more than the wall time")
		correct = false
	}
	res := result{Correct: correct, Attempted: c.res.Ops, Failed: c.res.Failed, Metrics: metrics}
	return measured{result: res, slowdown: tc.sum().slowdown()}, nil
}

// endToEndMetrics names an untraced child's measurements, scaled to the
// reference host speed and as measured; the per-op figures are medians
// over the child's passes.  setupSlow is the host's slowdown while the
// set-up children ran.
func endToEndMetrics(c launched, setups []float64, setupSlow float64) (scaled, raw map[string]float64) {
	raw = map[string]float64{
		"units_per_s":          1 / c.perOp(func(t totals) float64 { return t.wall }),
		"cpu_us_per_unit":      c.perOp(func(t totals) float64 { return t.cpu * 1e6 }),
		"alloc_bytes_per_unit": c.perOp(func(t totals) float64 { return float64(t.allocBytes) }),
		"allocs_per_unit":      c.perOp(func(t totals) float64 { return float64(t.allocs) }),
		"peak_rss_mb":          c.peakRSSMB,
		"setup_s":              median(setups),
	}
	scaled = make(map[string]float64, len(raw))
	for k, v := range raw {
		scaled[k] = v
	}
	scaled["units_per_s"] = 1 / c.perOp(func(t totals) float64 { return t.refWall })
	scaled["cpu_us_per_unit"] = c.perOp(func(t totals) float64 { return t.refCPU * 1e6 })
	scaled["setup_s"] = raw["setup_s"] / setupSlow
	return scaled, raw
}

// layerMetrics adds to a traced child's layer metrics the two that need
// its untraced steps as well.
func layerMetrics(plain, traced launched) map[string]float64 {
	layers := make(map[string]float64, len(traced.res.Layers)+2)
	for k, v := range traced.res.Layers {
		layers[k] = v
	}
	layers["trace.overhead"] = traceOverhead(plain, traced)
	// The traced crash sweep has no checkpoint journal, so the part of an
	// untraced pass, at the traced steps' host speed, that the timed crash
	// layers do not cover is the merge and the journal.
	layers["crashsim.merge_journal.s"] = 0
	if layers["crashsim.evaluate.calls"] > 0 {
		refPass := plain.perPass(func(t totals) float64 { return t.refWall })
		layers["crashsim.merge_journal.s"] = refPass*traced.sum().slowdown() -
			layers["crashsim.enumerate.s"] - layers["crashsim.evaluate.s"] - layers["crashsim.minimize.s"]
	}
	return layers
}

// traceOverhead is the median, over pairs of the same step run untraced
// and traced, of how much longer the traced run took at reference speed.
// Pairing adjacent steps cancels most of the host's drift.
func traceOverhead(plain, traced launched) float64 {
	type key struct{ pass, step int }
	untraced := make(map[key]float64, len(plain.steps))
	for i, s := range plain.steps {
		untraced[key{s.Pass, s.Step}] = s.WallS / plain.slow[i]
	}
	var ratios []float64
	for i, s := range traced.steps {
		if u, ok := untraced[key{s.Pass, s.Step}]; ok {
			ratios = append(ratios, s.WallS/traced.slow[i]/u)
		}
	}
	return median(ratios) - 1
}

// launched is one finished child.
type launched struct {
	setup     float64 // seconds from exec to the child's "ready" line
	peakRSSMB float64
	steps     []stepStat
	// slow[i] is the host's slowdown during step i, from the
	// calibrations just before and just after it.
	slow []float64
	res  childResult
}

// totals sums steps; refWall and refCPU are the wall and CPU seconds
// scaled to the reference host speed step by step.
type totals struct {
	ops                        int
	wall, cpu, refWall, refCPU float64
	allocBytes, allocs         uint64
}

func (t *totals) add(s stepStat, slow float64) {
	t.ops += s.Ops
	t.wall += s.WallS
	t.cpu += s.CPUS
	t.refWall += s.WallS / slow
	t.refCPU += s.CPUS / slow
	t.allocBytes += s.AllocBytes
	t.allocs += s.Allocs
}

// slowdown is the host's mean slowdown over the steps, weighted by time.
func (t totals) slowdown() float64 { return t.wall / t.refWall }

// only keeps the child's traced steps, or its untraced ones.
func (l launched) only(traced bool) launched {
	out := l
	out.steps, out.slow = nil, nil
	for i, s := range l.steps {
		if s.Traced == traced {
			out.steps = append(out.steps, s)
			out.slow = append(out.slow, l.slow[i])
		}
	}
	return out
}

// sum totals all of a child's steps.
func (l launched) sum() totals {
	var t totals
	for i, s := range l.steps {
		t.add(s, l.slow[i])
	}
	return t
}

// perPass totals a child's steps pass by pass and returns the median of
// f over the passes.
func (l launched) perPass(f func(totals) float64) float64 {
	var passes []totals
	for i, s := range l.steps {
		for len(passes) <= s.Pass {
			passes = append(passes, totals{})
		}
		passes[s.Pass].add(s, l.slow[i])
	}
	xs := make([]float64, len(passes))
	for i, t := range passes {
		xs[i] = f(t)
	}
	return median(xs)
}

// perOp is the median over passes of f per op.
func (l launched) perOp(f func(totals) float64) float64 {
	return l.perPass(func(t totals) float64 { return f(t) / float64(t.ops) })
}

// launch runs one workload child and waits for it to exit.  The child
// says "wait" before each step and runs it when told "go", so the host
// is calibrated between every two steps while the child sits idle.
func launch(ctx context.Context, name string, seed uint64, seconds float64, mode string) (launched, error) {
	exe, err := os.Executable()
	if err != nil {
		return launched{}, err
	}
	cmd := exec.CommandContext(ctx, exe, "-child", mode, "-workload", name,
		"-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return launched{}, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return launched{}, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return launched{}, err
	}
	var out launched
	var cals [][]float64
	var last string
	var ready bool
	var protoErr error
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "ready":
			out.setup = time.Since(start).Seconds()
			ready = true
		case line == "wait":
			cals = append(cals, calibrate())
			if _, err := io.WriteString(stdin, "go\n"); err != nil && protoErr == nil {
				protoErr = err
			}
		case strings.HasPrefix(line, "step "):
			var s stepStat
			if err := json.Unmarshal([]byte(line[len("step "):]), &s); err != nil && protoErr == nil {
				protoErr = err
			}
			out.steps = append(out.steps, s)
		default:
			last = line
		}
	}
	stdin.Close()
	if err := cmd.Wait(); err != nil {
		return launched{}, fmt.Errorf("%s child: %w", mode, err)
	}
	if protoErr != nil {
		return launched{}, fmt.Errorf("%s child: %w", mode, protoErr)
	}
	if !ready {
		return launched{}, fmt.Errorf("%s child exited without getting ready", mode)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		out.peakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if mode == "setup" {
		return out, nil
	}
	if len(out.steps) == 0 || len(cals) != len(out.steps) {
		return launched{}, fmt.Errorf("%s child reported %d steps after %d waits", mode, len(out.steps), len(cals))
	}
	cals = append(cals, calibrate())
	for i := range out.steps {
		out.slow = append(out.slow, slowdown(cals[i], cals[i+1]))
	}
	if err := json.Unmarshal([]byte(last), &out.res); err != nil {
		return launched{}, fmt.Errorf("%s child result: %w", mode, err)
	}
	return out, nil
}

// childResult is what a workload child reports after its steps.  Digest
// identifies the last untraced pass's outputs, TracedDigest the last
// traced pass's.
type childResult struct {
	Ops          int                `json:"ops"`
	Failed       int                `json:"failed"`
	Passes       int                `json:"passes"`
	Digest       string             `json:"digest"`
	TracedDigest string             `json:"traced_digest,omitempty"`
	Layers       map[string]float64 `json:"layers,omitempty"`
}

// stepStat is one measured step.
type stepStat struct {
	Pass       int     `json:"pass"`
	Step       int     `json:"step"`
	Traced     bool    `json:"traced,omitempty"`
	Ops        int     `json:"ops"`
	WallS      float64 `json:"wall_s"`
	CPUS       float64 `json:"cpu_s"`
	AllocBytes uint64  `json:"alloc_bytes"`
	Allocs     uint64  `json:"allocs"`
}

// runChild prepares a workload, says "ready", and unless mode is "setup"
// runs whole passes until about seconds of measured time have gone,
// always at least one: it stops once the next pass would end more than
// half a pass late.  Before each step it says "wait" and waits for the
// runner's "go".  In mode "traced" it runs each step both untraced and
// traced, alternating which goes first so that neither inherits the
// other's warm state every time, and counts only the untraced time
// against seconds.
func runChild(ctx context.Context, root, name string, seed uint64, seconds float64, mode string) error {
	out := filepath.Join(root, "bench-out")
	tmp := filepath.Join(out, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	w, err := newWorkload(name, seed, tmp)
	if err != nil {
		return err
	}
	if err := w.prepare(root); err != nil {
		return err
	}
	fmt.Println("ready")
	if mode == "setup" {
		return nil
	}

	var res childResult
	tracers := []*tracer{nil}
	if mode == "traced" {
		testing.Init()
		if err := flag.Set("test.benchtime", microBenchtime); err != nil {
			return err
		}
		if res.Layers, err = microMetrics(); err != nil {
			return err
		}
		tracers = append(tracers, newTracer(name))
	}
	in := bufio.NewScanner(os.Stdin)
	measuredS := 0.0
	for {
		passes := make([]output, len(tracers))
		for i := 0; i < w.steps(); i++ {
			for k := range tracers {
				j := k
				if (res.Passes+i)%2 == 1 {
					j = len(tracers) - 1 - k
				}
				tr := tracers[j]
				fmt.Println("wait")
				if !in.Scan() {
					return errors.New("the runner stopped answering")
				}
				st, so, err := timedStep(ctx, w, i, tr)
				if err != nil {
					return err
				}
				st.Pass, st.Step, st.Traced = res.Passes, i, tr != nil
				if failed := w.check(so); failed > 0 {
					dir, err := dumpArtifacts(out, name, so)
					if err != nil {
						return err
					}
					fmt.Fprintf(os.Stderr, "bench: %s: %d of %d ops differ from the references; outputs written to %s\n",
						name, failed, so.ops, dir)
					res.Failed += failed
				}
				passes[j].add(so)
				res.Ops += so.ops
				if tr == nil {
					measuredS += st.WallS
				}
				line, err := json.Marshal(st)
				if err != nil {
					return err
				}
				fmt.Printf("step %s\n", line)
			}
		}
		res.Digest = passes[0].digest()
		if tr := tracers[len(tracers)-1]; tr != nil {
			res.TracedDigest = passes[len(passes)-1].digest()
		}
		res.Passes++
		if measuredS*(1+0.5/float64(res.Passes)) >= seconds {
			break
		}
	}
	if tr := tracers[len(tracers)-1]; tr != nil {
		tr.passes = res.Passes
		for k, v := range tr.metrics() {
			res.Layers[k] = v
		}
		if err := tr.writeSpans(filepath.Join(out, "trace.jsonl")); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// timedStep runs one step and measures its wall time, its process CPU
// time (user + system, every thread) and its heap allocations.
func timedStep(ctx context.Context, w workload, i int, tr *tracer) (stepStat, output, error) {
	var ru0, ru1 syscall.Rusage
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru0); err != nil {
		return stepStat{}, output{}, err
	}
	start := time.Now()
	if tr != nil {
		tr.beginStep()
	}
	so, err := w.step(ctx, i, tr)
	wall := time.Since(start)
	if tr != nil {
		tr.endStep(wall)
	}
	if err != nil {
		return stepStat{}, output{}, err
	}
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru1); err != nil {
		return stepStat{}, output{}, err
	}
	runtime.ReadMemStats(&m1)
	if so.ops == 0 {
		return stepStat{}, output{}, errors.New("step ran no ops")
	}
	cpu := func(ru *syscall.Rusage) time.Duration {
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return stepStat{
		Ops:        so.ops,
		WallS:      wall.Seconds(),
		CPUS:       (cpu(&ru1) - cpu(&ru0)).Seconds(),
		AllocBytes: m1.TotalAlloc - m0.TotalAlloc,
		Allocs:     m1.Mallocs - m0.Mallocs,
	}, so, nil
}

// dumpArtifacts writes a failing pass's outputs for inspection.
func dumpArtifacts(out, name string, po output) (string, error) {
	dir := filepath.Join(out, "mismatch", name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	for _, a := range po.artifacts {
		if err := os.WriteFile(filepath.Join(dir, a.name), a.data, 0o644); err != nil {
			return "", err
		}
	}
	return dir, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
