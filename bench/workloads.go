package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"

	"ballista"
	"ballista/internal/catalog"
	"ballista/internal/core"
	"ballista/internal/crashsim"
	"ballista/internal/osprofile"
	"ballista/internal/report"
	"ballista/internal/scarce"
	"ballista/internal/suite"
)

// workloadNames lists the workloads in the order "all" runs them.
var workloadNames = []string{"paper-campaign", "scarce-matrix", "crash-seq4", "explore-diff"}

// artifact is one output of a pass, compared byte for byte with its
// reference.
type artifact struct {
	name string
	data []byte
}

// output is what a step, or a whole pass, did: the ops it ran and the
// artifacts it produced.
type output struct {
	ops       int
	artifacts []artifact
}

func (p *output) add(q output) {
	p.ops += q.ops
	p.artifacts = append(p.artifacts, q.artifacts...)
}

// digest identifies a pass's artifacts.
func (p output) digest() string {
	h := sha256.New()
	for _, a := range p.artifacts {
		fmt.Fprintf(h, "%s %d\n", a.name, len(a.data))
		h.Write(a.data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// workload is one benchmark workload at one size.  One pass of it runs
// steps() steps; the runner calibrates the host between steps.
type workload interface {
	// prepare loads the references and does the set-up a run pays before
	// its first op.
	prepare(root string) error
	steps() int
	// step runs step i of a pass: through the public facade when tr is
	// nil, through the traced seams otherwise.
	step(ctx context.Context, i int, tr *tracer) (output, error)
	// check returns how many of a step's ops disagree with the references.
	check(out output) int
}

// newWorkload builds a full-size workload.  The seed orders the
// paper-campaign profiles and is the crash and scarce sweeps' seed;
// explore-diff stays at seed 7 because its cost depends on the seed (a
// 6000-chain campaign takes 8.0, 8.9 and 16.7 s at seeds 7, 8 and 9),
// which would put input variance into the run-to-run spread.  Its budget
// of 2000 chains, the fuzzer's default, keeps a pass near 2.3 s, so a run
// makes several passes and the host is calibrated between them.
func newWorkload(name string, seed uint64, tmp string) (workload, error) {
	switch name {
	case "paper-campaign":
		return &paperCampaign{oses: shuffled(osprofile.All(), seed), cap: core.DefaultCap}, nil
	case "scarce-matrix":
		return &scarceMatrix{seed: seed}, nil
	case "crash-seq4":
		return &crashSeq{seed: seed, maxOps: 4, journalDir: tmp}, nil
	case "explore-diff":
		return &exploreDiff{budget: 2000}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// shuffled returns a seeded permutation of oses (splitmix64-driven
// Fisher-Yates).
func shuffled(oses []osprofile.OS, seed uint64) []osprofile.OS {
	out := append([]osprofile.OS(nil), oses...)
	s := seed
	for i := len(out) - 1; i > 0; i-- {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		j := int(z % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// reportJSON renders a sweep report the way the CLI and the golden
// files do.
func reportJSON(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// seedField matches the seed a sweep report records.
var seedField = regexp.MustCompile(`"seed": [0-9]+`)

// atSeed7 rewrites a report's recorded seeds to 7.  The scarce and crash
// reports depend on the seed only through those fields — scarcity rules
// always fire, and the bytes a crash workload writes never reach a
// verdict — so every seed's report must equal the seed-7 reference once
// rewritten.
func atSeed7(report []byte) []byte {
	return seedField.ReplaceAll(report, []byte(`"seed": 7`))
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// loadRef reads one workload's report digest from bench/testdata/refs.json.
func loadRef(root, name string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "bench", "testdata", "refs.json"))
	if err != nil {
		return "", err
	}
	var refs map[string]string
	if err := json.Unmarshal(data, &refs); err != nil {
		return "", fmt.Errorf("bench/testdata/refs.json: %w", err)
	}
	ref, ok := refs[name]
	if !ok {
		return "", fmt.Errorf("bench/testdata/refs.json has no %q digest", name)
	}
	return ref, nil
}

// warmEngine builds a registry and lists every profile's catalog, so
// lazy initialisation behind them is paid in set-up, where setup_s sees
// it, and not in the first pass.
func warmEngine() {
	_ = suite.NewRegistry()
	for _, o := range osprofile.All() {
		_ = catalog.MuTsFor(o)
	}
}

// paperCampaign is the paper's experiment: each profile's full campaign
// at the 5000-case cap on one farm worker, checked row by row against the
// profile's committed CSV.
type paperCampaign struct {
	oses []osprofile.OS
	cap  int
	refs map[string]map[string]csvRow // by artifact name, then row key
}

// csvRow is one per-MuT row of a campaign CSV.
type csvRow struct {
	line  string
	cases int
}

// csvRows indexes a campaign CSV by (api, mut, wide).
func csvRows(data []byte) (map[string]csvRow, error) {
	recs, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		return nil, err
	}
	rows := make(map[string]csvRow, len(recs))
	for _, r := range recs {
		if len(r) < 6 {
			return nil, fmt.Errorf("short CSV row %q", r)
		}
		cases, _ := strconv.Atoi(r[5]) // the header row counts no cases
		rows[r[1]+"|"+r[3]+"|"+r[4]] = csvRow{line: strings.Join(r, "\x00"), cases: cases}
	}
	return rows, nil
}

func (w *paperCampaign) prepare(root string) error {
	w.refs = make(map[string]map[string]csvRow, len(w.oses))
	for _, o := range w.oses {
		name := o.WireName() + ".csv"
		data, err := os.ReadFile(filepath.Join(root, "bench", "testdata", "paper", name))
		if err != nil {
			return err
		}
		if w.refs[name], err = csvRows(data); err != nil {
			return fmt.Errorf("bench/testdata/paper/%s: %w", name, err)
		}
	}
	warmEngine()
	return nil
}

// steps runs one profile's campaign per step.
func (w *paperCampaign) steps() int { return len(w.oses) }

func (w *paperCampaign) step(ctx context.Context, i int, tr *tracer) (output, error) {
	o := w.oses[i]
	var res *core.OSResult
	var err error
	if tr == nil {
		res, err = ballista.RunFarm(ctx, o, ballista.FarmConfig{Workers: 1}, ballista.WithCap(w.cap))
	} else {
		res, err = tr.runFarm(ctx, o, w.cap)
	}
	if err != nil {
		return output{}, fmt.Errorf("%s campaign: %w", o.WireName(), err)
	}
	var buf bytes.Buffer
	if err := report.WriteMuTCSV(&buf, map[osprofile.OS]*core.OSResult{o: res}); err != nil {
		return output{}, err
	}
	return output{ops: res.CasesRun, artifacts: []artifact{{o.WireName() + ".csv", buf.Bytes()}}}, nil
}

// check fails a MuT's cases when its row differs from the reference row,
// and counts reference rows the step did not produce.
func (w *paperCampaign) check(out output) int {
	failed := 0
	for _, a := range out.artifacts {
		ref := w.refs[a.name]
		got, _ := csvRows(a.data) // an unreadable CSV matches no reference row
		for key, row := range got {
			if r, ok := ref[key]; !ok || r.line != row.line {
				failed += row.cases
			}
		}
		for key, r := range ref {
			if _, ok := got[key]; !ok {
				failed += r.cases
			}
		}
	}
	return failed
}

// scarceMatrix is the default resource-scarcity sweep: 11 environments,
// every catalog MuT, all seven profiles, one worker.  Every probe boots a
// fresh machine.
type scarceMatrix struct {
	seed   uint64
	oses   []osprofile.OS // nil: all seven
	budget int            // 0: the full catalog union
	golden []byte
}

func (w *scarceMatrix) prepare(root string) error {
	var err error
	if w.golden, err = os.ReadFile(filepath.Join(root, "testdata", "scarcesweep-golden.json")); err != nil {
		return err
	}
	warmEngine()
	return nil
}

func (w *scarceMatrix) steps() int { return 1 }

func (w *scarceMatrix) step(ctx context.Context, _ int, tr *tracer) (output, error) {
	cfg := ballista.ScarceConfig{Seed: w.seed, OSes: w.oses, Budget: w.budget, Workers: 1}
	var rep *scarce.Report
	var err error
	if tr == nil {
		rep, err = ballista.ScarceSweep(ctx, cfg)
	} else {
		cfg.Deps = tr.scarceDeps()
		rep, err = scarce.Sweep(ctx, cfg)
	}
	if err != nil {
		return output{}, err
	}
	data, err := reportJSON(rep)
	if err != nil {
		return output{}, err
	}
	return output{ops: rep.Probes, artifacts: []artifact{{"scarce-report.json", data}}}, nil
}

func (w *scarceMatrix) check(out output) int {
	if !bytes.Equal(atSeed7(out.artifacts[0].data), w.golden) {
		return out.ops
	}
	return 0
}

// crashSeq is the crash-consistency sweep over every workload of up to
// maxOps ops on all seven profiles, one worker, journaled to a fresh
// checkpoint when journalDir is set.
type crashSeq struct {
	seed       uint64
	maxOps     int
	journalDir string // parent of each pass's checkpoint directory; "": no journal
	ref        string // sha256 of the seed-7 report
}

func (w *crashSeq) prepare(root string) error {
	var err error
	if w.ref, err = loadRef(root, "crash-seq4"); err != nil {
		return err
	}
	_ = crashsim.Enumerate(crashsim.DefaultNames(), w.maxOps, w.seed, 0)
	return nil
}

func (w *crashSeq) steps() int { return 1 }

func (w *crashSeq) step(ctx context.Context, _ int, tr *tracer) (output, error) {
	var rep *crashsim.Report
	var err error
	if tr == nil {
		cfg := ballista.CrashConfig{Seed: w.seed, MaxOps: w.maxOps, Workers: 1}
		if w.journalDir != "" {
			var dir string
			if dir, err = os.MkdirTemp(w.journalDir, "crash-ckpt-"); err != nil {
				return output{}, err
			}
			defer os.RemoveAll(dir)
			cfg.Checkpoint = filepath.Join(dir, "crash.ckpt")
		}
		rep, err = ballista.CrashSweep(ctx, cfg)
	} else {
		rep, err = tr.crashSweep(ctx, w.seed, w.maxOps)
	}
	if err != nil {
		return output{}, err
	}
	data, err := reportJSON(rep)
	if err != nil {
		return output{}, err
	}
	return output{ops: rep.Workloads, artifacts: []artifact{{"crash-report.json", data}}}, nil
}

func (w *crashSeq) check(out output) int {
	if sha256Hex(atSeed7(out.artifacts[0].data)) != w.ref {
		return out.ops
	}
	return 0
}

// exploreDiff is a coverage-guided differential fuzzing campaign with
// win98 as the coverage OS against all seven profiles, one worker.
type exploreDiff struct {
	budget int
	ref    string // sha256 of the report
}

func (w *exploreDiff) config() ballista.ExploreConfig {
	return ballista.ExploreConfig{Primary: osprofile.Win98, Seed: 7, Budget: w.budget, MaxLen: 8, Workers: 1}
}

func (w *exploreDiff) prepare(root string) error {
	var err error
	if w.ref, err = loadRef(root, "explore-diff"); err != nil {
		return err
	}
	_, err = ballista.NewExplorer(w.config())
	return err
}

func (w *exploreDiff) steps() int { return 1 }

func (w *exploreDiff) step(ctx context.Context, _ int, tr *tracer) (output, error) {
	var rep *ballista.ExploreReport
	var err error
	if tr == nil {
		rep, err = ballista.Explore(ctx, w.config())
	} else {
		rep, err = tr.explore(ctx, w.config())
	}
	if err != nil {
		return output{}, err
	}
	data, err := reportJSON(rep)
	if err != nil {
		return output{}, err
	}
	return output{ops: rep.Executed, artifacts: []artifact{{"explore-report.json", data}}}, nil
}

func (w *exploreDiff) check(out output) int {
	if sha256Hex(out.artifacts[0].data) != w.ref {
		return out.ops
	}
	return 0
}
