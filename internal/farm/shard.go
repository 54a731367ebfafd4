package farm

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"sync"

	"ballista/internal/catalog"
	"ballista/internal/core"
	"ballista/internal/osprofile"
)

// ShardDesc identifies one unit of campaign scheduling in wire form: a
// full (MuT, wide) campaign at its position in the stable catalog order
// a sequential Runner.RunAll visits.  The farm schedules these across a
// worker pool in-process; the fleet coordinator leases the exact same
// descriptors to worker processes over HTTP, so a shard's identity — and
// therefore its outcome — is the same no matter where it runs.
type ShardDesc struct {
	Index int    `json:"shard"`
	MuT   string `json:"mut"`
	Wide  bool   `json:"wide,omitempty"`
}

// ShardDescs lists one OS variant's campaign schedule: each supported
// MuT, with the UNICODE variant immediately after its narrow twin where
// the OS prefers wide.
func ShardDescs(o osprofile.OS) []ShardDesc {
	return shardDescs(o, osprofile.Get(o))
}

func shardDescs(o osprofile.OS, profile *osprofile.Profile) []ShardDesc {
	var out []ShardDesc
	for _, m := range catalog.MuTsFor(o) {
		out = append(out, ShardDesc{Index: len(out), MuT: m.Name})
		if profile.Traits.WidePreferred && m.HasWide {
			out = append(out, ShardDesc{Index: len(out), MuT: m.Name, Wide: true})
		}
	}
	return out
}

// ShardResult is a completed shard's outcome in wire/journal form.
// Classes and Exceptional pack one character per test case ('0'-'5'
// CRASH class digits, '0'/'1' flags, see core.PackClasses) so a
// 5000-case shard is one short line, not 5000 JSON numbers.  The packed
// form is shared with the content-addressed result store.
type ShardResult struct {
	Classes     string `json:"classes"`
	Exceptional string `json:"exceptional"`
	Incomplete  bool   `json:"incomplete,omitempty"`
	Reboots     int    `json:"reboots,omitempty"`
}

// EncodeShardResult packs one MuT campaign outcome and the reboot count
// of its machine epoch.
func EncodeShardResult(res *core.MuTResult, reboots int) ShardResult {
	return ShardResult{
		Classes:     core.PackClasses(res.Cases),
		Exceptional: core.PackFlags(res.Exceptional),
		Incomplete:  res.Incomplete,
		Reboots:     reboots,
	}
}

// Decode unpacks the result against its descriptor, resolving the MuT
// through the shared MuT index and validating the packed strings.
func (sr ShardResult) Decode(o osprofile.OS, d ShardDesc) (*core.MuTResult, error) {
	m, ok := lookupMuT(o, d.MuT)
	if !ok {
		return nil, fmt.Errorf("farm: shard %d: %q is not tested on %s", d.Index, d.MuT, o)
	}
	res, err := sr.unpack()
	if err != nil {
		return nil, fmt.Errorf("farm: shard %d: %w", d.Index, err)
	}
	res.MuT, res.Wide = m, d.Wide
	return res, nil
}

// unpack validates and unpacks the packed strings into a result that
// does not yet name its MuT.
func (sr ShardResult) unpack() (*core.MuTResult, error) {
	classes, err := core.UnpackClasses(sr.Classes)
	if err != nil {
		return nil, err
	}
	if len(sr.Exceptional) != len(sr.Classes) {
		return nil, fmt.Errorf("%d classes but %d exceptional flags", len(sr.Classes), len(sr.Exceptional))
	}
	return &core.MuTResult{
		Cases:       classes,
		Exceptional: core.UnpackFlags(sr.Exceptional),
		Incomplete:  sr.Incomplete,
	}, nil
}

// outcome is one completed shard in the farm's sweep: its result and
// the reboot count of its machine epoch.  Its journal form is its
// ShardResult, packed only when it is marshalled, so a campaign without
// a checkpoint never packs a shard.  A restored outcome is unpacked and
// validated as the journal is replayed (a record that fails is refused)
// and names no MuT; Run names it from its descriptor.
type outcome struct {
	res     *core.MuTResult
	reboots int
}

func (o *outcome) MarshalJSON() ([]byte, error) {
	return json.Marshal(EncodeShardResult(o.res, o.reboots))
}

func (o *outcome) UnmarshalJSON(data []byte) error {
	var sr ShardResult
	if err := json.Unmarshal(data, &sr); err != nil {
		return err
	}
	res, err := sr.unpack()
	if err != nil {
		return err
	}
	o.res, o.reboots = res, sr.Reboots
	return nil
}

// campaignID fingerprints a farm campaign for its journal header: the OS,
// the cap and the shard list.  A journal written for any other campaign
// carries another ID and is refused.
func campaignID(osName string, cap int, descs []ShardDesc) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d", osName, cap)
	for _, d := range descs {
		fmt.Fprintf(h, "|%d,%s,%t", d.Index, d.MuT, d.Wide)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// MergeShardResults reassembles the deterministic OSResult a farm (or
// sequential) campaign produces from per-shard wire results, in shard
// order: results in stable catalog order, CasesRun summed over executed
// cases, Reboots summed over per-shard reboot epochs.  results must hold
// one entry per descriptor.
func MergeShardResults(o osprofile.OS, descs []ShardDesc, results []ShardResult) (*core.OSResult, error) {
	if len(descs) != len(results) {
		return nil, fmt.Errorf("farm: merging %d results against %d shards", len(results), len(descs))
	}
	out := &core.OSResult{OS: osprofile.Get(o).Name}
	for i, d := range descs {
		mr, err := results[i].Decode(o, d)
		if err != nil {
			return nil, err
		}
		out.Results = append(out.Results, mr)
		out.CasesRun += mr.Executed()
		out.Reboots += results[i].Reboots
	}
	return out, nil
}

// Executor runs shard descriptors on demand — the execution engine
// behind every farm worker and every fleet worker slot.  It owns one
// runner whose machine is reset between shards, so every shard starts
// on a freshly booted kernel and its outcome depends only on the
// descriptor (the farm's determinism contract), no matter which process
// runs it or in what order.  Not safe for concurrent use; a farm or a
// fleet worker running shards in parallel owns one Executor per worker.
type Executor struct {
	cfg      Config
	reg      *core.Registry
	dispatch core.Dispatcher
	fixture  core.Fixture
	runner   *core.Runner
	// spanParent is the enclosing fleet unit span, when the worker runs
	// with a flight recorder.
	spanParent uint64
}

// NewExecutor assembles an executor from the same pieces core.NewRunner
// takes.
func NewExecutor(cfg Config, reg *core.Registry, dispatch core.Dispatcher, fixture core.Fixture) *Executor {
	if cfg.Cap <= 0 {
		cfg.Cap = core.DefaultCap
	}
	return &Executor{cfg: cfg, reg: reg, dispatch: dispatch, fixture: fixture}
}

// mutIndex is every catalog MuT — Win32, POSIX and C library — sorted by
// name, built once and shared read-only by every decoder, farm and
// executor.  One index for all OSes rather than one map per OS: a
// campaign's heap is a few megabytes, and seven retained per-OS maps
// (343 KB) make the collector run measurably more often.
var mutIndex = sync.OnceValue(func() []catalog.MuT {
	all := append(append(catalog.Win32MuTs(), catalog.POSIXMuTs()...), catalog.CLibMuTs()...)
	slices.SortStableFunc(all, func(a, b catalog.MuT) int { return strings.Compare(a.Name, b.Name) })
	return all
})

// lookupMuT returns the MuT named name in o's catalog.  A name can
// belong to two surfaces (the socket calls are both Win32 and POSIX);
// catalog.Supported keeps o's, exactly as it does for catalog.MuTsFor.
func lookupMuT(o osprofile.OS, name string) (catalog.MuT, bool) {
	all := mutIndex()
	i, _ := slices.BinarySearchFunc(all, name, func(m catalog.MuT, name string) int { return strings.Compare(m.Name, name) })
	for ; i < len(all) && all[i].Name == name; i++ {
		if catalog.Supported(o, all[i]) {
			return all[i], true
		}
	}
	return catalog.MuT{}, false
}

// SetSpanParent links the runner's mut spans under an enclosing span —
// the fleet worker's per-lease unit span.
func (e *Executor) SetSpanParent(id uint64) { e.spanParent = id }

// RunShard executes one descriptor on a freshly booted machine and packs
// its outcome.
func (e *Executor) RunShard(ctx context.Context, d ShardDesc) (ShardResult, error) {
	res, reboots, err := e.run(ctx, d)
	if err != nil {
		return ShardResult{}, err
	}
	return EncodeShardResult(res, reboots), nil
}

// run executes one descriptor on the executor's runner, booting it on
// first use, and resets the machine afterwards so the next shard starts
// fresh.  It returns the shard's result and the reboot count of its
// machine epoch.
func (e *Executor) run(ctx context.Context, d ShardDesc) (*core.MuTResult, int, error) {
	m, ok := lookupMuT(e.cfg.OS, d.MuT)
	if !ok {
		return nil, 0, fmt.Errorf("farm: shard %d: %q is not tested on %s", d.Index, d.MuT, e.cfg.OS)
	}
	if e.runner == nil {
		e.runner = core.NewRunner(e.cfg.Config, e.reg, e.dispatch, e.fixture)
	}
	e.runner.SetSpanParent(e.spanParent)
	res, err := e.runner.RunMuT(ctx, m, d.Wide)
	if err != nil {
		return nil, 0, err
	}
	return res, e.runner.ResetMachine(), nil
}
