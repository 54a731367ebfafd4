package scarce

import (
	"context"
	"fmt"
	"hash/fnv"
	"strings"

	"ballista/internal/catalog"
	"ballista/internal/core"
	"ballista/internal/osprofile"
	"ballista/internal/sweep"
	"ballista/internal/telemetry/span"
)

// Config parameterizes one resource-scarcity sweep.
type Config struct {
	// OSes is the differential set (default: all seven profiles).
	OSes []osprofile.OS
	// Envs is the scarcity-environment matrix (default: DefaultEnvs).
	Envs []Env
	// Seed parameterizes the chaos plans (scarcity rules always fire,
	// so the seed only matters for reproducer bookkeeping).
	Seed uint64
	// Budget caps the MuT union (0 = the full catalog).
	Budget int
	// Workers sets evaluation parallelism (default 1).  The report is
	// byte-identical for any value: every probe runs on a fresh machine
	// and the merge is in enumeration order.
	Workers int
	// Checkpoint, when non-empty, journals per-item results to this
	// JSONL file so a killed sweep resumes without re-evaluating.
	Checkpoint string
	// Observer receives ScarceEvents if it implements core.ScarceObserver.
	Observer core.Observer
	// Spans, when non-nil, records sweep/item spans.
	Spans *span.Recorder
	// Deps supplies the execution substrate (required).
	Deps *Deps
}

// Report is one sweep's deterministic summary: totals plus the
// deduped, minimized findings in enumeration order.
type Report struct {
	Seed       uint64     `json:"seed"`
	OSes       []string   `json:"oses"`
	Envs       []string   `json:"envs"`
	MuTs       int        `json:"muts"`
	Items      int        `json:"items"`
	Probes     int        `json:"probes"`
	Crashed    int        `json:"crashed"`
	Leaked     int        `json:"leaked"`
	Ungraceful int        `json:"ungraceful"`
	Divergent  int        `json:"divergent"`
	Violating  int        `json:"violating"`
	Findings   []*Finding `json:"findings"`
}

// item is one (environment, MuT) cell of the sweep matrix, with the
// supporting OS subset in configuration order.
type item struct {
	env  Env
	m    catalog.MuT
	oses []osprofile.OS
}

// enumerate builds the item list: environment-major over the MuT union
// across the OS set.  The union is keyed (API, name) in first-seen
// order — OS order first, catalog order within an OS — so enumeration
// is deterministic and Budget truncates a stable prefix.
func enumerate(deps *Deps, envs []Env, oses []osprofile.OS, budget int) ([]item, int) {
	type entry struct {
		m    catalog.MuT
		oses []osprofile.OS
	}
	var order []string
	byKey := make(map[string]*entry)
	for _, o := range oses {
		for _, m := range deps.MuTs(o) {
			k := apiWire(m.API) + "|" + m.Name
			e, ok := byKey[k]
			if !ok {
				e = &entry{m: m}
				byKey[k] = e
				order = append(order, k)
			}
			e.oses = append(e.oses, o)
		}
	}
	if budget > 0 && len(order) > budget {
		order = order[:budget]
	}
	items := make([]item, 0, len(envs)*len(order))
	for _, env := range envs {
		for _, k := range order {
			e := byKey[k]
			items = append(items, item{env: env, m: e.m, oses: e.oses})
		}
	}
	return items, len(order)
}

// sweepID fingerprints the sweep identity so a journal from a different
// configuration cannot silently poison a resume.
func sweepID(cfg Config, envs []Env, oses []osprofile.OS, items int) string {
	h := fnv.New64a()
	var wire, keys []string
	for _, o := range oses {
		wire = append(wire, o.WireName())
	}
	for _, e := range envs {
		keys = append(keys, e.Key())
	}
	fmt.Fprintf(h, "%d|%d|%s|%s|%d",
		cfg.Seed, cfg.Budget, strings.Join(keys, ";"), strings.Join(wire, ","), items)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Sweep runs every catalog MuT inside every scarcity environment across
// the OS set and applies the three scarce oracles: CRASH severity under
// scarcity, graceful degradation, and error-path resource leaks.
// Findings are deduplicated by signature and minimized to single-axis
// environments.  The report is identical for any worker count and
// across a kill+resume through the checkpoint journal.
func Sweep(ctx context.Context, cfg Config) (*Report, error) {
	if cfg.Deps == nil || cfg.Deps.NewRunner == nil || cfg.Deps.MuTs == nil || cfg.Deps.Registry == nil {
		return nil, fmt.Errorf("scarce: Config.Deps is incomplete")
	}
	oses := cfg.OSes
	if len(oses) == 0 {
		oses = osprofile.All()
	}
	envs := cfg.Envs
	if len(envs) == 0 {
		envs = DefaultEnvs()
	}
	items, muts := enumerate(cfg.Deps, envs, oses, cfg.Budget)

	parent := cfg.Spans.Start("scarcesweep",
		fmt.Sprintf("seed=%d envs=%d oses=%d muts=%d items=%d", cfg.Seed, len(envs), len(oses), muts, len(items)))
	defer parent.End()

	results, err := sweep.Run(ctx, sweep.Job[itemResult]{
		Kind: "scarcesweep", Unit: "item",
		ID: sweepID(cfg, envs, oses, len(items)),
		N:  len(items), Workers: cfg.Workers, Checkpoint: cfg.Checkpoint,
		Eval: func(i int) *itemResult {
			it := items[i]
			is := cfg.Spans.StartSampled("scarceitem",
				fmt.Sprintf("%s %s env=%s", it.m.API, it.m.Name, it.env.Name)).SetParent(parent.ID())
			defer is.End()
			return evalItem(cfg.Deps, it.env, it.m, it.oses, cfg.Seed)
		},
	})
	if err != nil {
		return nil, err
	}

	// Merge in enumeration order: totals, observer events, then the
	// deduplicated findings minimized to single-axis environments.
	rep := &Report{Seed: cfg.Seed, MuTs: muts, Items: len(items)}
	for _, o := range oses {
		rep.OSes = append(rep.OSes, o.WireName())
	}
	for _, e := range envs {
		rep.Envs = append(rep.Envs, e.Name)
	}
	obs, _ := cfg.Observer.(core.ScarceObserver)
	found := sweep.NewFindings(func(f *Finding) string { return f.Signature })
	for i, r := range results {
		rep.Probes += r.Probes
		rep.Crashed += r.Crashed
		rep.Leaked += r.Leaked
		rep.Ungraceful += r.Ungraceful
		f := r.Finding
		if f != nil {
			if f.Divergent {
				rep.Divergent++
			}
			if f.Violating {
				rep.Violating++
			}
			found.Add(f)
		}
		if obs != nil {
			it := items[i]
			probed := make([]string, len(it.oses))
			for j, o := range it.oses {
				probed[j] = o.WireName()
			}
			ev := core.ScarceEvent{
				Seq: i, MuT: it.m.Name, API: apiWire(it.m.API), Env: it.env.Name,
				OSes: probed,
				Crashed: r.Crashed, Leaked: r.Leaked, Ungraceful: r.Ungraceful,
			}
			if f != nil {
				ev.Divergent, ev.Violating = f.Divergent, f.Violating
			}
			obs.OnScarceDone(ev)
		}
	}
	rep.Findings = found.Minimize(func(f *Finding) *Finding { return Minimize(f, cfg.Deps, oses, cfg.Seed) })
	cfg.Spans.Instant("scarcesweep", "done",
		fmt.Sprintf("findings=%d divergent=%d violating=%d probes=%d",
			len(rep.Findings), rep.Divergent, rep.Violating, rep.Probes))
	return rep, nil
}
