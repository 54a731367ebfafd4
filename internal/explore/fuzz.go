package explore

import (
	"context"
	"fmt"
	"hash/fnv"
	"path"
	"runtime"
	"sort"
	"strings"

	"ballista/internal/catalog"
	"ballista/internal/chaos"
	"ballista/internal/core"
	"ballista/internal/journal"
	"ballista/internal/osprofile"
	"ballista/internal/sweep"
	"ballista/internal/telemetry/span"
)

// batchSize is the fuzzer's generation quantum.  Candidates are
// generated a batch at a time from a corpus snapshot, evaluated in
// parallel, and merged back in batch order; because the quantum is a
// constant — never the worker count — the corpus and the divergence
// report are byte-identical for any worker count, and a checkpoint
// resume realigns on a batch boundary.
const batchSize = 32

// Config bounds a fuzzing campaign.
type Config struct {
	// Primary is the coverage OS; its wire name labels telemetry.  It
	// must be a member of OSes (it is added if missing).
	Primary osprofile.OS
	// OSes is the differential-oracle set; empty selects all seven.
	OSes []osprofile.OS
	// MuTs names the chain alphabet; every name must be tested on every
	// OS in the set.  Empty selects the full cross-OS intersection.
	MuTs []string
	// Seed drives all candidate generation.  The same seed, OS set and
	// alphabet reproduce the identical campaign.
	Seed uint64
	// Budget is how many candidate chains to evaluate (default 2000).
	Budget int
	// MaxLen caps chain length, clamped to the paper-motivated 2..8
	// (default 8).
	MaxLen int
	// CasesPerMuT sizes the per-MuT sampled-case pool used for corpus
	// seeding and mutation (default 6).
	CasesPerMuT int
	// Workers sizes the evaluation pool; <= 0 selects one per CPU.
	// Worker count never changes results, only wall-clock.
	Workers int
	// Checkpoint is a JSONL corpus journal path; empty disables
	// checkpointing.  A campaign killed mid-run resumes from it.
	Checkpoint string
	// MaxFindings caps how many deduplicated divergences are minimized
	// into reproducers (default 20).
	MaxFindings int
	// Observer, when non-nil, receives one ChainEvent per evaluated
	// candidate, in deterministic candidate order.
	Observer core.ChainObserver
	// Chaos, when non-nil, injects harness-domain faults (checkpoint
	// write tears and failures, site "explore") from a fresh injector
	// session per Run.  Substrate faults inside the evaluation runners
	// are configured on the runners themselves (see core.Config.Chaos).
	Chaos *chaos.Plan
	// ChaosStats receives the injection counters when set.
	ChaosStats *chaos.Stats
	// Remote, when non-nil, evaluates candidate batches out of process
	// (e.g. over a fleet) instead of the local worker pool.  A remote
	// evaluator built from the same OS set and substrate produces the
	// identical report — evaluation location never changes results.
	Remote RemoteEval
	// Spans, when non-nil, records sampled "chain" spans per evaluated
	// candidate into the flight recorder.  Observation only: a campaign
	// produces the identical report with spans on or off.
	Spans *span.Recorder
}

// Divergence is one deduplicated differential-oracle finding: a chain
// whose final call classifies differently across the OS set (or crashes
// a machine), plus its greedily minimized reproducer.
type Divergence struct {
	// Chain is the candidate as first found.
	Chain Chain `json:"chain"`
	// Signature is the per-OS class vector of the final step, e.g.
	// "linux=Error win98=Catastrophic winnt=Abort ...".
	Signature string `json:"signature"`
	// Catastrophic marks a chain that crashed at least one machine.
	Catastrophic bool `json:"catastrophic,omitempty"`
	// Classes maps OS wire name to per-step CRASH class names.
	Classes map[string][]string `json:"classes"`
	// Minimized is the shortest chain (greedy step removal, final call
	// pinned) that preserves the signature; nil until minimization runs.
	Minimized *Chain `json:"minimized,omitempty"`
	// MinimizedClasses maps OS wire name to the minimized chain's
	// per-step classes.
	MinimizedClasses map[string][]string `json:"minimized_classes,omitempty"`
}

// Report is a fuzzing campaign's deterministic outcome.  Marshalling it
// yields byte-identical JSON for identical (seed, OS set, alphabet,
// budget) regardless of worker count.
type Report struct {
	Primary string   `json:"primary"`
	OSes    []string `json:"oses"`
	Seed    uint64   `json:"seed"`
	MaxLen  int      `json:"max_len"`
	// Executed counts evaluated candidate chains (seeds included).
	Executed int `json:"executed"`
	// CorpusSize is the coverage frontier: chains that reached a novel
	// kernel-state fingerprint.
	CorpusSize int `json:"corpus_size"`
	// DivergentChains / CatastrophicChains count raw (pre-dedup) hits.
	DivergentChains    int `json:"divergent_chains"`
	CatastrophicChains int `json:"catastrophic_chains"`
	// Divergences are the deduplicated findings in first-seen order,
	// minimized up to MaxFindings.
	Divergences []Divergence `json:"divergences"`
	// Corpus is the full coverage corpus in discovery order.
	Corpus []Chain `json:"corpus"`
}

// Fuzzer drives one coverage-guided differential fuzzing campaign.
type Fuzzer struct {
	cfg       Config
	reg       *core.Registry
	newRunner func(osprofile.OS) *core.Runner
	ev        *Evaluator

	alphabet []catalog.MuT
	sizes    map[string][]int
	pool     map[string][]core.Case
	osNames  []string
}

// New assembles a fuzzer.  newRunner must return a runner whose machine
// state is fresh per call (e.g. the ballista facade's NewRunner); the
// fuzzer boots one machine per OS per candidate.
func New(cfg Config, reg *core.Registry, newRunner func(osprofile.OS) *core.Runner) (*Fuzzer, error) {
	cfg.OSes = ResolveOSes(cfg.Primary, cfg.OSes)
	if cfg.Budget <= 0 {
		cfg.Budget = 2000
	}
	if cfg.MaxLen <= 0 {
		cfg.MaxLen = 8
	}
	if cfg.MaxLen < 2 {
		cfg.MaxLen = 2
	}
	if cfg.MaxLen > 8 {
		cfg.MaxLen = 8
	}
	if cfg.CasesPerMuT <= 0 {
		cfg.CasesPerMuT = 6
	}
	if cfg.MaxFindings <= 0 {
		cfg.MaxFindings = 20
	}

	f := &Fuzzer{cfg: cfg, reg: reg, newRunner: newRunner}
	f.ev = NewEvaluator(cfg.OSes, newRunner)
	f.ev.SetSpans(cfg.Spans)
	f.osNames = f.ev.osNames
	if err := f.buildAlphabet(); err != nil {
		return nil, err
	}
	return f, nil
}

// buildAlphabet resolves the chain alphabet and samples its case pools.
// Entries in cfg.MuTs may be glob patterns ('socket*', 'conn?ct'): a
// pattern expands, in the primary's stable catalog order, to every
// matching name tested on all OSes in the set, and errors only when
// nothing qualifies.  Exact names keep strict semantics — naming a MuT
// missing from any OS in the set is an error, not a silent drop.
func (f *Fuzzer) buildAlphabet() error {
	if len(f.cfg.MuTs) > 0 {
		idx := mutIndex(f.cfg.Primary)
		seen := make(map[string]bool, len(f.cfg.MuTs))
		add := func(m catalog.MuT) {
			if !seen[m.Name] {
				seen[m.Name] = true
				f.alphabet = append(f.alphabet, m)
			}
		}
		everywhere := func(name string) (osprofile.OS, bool) {
			for _, o := range f.cfg.OSes {
				if _, ok := mutIndex(o)[name]; !ok {
					return o, false
				}
			}
			return 0, true
		}
		for _, name := range f.cfg.MuTs {
			if strings.ContainsAny(name, "*?[") {
				matched := false
				for _, m := range catalog.MuTsFor(f.cfg.Primary) {
					ok, err := path.Match(name, m.Name)
					if err != nil {
						return fmt.Errorf("explore: bad MuT pattern %q: %w", name, err)
					}
					if !ok {
						continue
					}
					if _, ok := everywhere(m.Name); !ok {
						continue
					}
					matched = true
					add(m)
				}
				if !matched {
					return fmt.Errorf("explore: pattern %q matches no MuT tested on every OS in the set", name)
				}
				continue
			}
			m, ok := idx[name]
			if !ok {
				return fmt.Errorf("explore: %q is not tested on %s", name, f.cfg.Primary)
			}
			if o, ok := everywhere(name); !ok {
				return fmt.Errorf("explore: %q is not tested on %s (differential oracle needs every OS)", name, o)
			}
			add(m)
		}
	} else {
		// Cross-OS intersection in the primary's stable catalog order.
		for _, m := range catalog.MuTsFor(f.cfg.Primary) {
			everywhere := true
			for _, o := range f.cfg.OSes {
				if _, ok := mutIndex(o)[m.Name]; !ok {
					everywhere = false
					break
				}
			}
			if everywhere {
				f.alphabet = append(f.alphabet, m)
			}
		}
	}
	if len(f.alphabet) == 0 {
		return fmt.Errorf("explore: empty alphabet — no MuT is tested on every OS in the set")
	}
	f.sizes = make(map[string][]int, len(f.alphabet))
	f.pool = make(map[string][]core.Case, len(f.alphabet))
	for _, m := range f.alphabet {
		sizes := make([]int, len(m.Params))
		for i, tn := range m.Params {
			dt, ok := f.reg.Lookup(tn)
			if !ok {
				return fmt.Errorf("explore: unknown data type %q (MuT %s param %d)", tn, m.Name, i)
			}
			sizes[i] = len(dt.Values)
		}
		f.sizes[m.Name] = sizes
		f.pool[m.Name] = core.GenerateCases(m.Name, sizes, f.cfg.CasesPerMuT)
	}
	return nil
}

// Alphabet exposes the resolved chain alphabet.
func (f *Fuzzer) Alphabet() []catalog.MuT { return f.alphabet }

// alphabetHash identifies the alphabet in checkpoint metadata.
func (f *Fuzzer) alphabetHash() string {
	h := fnv.New64a()
	for _, m := range f.alphabet {
		h.Write([]byte(m.Name))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// mix64 is a splitmix64-style finalizer for deriving per-candidate RNG
// seeds from (campaign seed, candidate ordinal).
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// rng is the same xorshift64* generator internal/core uses for case
// sampling, duplicated here because chain mutation must stay stable
// independently of the engine's sampling internals.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

func (r *rng) intn(n int) int {
	if n <= 1 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// rollCase draws fresh value indices for one MuT with MuT-name-seeded
// determinism: the draw depends on the MuT's identity and the chain
// RNG's salt, never on global campaign position.
func (f *Fuzzer) rollCase(name string, salt uint64) core.Case {
	rr := newRNG(core.SeedFor(name) ^ salt)
	sizes := f.sizes[name]
	c := make(core.Case, len(sizes))
	for i, n := range sizes {
		c[i] = rr.intn(n)
	}
	return c
}

// randStep draws a random alphabet call with re-rolled arguments.
func (f *Fuzzer) randStep(r *rng) core.ChainStep {
	m := f.alphabet[r.intn(len(f.alphabet))]
	return core.ChainStep{MuT: m.Name, Case: f.rollCase(m.Name, r.next())}
}

// poolStep draws a random alphabet call with a pre-sampled catalog case.
func (f *Fuzzer) poolStep(r *rng) core.ChainStep {
	m := f.alphabet[r.intn(len(f.alphabet))]
	pool := f.pool[m.Name]
	tc := pool[r.intn(len(pool))]
	c := make(core.Case, len(tc))
	copy(c, tc)
	return core.ChainStep{MuT: m.Name, Case: c}
}

// seeds builds the initial corpus from catalog cases: length-2 chains
// pairing each alphabet member with its catalog neighbour.
func (f *Fuzzer) seeds() []Chain {
	n := len(f.alphabet)
	out := make([]Chain, 0, n)
	for i := 0; i < n && len(out) < f.cfg.Budget; i++ {
		a, b := f.alphabet[i], f.alphabet[(i+1)%n]
		pa, pb := f.pool[a.Name], f.pool[b.Name]
		ca := pa[i%len(pa)]
		cb := pb[(i+1)%len(pb)]
		ch := Chain{Steps: []core.ChainStep{
			{MuT: a.Name, Case: append(core.Case(nil), ca...)},
			{MuT: b.Name, Case: append(core.Case(nil), cb...)},
		}}
		out = append(out, ch)
	}
	return out
}

// mutate derives one candidate from the corpus: splice, insert,
// truncate, delete, or argument re-roll.
func (f *Fuzzer) mutate(r *rng, corpus []Chain) Chain {
	if len(corpus) == 0 {
		return Chain{Steps: []core.ChainStep{f.poolStep(r), f.poolStep(r)}}
	}
	ch := corpus[r.intn(len(corpus))].Clone()
	switch r.intn(5) {
	case 0: // insert a step at a random position
		at := r.intn(len(ch.Steps) + 1)
		step := f.poolStep(r)
		ch.Steps = append(ch.Steps, core.ChainStep{})
		copy(ch.Steps[at+1:], ch.Steps[at:])
		ch.Steps[at] = step
	case 1: // delete a random step
		if len(ch.Steps) > 2 {
			at := r.intn(len(ch.Steps))
			ch.Steps = append(ch.Steps[:at], ch.Steps[at+1:]...)
		} else {
			ch.Steps = append(ch.Steps, f.poolStep(r))
		}
	case 2: // truncate to a random prefix
		if len(ch.Steps) > 2 {
			ch.Steps = ch.Steps[:2+r.intn(len(ch.Steps)-2)]
		} else {
			ch.Steps = append(ch.Steps, f.randStep(r))
		}
	case 3: // splice: our prefix, another corpus member's suffix
		other := corpus[r.intn(len(corpus))]
		cut := 1 + r.intn(len(ch.Steps))
		ch.Steps = ch.Steps[:cut]
		ocut := r.intn(len(other.Steps))
		for _, s := range other.Steps[ocut:] {
			c := make(core.Case, len(s.Case))
			copy(c, s.Case)
			ch.Steps = append(ch.Steps, core.ChainStep{MuT: s.MuT, Case: c})
		}
	case 4: // re-roll one step's arguments (MuT-name-seeded)
		at := r.intn(len(ch.Steps))
		ch.Steps[at].Case = f.rollCase(ch.Steps[at].MuT, r.next())
	}
	if len(ch.Steps) > f.cfg.MaxLen {
		ch.Steps = ch.Steps[:f.cfg.MaxLen]
	}
	for len(ch.Steps) < 2 {
		ch.Steps = append(ch.Steps, f.poolStep(r))
	}
	return ch
}

// outcome is one candidate's evaluation across the OS set.
type outcome struct {
	chain   Chain
	classes [][]core.RawClass // indexed like cfg.OSes
	fp      Fingerprint
	err     error
}

// eval runs one chain through the campaign's evaluator (see Evaluator;
// minimization always evaluates locally, even under a Remote hook).
func (f *Fuzzer) eval(ch Chain) outcome { return f.ev.eval(ch) }

// signature summarizes a class matrix: the final step's per-OS classes
// (the divergence key), whether they diverge (>= 2 distinct non-Skip
// classes), and whether any step crashed any machine.
func (f *Fuzzer) signature(classes [][]core.RawClass) (sig string, divergent, catastrophic bool) {
	if len(classes) == 0 || len(classes[0]) == 0 {
		return "", false, false
	}
	last := len(classes[0]) - 1
	parts := make([]string, len(classes))
	distinct := make(map[core.RawClass]bool, 4)
	for i, cls := range classes {
		c := cls[last]
		parts[i] = f.osNames[i] + "=" + c.String()
		if c != core.RawSkip {
			distinct[c] = true
		}
		for _, cc := range cls {
			if cc == core.RawCatastrophic {
				catastrophic = true
			}
		}
	}
	return strings.Join(parts, " "), len(distinct) > 1, catastrophic
}

// classesMap converts a class matrix to the wire form (OS name -> class
// names) used by reports, reproducers and checkpoints.
func (f *Fuzzer) classesMap(classes [][]core.RawClass) map[string][]string {
	out := make(map[string][]string, len(classes))
	for i, cls := range classes {
		names := make([]string, len(cls))
		for j, c := range cls {
			names[j] = c.String()
		}
		out[f.osNames[i]] = names
	}
	return out
}

// runState is the deterministic campaign state the merge loop advances.
type runState struct {
	corpus   []Chain
	seen     map[Fingerprint]bool
	divs     []*Divergence
	divKeys  map[string]bool
	executed int

	divergentTotal    int
	catastrophicTotal int
}

func newRunState() *runState {
	return &runState{seen: make(map[Fingerprint]bool), divKeys: make(map[string]bool)}
}

// mergeRecord folds one evaluated candidate (live or replayed from a
// checkpoint) into the state.  It must stay in lock-step with what the
// checkpoint records, so resume reconstructs the identical state.
func (st *runState) mergeRecord(rec ckptChain) {
	fp, err := ParseFingerprint(rec.FP)
	if err == nil {
		if rec.Novel && !st.seen[fp] {
			st.corpus = append(st.corpus, rec.Chain)
		}
		st.seen[fp] = true
	}
	if rec.Divergent {
		st.divergentTotal++
	}
	if rec.Catastrophic {
		st.catastrophicTotal++
	}
	if (rec.Divergent || rec.Catastrophic) && rec.Sig != "" {
		key := divKey(rec.Chain, rec.Sig)
		if !st.divKeys[key] {
			st.divKeys[key] = true
			st.divs = append(st.divs, &Divergence{
				Chain: rec.Chain, Signature: rec.Sig,
				Catastrophic: rec.Catastrophic, Classes: rec.Classes,
			})
		}
	}
	st.executed++
}

// divKey dedups findings by (final MuT, signature): one reproducer per
// distinct cross-OS behaviour of one call.
func divKey(ch Chain, sig string) string {
	last := ""
	if n := len(ch.Steps); n > 0 {
		last = ch.Steps[n-1].MuT
	}
	return last + "|" + sig
}

// Run executes the campaign: seed, then batch-generate/evaluate/merge
// until the budget is spent, then minimize the findings.  Cancelling ctx
// stops between batches.
func (f *Fuzzer) Run(ctx context.Context) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	st := newRunState()
	seeds := f.seeds()
	S := len(seeds)

	var jnl *journal.Journal
	if f.cfg.Checkpoint != "" {
		recs, err := loadCheckpoint(f.cfg.Checkpoint, f.identity())
		if err != nil {
			return nil, err
		}
		// Realign on a generation boundary: any point inside the seed
		// prefix, or a whole batch past it.  Records beyond the boundary
		// are re-executed (identically — the campaign is deterministic).
		keep := len(recs)
		if keep > S {
			keep = S + (keep-S)/batchSize*batchSize
		}
		for _, rec := range recs[:keep] {
			st.mergeRecord(rec)
		}
		jnl, err = journal.Open(f.cfg.Checkpoint, f.identity())
		if err != nil {
			return nil, err
		}
		var inj *chaos.Injector
		if f.cfg.Chaos != nil {
			inj = f.cfg.Chaos.NewInjector(f.cfg.ChaosStats)
		}
		jnl.Arm(inj, f.cfg.ChaosStats, "explore")
		defer jnl.Close()
	}

	for st.executed < f.cfg.Budget {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var batch []Chain
		if st.executed < S {
			hi := min(S, f.cfg.Budget)
			hi = min(hi, st.executed+batchSize)
			batch = seeds[st.executed:hi]
		} else {
			n := min(batchSize, f.cfg.Budget-st.executed)
			batch = make([]Chain, 0, n)
			for slot := 0; slot < n; slot++ {
				r := newRNG(mix64(f.cfg.Seed ^ mix64(uint64(st.executed+slot)+1)))
				batch = append(batch, f.mutate(r, st.corpus))
			}
		}
		outs, err := f.evalBatch(ctx, batch)
		if err != nil {
			return nil, err
		}
		for _, out := range outs {
			if err := f.merge(st, out, jnl); err != nil {
				return nil, err
			}
		}
	}

	if err := f.minimizeFindings(ctx, st); err != nil {
		return nil, err
	}
	return f.report(st), nil
}

// evalBatch evaluates a batch across the worker pool (or the Remote
// hook); results land by index, so batch order — and therefore
// everything downstream — is independent of scheduling.
func (f *Fuzzer) evalBatch(ctx context.Context, batch []Chain) ([]outcome, error) {
	if f.cfg.Remote != nil {
		wire, err := f.cfg.Remote(ctx, batch)
		if err != nil {
			return nil, fmt.Errorf("explore: remote evaluation: %w", err)
		}
		if len(wire) != len(batch) {
			return nil, fmt.Errorf("explore: remote evaluation returned %d outcomes for %d chains",
				len(wire), len(batch))
		}
		outs := make([]outcome, len(batch))
		for i, co := range wire {
			out, err := co.outcome(batch[i], len(f.cfg.OSes))
			if err != nil {
				return nil, err
			}
			outs[i] = out
		}
		return outs, nil
	}
	workers := f.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	outs := make([]outcome, len(batch))
	err := sweep.Each(ctx, len(batch), workers, func(i int) error {
		outs[i] = f.eval(batch[i])
		return outs[i].err
	})
	if err != nil {
		return nil, err
	}
	return outs, nil
}

// merge folds one live outcome into the state, journals it, and fires
// the chain observer — all from the single merge goroutine, so events
// and checkpoint lines are in deterministic candidate order.
func (f *Fuzzer) merge(st *runState, out outcome, jnl *journal.Journal) error {
	sig, divergent, catastrophic := f.signature(out.classes)
	rec := ckptChain{
		Type: "chain", N: st.executed, Chain: out.chain, FP: out.fp.String(),
		Novel:     !st.seen[out.fp],
		Divergent: divergent, Catastrophic: catastrophic,
	}
	if divergent || catastrophic {
		rec.Sig = sig
		rec.Classes = f.classesMap(out.classes)
	}
	st.mergeRecord(rec)
	if jnl != nil {
		if err := jnl.Append(rec); err != nil {
			return fmt.Errorf("explore: checkpointing chain %d: %w", rec.N, err)
		}
	}
	if f.cfg.Observer != nil {
		f.cfg.Observer.OnChainDone(core.ChainEvent{
			OS: f.cfg.Primary.WireName(), Seq: rec.N,
			Steps: out.chain.Steps, Wide: out.chain.Wide,
			Classes: f.rawClassesMap(out.classes),
			Novel:   rec.Novel, Divergent: divergent, Catastrophic: catastrophic,
			Fingerprint: uint64(out.fp), CorpusSize: len(st.corpus),
		})
	}
	return nil
}

func (f *Fuzzer) rawClassesMap(classes [][]core.RawClass) map[string][]core.RawClass {
	out := make(map[string][]core.RawClass, len(classes))
	for i, cls := range classes {
		out[f.osNames[i]] = cls
	}
	return out
}

// minimizeFindings greedily shrinks up to MaxFindings deduplicated
// divergences: repeatedly drop the earliest prefix step whose removal
// preserves the signature, with the final (divergent) call pinned.
func (f *Fuzzer) minimizeFindings(ctx context.Context, st *runState) error {
	limit := min(f.cfg.MaxFindings, len(st.divs))
	for i := 0; i < limit; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		d := st.divs[i]
		ch := d.Chain.Clone()
		for changed := true; changed; {
			changed = false
			for at := 0; at < len(ch.Steps)-1; at++ {
				cand := ch.Clone()
				cand.Steps = append(cand.Steps[:at], cand.Steps[at+1:]...)
				out := f.eval(cand)
				if out.err != nil {
					return out.err
				}
				sig, _, _ := f.signature(out.classes)
				if sig == d.Signature {
					ch = cand
					changed = true
					break
				}
			}
		}
		final := f.eval(ch)
		if final.err != nil {
			return final.err
		}
		d.Minimized = &ch
		d.MinimizedClasses = f.classesMap(final.classes)
	}
	return nil
}

// report assembles the deterministic campaign report.
func (f *Fuzzer) report(st *runState) *Report {
	rep := &Report{
		Primary: f.cfg.Primary.WireName(),
		OSes:    append([]string(nil), f.osNames...),
		Seed:    f.cfg.Seed, MaxLen: f.cfg.MaxLen,
		Executed:           st.executed,
		CorpusSize:         len(st.corpus),
		DivergentChains:    st.divergentTotal,
		CatastrophicChains: st.catastrophicTotal,
		Corpus:             st.corpus,
	}
	for _, d := range st.divs {
		rep.Divergences = append(rep.Divergences, *d)
	}
	// Catastrophic findings outrank plain divergences; ties keep
	// first-seen order (stable sort).
	sort.SliceStable(rep.Divergences, func(i, j int) bool {
		return rep.Divergences[i].Catastrophic && !rep.Divergences[j].Catastrophic
	})
	return rep
}

// identity is the checkpoint-compatibility fingerprint of this campaign.
func (f *Fuzzer) identity() ckptMeta {
	return ckptMeta{
		Type: "meta", V: ckptVersion,
		Seed: f.cfg.Seed, Primary: f.cfg.Primary.WireName(),
		OSes: append([]string(nil), f.osNames...), MaxLen: f.cfg.MaxLen,
		CasesPerMuT: f.cfg.CasesPerMuT, Alphabet: f.alphabetHash(),
	}
}

// Reproducers converts the minimized findings into self-contained
// reproducer documents.
func (r *Report) Reproducers() []Reproducer {
	var out []Reproducer
	for _, d := range r.Divergences {
		if d.Minimized == nil {
			continue
		}
		out = append(out, Reproducer{
			V: reproVersion, OSes: append([]string(nil), r.OSes...),
			Chain: *d.Minimized, Classes: d.MinimizedClasses,
			Signature: d.Signature, Catastrophic: d.Catastrophic,
		})
	}
	return out
}
