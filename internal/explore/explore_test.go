package explore_test

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"ballista"
	"ballista/internal/catalog"
	"ballista/internal/core"
	"ballista/internal/explore"
	"ballista/internal/osprofile"
)

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDeterminismAcrossWorkers is the acceptance bar: the same seed and
// OS set produce a byte-identical corpus and divergence report whether
// the farm runs 1 worker or 8.
func TestDeterminismAcrossWorkers(t *testing.T) {
	base := ballista.ExploreConfig{Primary: ballista.Win98, Seed: 7, Budget: 150}

	cfg1 := base
	cfg1.Workers = 1
	rep1, err := ballista.Explore(context.Background(), cfg1)
	if err != nil {
		t.Fatal(err)
	}

	cfg8 := base
	cfg8.Workers = 8
	rep8, err := ballista.Explore(context.Background(), cfg8)
	if err != nil {
		t.Fatal(err)
	}

	b1, b8 := mustMarshal(t, rep1), mustMarshal(t, rep8)
	if string(b1) != string(b8) {
		t.Fatalf("reports differ between 1 and 8 workers:\n1: %s\n8: %s", b1, b8)
	}
	if rep1.CorpusSize == 0 {
		t.Fatal("campaign found no novel fingerprints — coverage signal is dead")
	}
	if len(rep1.Divergences) == 0 {
		t.Fatal("campaign found no divergences — oracle is dead")
	}
}

// TestCheckpointResume kills a campaign partway (by budget) and resumes
// it from the journal; the final report must be byte-identical to an
// uninterrupted run — even when the journal tail is torn mid-line.
func TestCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "corpus.ckpt")
	base := ballista.ExploreConfig{Primary: ballista.Win98, Seed: 3, Workers: 2}

	stage1 := base
	stage1.Budget = 50
	stage1.Checkpoint = ckpt
	if _, err := ballista.Explore(context.Background(), stage1); err != nil {
		t.Fatal(err)
	}

	// Tear the journal the way a killed process would: an incomplete
	// final line plus trailing garbage.
	f, err := os.OpenFile(ckpt, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"chain","n":9999,"chain":{"st` + "\x00\xff garbage"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	resumed := base
	resumed.Budget = 150
	resumed.Checkpoint = ckpt
	repResumed, err := ballista.Explore(context.Background(), resumed)
	if err != nil {
		t.Fatal(err)
	}

	fresh := base
	fresh.Budget = 150
	repFresh, err := ballista.Explore(context.Background(), fresh)
	if err != nil {
		t.Fatal(err)
	}

	br, bf := mustMarshal(t, repResumed), mustMarshal(t, repFresh)
	if string(br) != string(bf) {
		t.Fatalf("resumed report differs from uninterrupted run:\nresumed: %s\nfresh:   %s", br, bf)
	}
}

// TestCheckpointIdentityMismatch: a journal written by a different
// campaign (different seed) must be refused, not silently replayed.
func TestCheckpointIdentityMismatch(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "corpus.ckpt")

	cfg := ballista.ExploreConfig{Primary: ballista.Win98, Seed: 1, Budget: 40, Checkpoint: ckpt}
	if _, err := ballista.Explore(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}

	cfg.Seed = 2
	if _, err := ballista.Explore(context.Background(), cfg); err == nil {
		t.Fatal("resuming with a different seed should fail the identity check")
	}
}

// TestCheckpointResumesV1Journal: testdata/v1-journal.jsonl was written
// by the first journal implementation.  The same campaign journaled
// today writes identical bytes, and resuming from the old file
// re-executes no candidate — it stays unchanged — and reports what a
// fresh run does.
func TestCheckpointResumesV1Journal(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("testdata", "v1-journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := ballista.ExploreConfig{Primary: ballista.Win98, Seed: 7, Budget: 40, Workers: 1,
		Checkpoint: filepath.Join(dir, "fresh.jsonl")}
	fresh, err := ballista.Explore(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(cfg.Checkpoint); string(got) != string(v1) {
		t.Error("a fresh journal differs from the v1 journal of the same campaign")
	}

	cfg.Checkpoint = filepath.Join(dir, "v1.jsonl")
	if err := os.WriteFile(cfg.Checkpoint, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	resumed, err := ballista.Explore(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(cfg.Checkpoint); string(got) != string(v1) {
		t.Error("resuming from the v1 journal re-executed candidates")
	}
	if string(mustMarshal(t, fresh)) != string(mustMarshal(t, resumed)) {
		t.Error("report resumed from the v1 journal differs from a fresh run")
	}
}

// TestReproducersReplay: the minimized reproducer documents must survive
// a marshal/parse round trip and verify against a live replay.
func TestReproducersReplay(t *testing.T) {
	rep, err := ballista.Explore(context.Background(), ballista.ExploreConfig{
		Primary: ballista.Win98, Seed: 1, Budget: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	reps := rep.Reproducers()
	if len(reps) == 0 {
		t.Fatal("no reproducers from a campaign that found divergences")
	}
	limit := min(len(reps), 5)
	for i := 0; i < limit; i++ {
		data, err := reps[i].Marshal()
		if err != nil {
			t.Fatal(err)
		}
		parsed, err := explore.ParseReproducer(data)
		if err != nil {
			t.Fatalf("reproducer %d does not round-trip: %v", i, err)
		}
		if err := ballista.VerifyReproducer(parsed); err != nil {
			t.Errorf("reproducer %d does not replay: %v", i, err)
		}
	}
}

// chainCollector records ChainEvents (fired single-threaded from the
// merge loop; the mutex guards the cross-test read).
type chainCollector struct {
	mu  sync.Mutex
	evs []core.ChainEvent
}

func (c *chainCollector) OnChainDone(ev core.ChainEvent) {
	c.mu.Lock()
	c.evs = append(c.evs, ev)
	c.mu.Unlock()
}

// TestChainEventsDeterministicOrder: the observer sees every candidate
// exactly once, in candidate order, regardless of worker count.
func TestChainEventsDeterministicOrder(t *testing.T) {
	col := &chainCollector{}
	rep, err := ballista.Explore(context.Background(), ballista.ExploreConfig{
		Primary: ballista.Win98, Seed: 5, Budget: 80, Workers: 8, Observer: col,
	})
	if err != nil {
		t.Fatal(err)
	}
	col.mu.Lock()
	defer col.mu.Unlock()
	if len(col.evs) != rep.Executed {
		t.Fatalf("observer saw %d events, report says %d executed", len(col.evs), rep.Executed)
	}
	novel := 0
	for i, ev := range col.evs {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d — events out of candidate order", i, ev.Seq)
		}
		if ev.Novel {
			novel++
		}
	}
	if novel != rep.CorpusSize {
		t.Fatalf("observer counted %d novel chains, report corpus is %d", novel, rep.CorpusSize)
	}
	if last := col.evs[len(col.evs)-1]; last.CorpusSize != rep.CorpusSize {
		t.Fatalf("final event corpus size %d != report %d", last.CorpusSize, rep.CorpusSize)
	}
}

// TestRunChainMatchesRunSequence pins the shared-chain-path refactor:
// RunChain must execute exactly what a direct Runner.RunSequence call
// executes, for the same MuTs, cases and machine state.
func TestRunChainMatchesRunSequence(t *testing.T) {
	rep, err := ballista.Explore(context.Background(), ballista.ExploreConfig{
		Primary: ballista.Win98, Seed: 2, Budget: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	limit := min(len(rep.Corpus), 10)
	for _, o := range []osprofile.OS{ballista.Linux, ballista.Win98, ballista.WinNT} {
		idx := make(map[string]catalog.MuT)
		for _, m := range catalog.MuTsFor(o) {
			idx[m.Name] = m
		}
		for i := 0; i < limit; i++ {
			ch := rep.Corpus[i]
			viaChain, err := explore.RunChain(ballista.NewRunner(o), ch)
			if err != nil {
				t.Fatalf("%s chain %d: %v", o, i, err)
			}
			ms := make([]catalog.MuT, len(ch.Steps))
			cases := make([]core.Case, len(ch.Steps))
			for si, s := range ch.Steps {
				m, ok := idx[s.MuT]
				if !ok {
					t.Fatalf("%s chain %d: %q missing from catalog", o, i, s.MuT)
				}
				ms[si] = m
				cases[si] = s.Case
			}
			direct, err := ballista.NewRunner(o).RunSequence(ms, cases, ch.Wide)
			if err != nil {
				t.Fatalf("%s chain %d direct: %v", o, i, err)
			}
			for si := range viaChain {
				if viaChain[si] != direct[si] {
					t.Fatalf("%s chain %d step %d: RunChain=%s direct=%s",
						o, i, si, viaChain[si], direct[si])
				}
			}
		}
	}
}

// TestContextCancellation: a cancelled context stops the campaign with
// its error rather than running the budget out.
func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ballista.Explore(ctx, ballista.ExploreConfig{
		Primary: ballista.Win98, Seed: 1, Budget: 100,
	}); err == nil {
		t.Fatal("cancelled campaign returned no error")
	}
}

// TestUnknownMuTRejected: an alphabet entry missing from any oracle OS
// is a configuration error, not a silent skip.
func TestUnknownMuTRejected(t *testing.T) {
	if _, err := ballista.Explore(context.Background(), ballista.ExploreConfig{
		Primary: ballista.Win98, MuTs: []string{"no_such_function"}, Budget: 10,
	}); err == nil {
		t.Fatal("unknown MuT accepted")
	}
	// A glob that matches nothing tested on every OS is equally an error.
	if _, err := ballista.Explore(context.Background(), ballista.ExploreConfig{
		Primary: ballista.Win98, MuTs: []string{"no_such_*"}, Budget: 10,
	}); err == nil {
		t.Fatal("dead glob pattern accepted")
	}
}

// TestSocketExploreDeterminism: a socket-only alphabet selected by glob
// runs the full differential chain fuzzer and stays byte-identical
// across worker counts — the ordinal-compatible socket pools replay one
// case-index vector on every OS surface without per-engine special
// casing.
func TestSocketExploreDeterminism(t *testing.T) {
	base := ballista.ExploreConfig{
		Primary: ballista.Win98,
		MuTs:    []string{"socket*", "bind", "listen", "accept", "connect", "send", "recv"},
		Seed:    7,
		Budget:  150,
	}

	cfg1 := base
	cfg1.Workers = 1
	rep1, err := ballista.Explore(context.Background(), cfg1)
	if err != nil {
		t.Fatal(err)
	}

	cfg8 := base
	cfg8.Workers = 8
	rep8, err := ballista.Explore(context.Background(), cfg8)
	if err != nil {
		t.Fatal(err)
	}

	b1, b8 := mustMarshal(t, rep1), mustMarshal(t, rep8)
	if string(b1) != string(b8) {
		t.Fatalf("socket reports differ between 1 and 8 workers:\n1: %s\n8: %s", b1, b8)
	}
	if rep1.CorpusSize == 0 {
		t.Fatal("socket campaign found no novel fingerprints — coverage signal is dead")
	}
	// Every chain step must come from the requested alphabet: the glob
	// expansion never smuggles in non-socket MuTs.
	allowed := map[string]bool{
		"socket": true, "bind": true, "listen": true, "accept": true,
		"connect": true, "send": true, "recv": true,
	}
	for _, ch := range rep1.Corpus {
		for _, s := range ch.Steps {
			if !allowed[s.MuT] {
				t.Fatalf("chain step %q outside the socket alphabet", s.MuT)
			}
		}
	}
}
