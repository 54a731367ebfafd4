// Package explore implements the coverage-guided sequence fuzzer the
// paper's §5 future work calls for: it runs call chains of length 2-8
// inside one process, uses a fingerprint of the simulated kernel's state
// as coverage feedback, and runs every interesting chain through a
// cross-OS differential oracle — the paper's Table 4 comparison made
// mechanical.  Chains, corpus checkpoints and minimized reproducers
// share one JSON schema, so any of them replays byte-for-byte through
// RunChain.
package explore

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"

	"ballista/internal/catalog"
	"ballista/internal/core"
	"ballista/internal/osprofile"
)

// MaxChainSteps bounds how long a parsed chain may be.  Fuzzing
// candidates stay within Config.MaxLen (2-8); the parser accepts more so
// hand-written replay inputs are not rejected, but still bounds hostile
// input.
const MaxChainSteps = 64

// maxChainArity bounds per-step parameter counts during parsing; no
// catalog MuT takes more parameters than this.
const maxChainArity = 16

// Chain is an ordered list of calls executed back to back inside one
// process on one freshly booted machine.
type Chain struct {
	Wide  bool             `json:"wide,omitempty"`
	Steps []core.ChainStep `json:"steps"`
}

// Clone returns a deep copy (mutation must not alias the parent).
func (c Chain) Clone() Chain {
	out := Chain{Wide: c.Wide, Steps: make([]core.ChainStep, len(c.Steps))}
	for i, s := range c.Steps {
		cs := make(core.Case, len(s.Case))
		copy(cs, s.Case)
		out.Steps[i] = core.ChainStep{MuT: s.MuT, Case: cs}
	}
	return out
}

// Key renders the chain canonically for dedup and corpus ordering.
func (c Chain) Key() string {
	var b strings.Builder
	if c.Wide {
		b.WriteString("W:")
	}
	for i, s := range c.Steps {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(s.MuT)
		fmt.Fprintf(&b, "%v", []int(s.Case))
	}
	return b.String()
}

// String renders the chain for reports.
func (c Chain) String() string { return c.Key() }

// Validate checks structural sanity: 1..MaxChainSteps steps, each with a
// named MuT, a bounded arity and non-negative value indices.  Whether
// the MuT exists on an OS — and whether indices are in pool range — is
// checked at resolve/run time.
func (c Chain) Validate() error {
	if len(c.Steps) == 0 {
		return fmt.Errorf("explore: empty chain")
	}
	if len(c.Steps) > MaxChainSteps {
		return fmt.Errorf("explore: chain has %d steps (max %d)", len(c.Steps), MaxChainSteps)
	}
	for i, s := range c.Steps {
		if s.MuT == "" {
			return fmt.Errorf("explore: step %d names no MuT", i)
		}
		if len(s.Case) > maxChainArity {
			return fmt.Errorf("explore: step %d has %d case indices (max %d)", i, len(s.Case), maxChainArity)
		}
		for pi, v := range s.Case {
			if v < 0 {
				return fmt.Errorf("explore: step %d param %d has negative index %d", i, pi, v)
			}
		}
	}
	return nil
}

// ParseChain decodes and validates a chain's JSON form.
func ParseChain(data []byte) (Chain, error) {
	var c Chain
	if err := json.Unmarshal(data, &c); err != nil {
		return Chain{}, fmt.Errorf("explore: bad chain JSON: %w", err)
	}
	if err := c.Validate(); err != nil {
		return Chain{}, err
	}
	return c, nil
}

// mutIndex caches name -> MuT resolution per OS; the catalog is
// immutable, so one map per OS serves every chain run.
var (
	mutIndexMu sync.Mutex
	mutIndexes = map[osprofile.OS]map[string]catalog.MuT{}
)

func mutIndex(o osprofile.OS) map[string]catalog.MuT {
	mutIndexMu.Lock()
	defer mutIndexMu.Unlock()
	idx, ok := mutIndexes[o]
	if !ok {
		idx = make(map[string]catalog.MuT)
		for _, m := range catalog.MuTsFor(o) {
			idx[m.Name] = m
		}
		mutIndexes[o] = idx
	}
	return idx
}

// Resolve maps a chain's step names onto the catalog MuTs of one OS,
// returning the parallel MuT and Case slices Runner.RunSequence takes.
func Resolve(o osprofile.OS, c Chain) ([]catalog.MuT, []core.Case, error) {
	if err := c.Validate(); err != nil {
		return nil, nil, err
	}
	idx := mutIndex(o)
	ms := make([]catalog.MuT, len(c.Steps))
	cases := make([]core.Case, len(c.Steps))
	for i, s := range c.Steps {
		m, ok := idx[s.MuT]
		if !ok {
			return nil, nil, fmt.Errorf("explore: step %d: %q is not tested on %s", i, s.MuT, o)
		}
		if len(s.Case) != len(m.Params) {
			return nil, nil, fmt.Errorf("explore: step %d: %s takes %d parameters, case has %d",
				i, m.Name, len(m.Params), len(s.Case))
		}
		ms[i] = m
		cases[i] = s.Case
	}
	return ms, cases, nil
}

// RunChain executes a chain on the runner's OS: the calls share one
// process on the runner's machine, exactly as Runner.RunSequence
// executes them, and the per-step CRASH classes come back in order.  It
// is the single chain-execution path shared by the fuzzer, reproducer
// replay and the golden regression corpus.
func RunChain(r *core.Runner, c Chain) ([]core.RawClass, error) {
	ms, cases, err := Resolve(r.Profile().OS, c)
	if err != nil {
		return nil, err
	}
	return r.RunSequence(ms, cases, c.Wide)
}
