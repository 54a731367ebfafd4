package scarce

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"

	"ballista/internal/core"
	"ballista/internal/osprofile"
)

// reproVersion is the scarce-reproducer document schema version.
const reproVersion = 1

// Reproducer is a self-contained, minimized scarcity finding: the MuT,
// its all-valid test case, the (minimized) environment, the OS set it
// was judged on, and each profile's verdict.  The document is
// everything needed to replay the finding byte-for-byte through
// RunScarceProbe — the golden corpus under testdata/corpus/scarce/ is
// a directory of these.
type Reproducer struct {
	V int `json:"v"`
	// Name is an optional short label (corpus files use the file stem).
	Name string `json:"name,omitempty"`
	// Description is optional prose about what the finding shows.
	Description string `json:"description,omitempty"`
	// API / MuT name the module under test (wire names).
	API string `json:"api"`
	MuT string `json:"mut"`
	// Env is the depleted environment, possibly minimized.
	Env Env `json:"env"`
	// Case holds the test-value indices used for the probe.
	Case core.Case `json:"case"`
	// OSes lists the wire names the item was judged on; Verdicts must
	// hold an entry for each.
	OSes []string `json:"oses"`
	// Verdicts maps OS wire name to the expected verdict.
	Verdicts map[string]*Verdict `json:"verdicts"`
	// Signature is the finding's dedup signature (informational).
	Signature string `json:"signature,omitempty"`
	// Divergent marks findings whose profiles disagree; Violating marks
	// findings with at least one oracle violation.
	Divergent bool `json:"divergent,omitempty"`
	Violating bool `json:"violating,omitempty"`
}

// NewReproducer packages a finding as a reproducer document.  The OS
// list is the subset of oses the finding actually covers, in order.
func NewReproducer(f *Finding, oses []osprofile.OS) *Reproducer {
	rep := &Reproducer{
		V: reproVersion, API: f.API, MuT: f.MuT, Env: f.Env, Case: f.Case,
		Verdicts: f.Verdicts, Signature: f.Signature,
		Divergent: f.Divergent, Violating: f.Violating,
	}
	for _, o := range oses {
		if _, ok := f.Verdicts[o.WireName()]; ok {
			rep.OSes = append(rep.OSes, o.WireName())
		}
	}
	return rep
}

// Reproducers packages a sweep report's findings as reproducer
// documents, in report order.
func (rep *Report) Reproducers() []*Reproducer {
	out := make([]*Reproducer, 0, len(rep.Findings))
	for _, f := range rep.Findings {
		r := &Reproducer{
			V: reproVersion, API: f.API, MuT: f.MuT, Env: f.Env, Case: f.Case,
			Verdicts: f.Verdicts, Signature: f.Signature,
			Divergent: f.Divergent, Violating: f.Violating,
		}
		for _, name := range rep.OSes {
			if _, ok := f.Verdicts[name]; ok {
				r.OSes = append(r.OSes, name)
			}
		}
		out = append(out, r)
	}
	return out
}

// ParseReproducer decodes and sanity-checks a reproducer document.
func ParseReproducer(data []byte) (*Reproducer, error) {
	var rep Reproducer
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("scarce: bad reproducer JSON: %w", err)
	}
	if rep.V != reproVersion {
		return nil, fmt.Errorf("scarce: reproducer version %d (want %d)", rep.V, reproVersion)
	}
	m, ok := muTByWire(rep.API, rep.MuT)
	if !ok {
		return nil, fmt.Errorf("scarce: reproducer names unknown MuT %s %q", rep.API, rep.MuT)
	}
	if len(rep.Case) != len(m.Params) {
		return nil, fmt.Errorf("scarce: reproducer case has %d indices, %s takes %d parameters",
			len(rep.Case), rep.MuT, len(m.Params))
	}
	if !rep.Env.Enabled() {
		return nil, fmt.Errorf("scarce: reproducer environment enables no axis")
	}
	if len(rep.OSes) == 0 {
		return nil, fmt.Errorf("scarce: reproducer names no OSes")
	}
	for _, name := range rep.OSes {
		if _, ok := osprofile.Parse(name); !ok {
			return nil, fmt.Errorf("scarce: reproducer names unknown OS %q", name)
		}
		if _, ok := rep.Verdicts[name]; !ok {
			return nil, fmt.Errorf("scarce: reproducer has no verdict for %s", name)
		}
	}
	return &rep, nil
}

// LoadReproducer reads a reproducer document from disk.
func LoadReproducer(path string) (*Reproducer, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep, err := ParseReproducer(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// Marshal renders the document in the corpus's canonical indented form.
func (rep *Reproducer) Marshal() ([]byte, error) {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// WriteFile stores the document at path in canonical form.
func (rep *Reproducer) WriteFile(path string) error {
	data, err := rep.Marshal()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Verify re-probes the MuT inside the recorded environment on every
// recorded OS and compares the fresh verdicts against the recorded
// ones.  A nil return means the finding still reproduces
// byte-for-byte.
func (rep *Reproducer) Verify(deps *Deps, seed uint64) error {
	m, ok := muTByWire(rep.API, rep.MuT)
	if !ok {
		return fmt.Errorf("unknown MuT %s %q", rep.API, rep.MuT)
	}
	for _, name := range rep.OSes {
		o, ok := osprofile.Parse(name)
		if !ok {
			return fmt.Errorf("unknown OS %q", name)
		}
		got := evalVerdict(deps, o, m, rep.Case, rep.Env, seed)
		want := rep.Verdicts[name]
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("on %s: verdict %+v, recorded %+v", name, got, want)
		}
	}
	return nil
}
