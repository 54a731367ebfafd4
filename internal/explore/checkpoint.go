package explore

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"

	"ballista/internal/journal"
)

// ckptVersion is the corpus-journal schema version.
const ckptVersion = 1

// ckptMeta is the journal's first line: the campaign identity.  Resume
// refuses a journal whose identity differs from the live configuration,
// because replaying someone else's candidate stream would silently
// diverge from what a fresh run of this campaign produces.  Budget is
// deliberately absent — resuming with a larger budget extends the same
// campaign.
type ckptMeta struct {
	Type        string   `json:"type"` // "meta"
	V           int      `json:"v"`
	Seed        uint64   `json:"seed"`
	Primary     string   `json:"primary"`
	OSes        []string `json:"oses"`
	MaxLen      int      `json:"max_len"`
	CasesPerMuT int      `json:"cases_per_mut"`
	// Alphabet is a hash of the resolved MuT alphabet in order.
	Alphabet string `json:"alphabet"`
}

// ckptChain is one evaluated candidate: everything the merge loop needs
// to reconstruct its state transition without re-executing the chain.
type ckptChain struct {
	Type string `json:"type"` // "chain"
	// N is the candidate ordinal; the journal must be a contiguous
	// prefix 0..n-1 to be trusted.
	N     int    `json:"n"`
	Chain Chain  `json:"chain"`
	FP    string `json:"fp"`
	Novel bool   `json:"novel,omitempty"`

	Divergent    bool                `json:"divergent,omitempty"`
	Catastrophic bool                `json:"catastrophic,omitempty"`
	Sig          string              `json:"sig,omitempty"`
	Classes      map[string][]string `json:"classes,omitempty"`
}

// errEndOfPrefix stops a journal replay at the end of the trusted prefix.
var errEndOfPrefix = errors.New("explore: end of trusted checkpoint prefix")

// loadCheckpoint reads a corpus journal and returns the longest trusted
// contiguous candidate prefix.  A missing file is an empty campaign.  A
// torn line, trailing garbage, an over-long line, an out-of-order
// ordinal or an invalid chain all end the prefix there — the fuzzer
// re-executes from that point and, being deterministic, reproduces what
// the lost tail would have held.  Only a missing or mismatched identity
// is an error.
func loadCheckpoint(path string, want ckptMeta) ([]ckptChain, error) {
	var recs []ckptChain
	sawMeta := false
	err := journal.Replay(path, func(line []byte) error {
		if !sawMeta {
			var meta ckptMeta
			if err := json.Unmarshal(line, &meta); err != nil || meta.Type != "meta" {
				return fmt.Errorf("explore: checkpoint %s has no meta line", path)
			}
			if !reflect.DeepEqual(meta, want) {
				return fmt.Errorf("explore: checkpoint %s belongs to a different campaign (seed/OS set/alphabet changed); delete it or pass a fresh path", path)
			}
			sawMeta = true
			return nil
		}
		var rec ckptChain
		if err := json.Unmarshal(line, &rec); err != nil {
			// A torn write, newline-terminated by the journal, so the next
			// line starts a fresh record.  Ordinal contiguity below still
			// gates what the prefix trusts.
			return nil
		}
		if rec.Type != "chain" || rec.N != len(recs) {
			if rec.Type == "chain" && rec.N < len(recs) {
				return nil // duplicate of an already-replayed ordinal
			}
			return errEndOfPrefix // gap or foreign record
		}
		if rec.Chain.Validate() != nil {
			return errEndOfPrefix
		}
		if _, err := ParseFingerprint(rec.FP); err != nil {
			return errEndOfPrefix
		}
		recs = append(recs, rec)
		return nil
	})
	if err != nil && !sawMeta {
		return nil, err
	}
	return recs, nil
}
