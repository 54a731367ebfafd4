package farm

import (
	"encoding/json"
	"fmt"

	"ballista/internal/chaos"
	"ballista/internal/core"
	"ballista/internal/journal"
)

// journalVersion is the checkpoint schema version.
const journalVersion = 1

// journalRecord is one JSONL checkpoint line: a fully completed MuT
// shard.  The paper's campaigns that crashed mid-run had to restart from
// scratch; replaying these records lets an interrupted farm campaign —
// or a killed fleet coordinator — resume exactly where it stopped.  The
// embedded wire types keep the on-disk field order identical to the
// pre-fleet schema (v, os, cap, shard, mut, wide, classes, exceptional,
// incomplete, reboots, worker, stolen), so old journals replay as-is.
type journalRecord struct {
	V   int    `json:"v"`
	OS  string `json:"os"`
	Cap int    `json:"cap"`
	ShardDesc
	ShardResult
	Worker int  `json:"worker"`
	Stolen bool `json:"stolen,omitempty"`
}

// The packed wire form is shared with the content-addressed result
// store; core owns the pack/unpack helpers so the two stay identical.

// encodeClasses packs a shard's per-case outcome classes into digits.
func encodeClasses(cs []core.RawClass) string { return core.PackClasses(cs) }

func decodeClasses(s string) ([]core.RawClass, error) { return core.UnpackClasses(s) }

func encodeFlags(fs []bool) string { return core.PackFlags(fs) }

func decodeFlags(s string) []bool { return core.UnpackFlags(s) }

// Journal appends completed-shard records to a checkpoint file with the
// internal/journal durability contract, so a kill at any instant loses
// at most the shard in flight.  The farm journals its own workers'
// completions; the fleet coordinator journals uploads through the same
// type, which is what makes a killed coordinator resumable.
type Journal struct {
	j    *journal.Journal
	site string
}

// OpenJournal opens (or creates) a checkpoint journal for appending.
// site labels the harness-domain chaos decision point consulted before
// each write: "farm" for in-process campaigns, "fleet" for the
// coordinator's lease journal.
func OpenJournal(path, site string) (*Journal, error) {
	j, err := journal.Open(path, nil)
	if err != nil {
		return nil, fmt.Errorf("farm: opening checkpoint: %w", err)
	}
	return &Journal{j: j, site: site}, nil
}

// SetChaos arms harness-domain fault injection on subsequent appends.
func (j *Journal) SetChaos(inj *chaos.Injector, stats *chaos.Stats) {
	j.j.Arm(inj, stats, j.site)
}

// Append journals one completed shard.
func (j *Journal) Append(osName string, cap int, d ShardDesc, r ShardResult, worker int, stolen bool) error {
	return j.j.Append(journalRecord{
		V: journalVersion, OS: osName, Cap: cap,
		ShardDesc: d, ShardResult: r,
		Worker: worker, Stolen: stolen,
	})
}

// Close closes the underlying file.
func (j *Journal) Close() error { return j.j.Close() }

// LoadJournal replays a checkpoint file against a campaign's shard list
// and returns completed results keyed by shard index (nil for a missing
// file).  Records are validated against the campaign identity (OS, cap,
// shard index, MuT name, wide flag) — resuming a stale journal against a
// different campaign is an error, not silent corruption.  Records are
// independent, so a torn line anywhere is skipped and the replay
// continues; a duplicate shard record keeps the last occurrence.
func LoadJournal(path string, osName string, cap int, descs []ShardDesc) (map[int]ShardResult, error) {
	var done map[int]ShardResult
	err := journal.Replay(path, func(line []byte) error {
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil // a torn write; every complete record stands on its own
		}
		if rec.V != journalVersion {
			return fmt.Errorf("farm: checkpoint version %d (want %d)", rec.V, journalVersion)
		}
		if rec.OS != osName || rec.Cap != cap {
			return fmt.Errorf("farm: checkpoint is for os=%s cap=%d, campaign is os=%s cap=%d",
				rec.OS, rec.Cap, osName, cap)
		}
		if rec.Index < 0 || rec.Index >= len(descs) {
			return fmt.Errorf("farm: checkpoint shard %d out of range (catalog has %d)", rec.Index, len(descs))
		}
		d := descs[rec.Index]
		if d.MuT != rec.MuT || d.Wide != rec.Wide {
			return fmt.Errorf("farm: checkpoint shard %d is %s (wide=%v), catalog has %s (wide=%v)",
				rec.Index, rec.MuT, rec.Wide, d.MuT, d.Wide)
		}
		if _, err := decodeClasses(rec.Classes); err != nil {
			return err
		}
		if len(rec.Exceptional) != len(rec.Classes) {
			return fmt.Errorf("farm: checkpoint shard %d has %d classes but %d exceptional flags",
				rec.Index, len(rec.Classes), len(rec.Exceptional))
		}
		if done == nil {
			done = make(map[int]ShardResult)
		}
		done[rec.Index] = rec.ShardResult
		return nil
	})
	if err != nil {
		return nil, err
	}
	return done, nil
}
