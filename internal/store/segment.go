// On-disk segment: a JSONL append log kept by internal/journal, so every
// record is fsynced before Put returns and a torn line is
// newline-terminated.  The loader skips any line that does not parse or
// validate — a kill at any instant loses at most the entry in flight.
package store

import (
	"encoding/json"
	"fmt"

	"ballista/internal/journal"
)

// segmentVersion is the on-disk schema version.
const segmentVersion = 1

// segRecord is one segment line.
type segRecord struct {
	V   int    `json:"v"`
	Key string `json:"key"`
	Entry
}

// openSegment replays an existing segment file through load (one call
// per valid record; later records for the same key win via the memory
// tier's upsert) and opens it for appending.  A missing file means a
// fresh cache.
func openSegment(path string, load func(Key, Entry)) (*journal.Journal, error) {
	err := journal.Replay(path, func(line []byte) error {
		var rec segRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil // torn write; every complete record stands on its own
		}
		if rec.V != segmentVersion {
			return fmt.Errorf("store: segment version %d (want %d)", rec.V, segmentVersion)
		}
		if k, err := ParseKey(rec.Key); err == nil && rec.Entry.check() == nil {
			load(k, rec.Entry)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return journal.Open(path, nil)
}
