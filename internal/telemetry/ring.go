package telemetry

import (
	"sync"

	"ballista/internal/core"
)

// Ring is a core.Observer retaining the most recent trace records in
// memory, serving the testing service's GET /api/events endpoint.  It
// reuses TraceRecord so the HTTP surface and the on-disk trace agree on
// one schema.
type Ring struct {
	mu   sync.Mutex
	buf  []TraceRecord
	next int
	full bool
	seen uint64
}

// NewRing retains up to capacity records (minimum 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]TraceRecord, capacity)}
}

func (rg *Ring) push(rec TraceRecord) {
	rg.mu.Lock()
	defer rg.mu.Unlock()
	rg.buf[rg.next] = rec
	rg.next++
	rg.seen++
	if rg.next == len(rg.buf) {
		rg.next = 0
		rg.full = true
	}
}

// Seen reports how many records have passed through the ring.
func (rg *Ring) Seen() uint64 {
	rg.mu.Lock()
	defer rg.mu.Unlock()
	return rg.seen
}

// Last returns up to n most recent records, oldest first.  n <= 0 means
// everything retained.
func (rg *Ring) Last(n int) []TraceRecord {
	rg.mu.Lock()
	defer rg.mu.Unlock()
	size := rg.next
	if rg.full {
		size = len(rg.buf)
	}
	if n <= 0 || n > size {
		n = size
	}
	out := make([]TraceRecord, 0, n)
	for i := size - n; i < size; i++ {
		idx := i
		if rg.full {
			idx = (rg.next + i) % len(rg.buf)
		}
		out = append(out, rg.buf[idx])
	}
	return out
}

// Observe implements core.Observer, retaining the event's trace record
// (fleet "rpc" events stay out of the ring, as they do the trace).
func (rg *Ring) Observe(ev core.Event) {
	if rec, ok := record(ev); ok {
		rg.push(rec)
	}
}
