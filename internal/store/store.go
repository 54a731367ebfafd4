// Package store is a content-addressed result cache.  A completed MuT
// shard is a pure function of its identity — OS profile, MuT, case
// budget, chaos plan, code version — so the packed result can be keyed
// by a hash of that identity and served instead of re-executed.  The
// cache is strictly an accelerator: a hit must reproduce the exact
// bytes execution would have produced, so cache on/off stays pure
// observation and the determinism oracles keep guarding it.
//
// The in-memory tier is a sharded map with a bounded size and LRU
// eviction per shard.  An optional on-disk segment (see segment.go)
// persists entries across processes through internal/journal, the log
// behind the checkpoint journals.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	"ballista/internal/journal"
)

// Key is a content address: sha256 over the canonical JSON encoding of
// a shard identity.
type Key [sha256.Size]byte

// String renders the key as lowercase hex.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// ParseKey decodes a hex key string.
func ParseKey(s string) (Key, error) {
	var k Key
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(k) {
		return k, fmt.Errorf("store: bad key %q", s)
	}
	copy(k[:], b)
	return k, nil
}

// KeyOf hashes an identity value into a content address.  json.Marshal
// is canonical for struct identities: field order follows declaration
// order, so equal identities always produce equal keys.
func KeyOf(identity any) (Key, error) {
	b, err := json.Marshal(identity)
	if err != nil {
		return Key{}, fmt.Errorf("store: encoding identity: %w", err)
	}
	return Key(sha256.Sum256(b)), nil
}

// Entry is one cached shard result, packed in the checkpoint-journal
// wire form: one class digit and one exceptional flag per case, plus
// the machine reboots the shard consumed.
type Entry struct {
	Classes     string `json:"classes"`
	Exceptional string `json:"exceptional"`
	Incomplete  bool   `json:"incomplete,omitempty"`
	Reboots     int    `json:"reboots,omitempty"`
}

// check validates the packing structurally.  Class digit semantics are
// the caller's domain; here we only guarantee the shapes line up so a
// torn or corrupted segment line can never surface as a result.
func (e Entry) check() error {
	if len(e.Exceptional) != len(e.Classes) {
		return fmt.Errorf("store: entry has %d classes but %d flags", len(e.Classes), len(e.Exceptional))
	}
	for i := 0; i < len(e.Classes); i++ {
		if c := e.Classes[i]; c < '0' || c > '9' {
			return fmt.Errorf("store: bad class digit %q", c)
		}
	}
	for i := 0; i < len(e.Exceptional); i++ {
		if f := e.Exceptional[i]; f != '0' && f != '1' {
			return fmt.Errorf("store: bad flag digit %q", f)
		}
	}
	if e.Reboots < 0 {
		return fmt.Errorf("store: negative reboots %d", e.Reboots)
	}
	return nil
}

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Puts      uint64 `json:"puts"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
}

// DefaultMaxEntries bounds the in-memory tier when Options.MaxEntries
// is zero.  The full three-OS standard sweep is 237+94+91(+91 wide)
// shards, so the default holds many campaign variants at once.
const DefaultMaxEntries = 8192

// numShards spreads lock contention across independent LRU maps.  A
// power of two so the key's top byte masks cleanly.
const numShards = 16

// Options configures a Store.
type Options struct {
	// MaxEntries bounds the in-memory tier (0 = DefaultMaxEntries).
	MaxEntries int
	// Path, when set, backs the cache with an fsync'd on-disk segment:
	// existing entries load at Open, every Put appends.
	Path string
}

// Store is the content-addressed result cache.  All methods are safe
// for concurrent use and nil-receiver safe, so callers can thread an
// optional *Store without guarding every touch.
type Store struct {
	shards [numShards]shard

	hits      atomic.Uint64
	misses    atomic.Uint64
	puts      atomic.Uint64
	evictions atomic.Uint64

	seg *journal.Journal // nil when the cache is memory-only
}

// shard is one LRU-bounded slice of the key space.  The recency list is
// intrusive: nodes link each other, the map points at nodes.
type shard struct {
	mu    sync.Mutex
	max   int
	items map[Key]*node
	head  *node // most recently used
	tail  *node // eviction candidate
}

type node struct {
	key        Key
	e          Entry
	prev, next *node
}

// Open creates a store.  When o.Path is set the segment is loaded
// (torn lines skipped) and opened for appending; Close releases it.
func Open(o Options) (*Store, error) {
	max := o.MaxEntries
	if max <= 0 {
		max = DefaultMaxEntries
	}
	perShard := (max + numShards - 1) / numShards
	s := &Store{}
	for i := range s.shards {
		s.shards[i].max = perShard
		s.shards[i].items = make(map[Key]*node)
	}
	if o.Path != "" {
		seg, err := openSegment(o.Path, func(k Key, e Entry) {
			s.insert(k, e)
		})
		if err != nil {
			return nil, err
		}
		s.seg = seg
	}
	return s, nil
}

// Get returns the cached entry for a key, promoting it to most
// recently used.
func (s *Store) Get(k Key) (Entry, bool) {
	if s == nil {
		return Entry{}, false
	}
	sh := &s.shards[k[0]&(numShards-1)]
	sh.mu.Lock()
	n, ok := sh.items[k]
	if ok {
		sh.promote(n)
		e := n.e
		sh.mu.Unlock()
		s.hits.Add(1)
		return e, true
	}
	sh.mu.Unlock()
	s.misses.Add(1)
	return Entry{}, false
}

// Put caches an entry, evicting the least recently used entry in its
// shard when the bound is reached, and appends it to the segment when
// one is attached.  Structurally invalid entries are rejected — the
// cache must never be able to serve a result execution could not have
// produced.
func (s *Store) Put(k Key, e Entry) error {
	if s == nil {
		return nil
	}
	if err := e.check(); err != nil {
		return err
	}
	s.insert(k, e)
	s.puts.Add(1)
	if s.seg != nil {
		return s.seg.Append(segRecord{V: segmentVersion, Key: k.String(), Entry: e})
	}
	return nil
}

// insert places an entry in the memory tier (no segment write, no put
// accounting — shared by Put and segment load).
func (s *Store) insert(k Key, e Entry) {
	sh := &s.shards[k[0]&(numShards-1)]
	sh.mu.Lock()
	if n, ok := sh.items[k]; ok {
		n.e = e
		sh.promote(n)
		sh.mu.Unlock()
		return
	}
	n := &node{key: k, e: e}
	sh.items[k] = n
	sh.push(n)
	var evicted bool
	if len(sh.items) > sh.max {
		old := sh.tail
		sh.unlink(old)
		delete(sh.items, old.key)
		evicted = true
	}
	sh.mu.Unlock()
	if evicted {
		s.evictions.Add(1)
	}
}

// Len returns the number of resident entries.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.items)
		sh.mu.Unlock()
	}
	return n
}

// Snapshot returns the effectiveness counters.
func (s *Store) Snapshot() Stats {
	if s == nil {
		return Stats{}
	}
	return Stats{
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Puts:      s.puts.Load(),
		Evictions: s.evictions.Load(),
		Entries:   s.Len(),
	}
}

// Close releases the on-disk segment, if any.  The memory tier stays
// readable.
func (s *Store) Close() error {
	if s == nil || s.seg == nil {
		return nil
	}
	return s.seg.Close()
}

// push links n at the head (most recently used).
func (sh *shard) push(n *node) {
	n.prev = nil
	n.next = sh.head
	if sh.head != nil {
		sh.head.prev = n
	}
	sh.head = n
	if sh.tail == nil {
		sh.tail = n
	}
}

// unlink removes n from the recency list.
func (sh *shard) unlink(n *node) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		sh.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		sh.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

// promote moves n to the head.
func (sh *shard) promote(n *node) {
	if sh.head == n {
		return
	}
	sh.unlink(n)
	sh.push(n)
}
