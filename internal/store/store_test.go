package store

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// keyN derives a distinct, well-distributed key for test entry n.
func keyN(n int) Key {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(n))
	return Key(sha256.Sum256(b[:]))
}

func entryN(n int) Entry {
	return Entry{
		Classes:     fmt.Sprintf("%d%d", n%6, (n+1)%6),
		Exceptional: fmt.Sprintf("%d%d", n%2, (n+1)%2),
		Reboots:     n % 3,
	}
}

func TestGetPutRoundTrip(t *testing.T) {
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	k, e := keyN(1), entryN(1)
	if _, ok := s.Get(k); ok {
		t.Fatal("hit on empty store")
	}
	if err := s.Put(k, e); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(k)
	if !ok || got != e {
		t.Fatalf("Get = %+v, %v; want %+v, true", got, ok, e)
	}
	st := s.Snapshot()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestNilStoreIsSafe(t *testing.T) {
	var s *Store
	if _, ok := s.Get(keyN(0)); ok {
		t.Fatal("nil store hit")
	}
	if err := s.Put(keyN(0), entryN(0)); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 || s.Snapshot() != (Stats{}) {
		t.Fatal("nil store has state")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestPutRejectsMalformedEntries(t *testing.T) {
	s, _ := Open(Options{})
	bad := []Entry{
		{Classes: "01", Exceptional: "0"},  // length mismatch
		{Classes: "0a", Exceptional: "00"}, // non-digit class
		{Classes: "01", Exceptional: "02"}, // non-boolean flag
		{Classes: "0", Exceptional: "0", Reboots: -1},
	}
	for _, e := range bad {
		if err := s.Put(keyN(0), e); err == nil {
			t.Errorf("Put(%+v) accepted", e)
		}
	}
	if s.Len() != 0 {
		t.Fatalf("store holds %d entries after rejected puts", s.Len())
	}
}

func TestKeyOfIsStable(t *testing.T) {
	type id struct {
		OS  string `json:"os"`
		Cap int    `json:"cap"`
	}
	a, err := KeyOf(id{OS: "winnt", Cap: 500})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := KeyOf(id{OS: "winnt", Cap: 500})
	c, _ := KeyOf(id{OS: "winnt", Cap: 501})
	if a != b {
		t.Fatal("equal identities produced different keys")
	}
	if a == c {
		t.Fatal("different identities produced equal keys")
	}
	parsed, err := ParseKey(a.String())
	if err != nil || parsed != a {
		t.Fatalf("ParseKey(String) = %v, %v", parsed, err)
	}
}

// TestLRUBoundHoldsUnderChurn inserts far more entries than the bound
// and verifies residency never exceeds it, recently used entries
// survive, and the eviction counter accounts for every displacement.
func TestLRUBoundHoldsUnderChurn(t *testing.T) {
	const max = 64
	s, err := Open(Options{MaxEntries: max})
	if err != nil {
		t.Fatal(err)
	}
	// The per-shard bound rounds up, so the effective cap is within one
	// shard's worth of the requested max.
	cap := ((max + numShards - 1) / numShards) * numShards
	for i := 0; i < 50*max; i++ {
		if err := s.Put(keyN(i), entryN(i)); err != nil {
			t.Fatal(err)
		}
		if n := s.Len(); n > cap {
			t.Fatalf("after %d puts: %d entries resident, cap %d", i+1, n, cap)
		}
		// Keep key 0 hot: it must never be evicted.
		if _, ok := s.Get(keyN(0)); !ok {
			t.Fatalf("hot key evicted after %d puts", i+1)
		}
	}
	st := s.Snapshot()
	if st.Puts != 50*max {
		t.Fatalf("puts = %d, want %d", st.Puts, 50*max)
	}
	if int(st.Puts)-int(st.Evictions) != st.Entries {
		t.Fatalf("puts %d - evictions %d != entries %d", st.Puts, st.Evictions, st.Entries)
	}
}

// TestConcurrentGetPutHammer drives every shard from many goroutines at
// once; run under -race this is the store's data-race oracle.
func TestConcurrentGetPutHammer(t *testing.T) {
	s, err := Open(Options{MaxEntries: 256})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				n := (w*perWorker + i) % 512
				switch i % 3 {
				case 0:
					if err := s.Put(keyN(n), entryN(n)); err != nil {
						t.Error(err)
						return
					}
				default:
					if e, ok := s.Get(keyN(n)); ok && e != entryN(n) {
						t.Errorf("key %d: got %+v want %+v", n, e, entryN(n))
						return
					}
				}
				_ = s.Len()
			}
		}(w)
	}
	wg.Wait()
	st := s.Snapshot()
	if st.Hits+st.Misses == 0 || st.Puts == 0 {
		t.Fatalf("hammer recorded no traffic: %+v", st)
	}
}

func TestSegmentPersistsAcrossOpens(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.seg")
	s, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := s.Put(keyN(i), entryN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 20 {
		t.Fatalf("reloaded %d entries, want 20", re.Len())
	}
	for i := 0; i < 20; i++ {
		e, ok := re.Get(keyN(i))
		if !ok || e != entryN(i) {
			t.Fatalf("entry %d: got %+v, %v", i, e, ok)
		}
	}
}

// TestSegmentToleratesTornTail truncates the segment mid-record — the
// crash-mid-write shape — and verifies the intact prefix still loads
// and the reopened segment keeps accepting appends.
func TestSegmentToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.seg")
	s, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Put(keyN(i), entryN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 9 {
		t.Fatalf("reloaded %d entries from torn segment, want 9", re.Len())
	}
	// The torn record is gone, the rest round-trip.
	if _, ok := re.Get(keyN(9)); ok {
		t.Fatal("torn tail record served")
	}
	if err := re.Put(keyN(10), entryN(10)); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	re2, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if re2.Len() != 10 {
		t.Fatalf("after append-past-tear: %d entries, want 10", re2.Len())
	}
}

// TestSegmentRejectsVersionSkew ensures a segment from a future format
// fails loudly instead of silently serving misdecoded entries.
func TestSegmentRejectsVersionSkew(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.seg")
	line := fmt.Sprintf("{\"v\":%d,\"key\":\"%s\",\"classes\":\"0\",\"exceptional\":\"0\"}\n",
		segmentVersion+1, keyN(0))
	if err := os.WriteFile(path, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Path: path}); err == nil {
		t.Fatal("future-version segment loaded")
	}
}
