package fs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// copyRead is the reference for Read(n): the copy-into-buffer semantics
// it had when callers passed a buffer of n bytes.  The buffer starts as
// '?' so a byte it never wrote shows.
func copyRead(o *OpenFile, n int) ([]byte, int, error) {
	p := bytes.Repeat([]byte{'?'}, n)
	if o.closed {
		return p, 0, ErrClosed
	}
	if !o.Readable {
		return p, 0, ErrNotOpen
	}
	if o.blockedBy(uint64(o.pos), uint64(len(p)), false) {
		return p, 0, ErrLocked
	}
	if o.pos >= o.node.size {
		return p, 0, nil
	}
	k := int(min(int64(len(p)), o.node.size-o.pos))
	stored := 0
	if o.pos < int64(len(o.node.data)) {
		stored = copy(p[:k], o.node.data[o.pos:])
	}
	clear(p[stored:k])
	o.pos += int64(k)
	o.node.AccessTime = o.fs.clock()
	return p, k, nil
}

// readWorld is one file with a reading handle and a second handle that
// takes byte-range locks.
type readWorld struct {
	fs            *FileSystem
	node          *Node
	reader, other *OpenFile
}

func newReadWorld(t *testing.T) *readWorld {
	t.Helper()
	f := newFS()
	n, err := f.Create("/r", 0o6, false)
	if err != nil {
		t.Fatal(err)
	}
	f.SetData(n, []byte("0123456789"))
	r, err := f.Open("/r", true, true)
	if err != nil {
		t.Fatal(err)
	}
	o, err := f.Open("/r", true, true)
	if err != nil {
		t.Fatal(err)
	}
	return &readWorld{fs: f, node: n, reader: r, other: o}
}

// TestReadMatchesCopyRead drives two identical files through the same
// random truncates (sparse tails), writes, seeks past EOF and locks,
// some of them past EOF, and reads one with Read(n) and the other with
// the copy-into-buffer reference: the bytes, the errors, the positions
// and the clock must agree, and Read must return exactly the bytes the
// reference copied.
func TestReadMatchesCopyRead(t *testing.T) {
	sizes := []int{0, 1, 3, 7, 64, 4096, 1 << 20}
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			got, want := newReadWorld(t), newReadWorld(t)
			for i := 0; i < 2000; i++ {
				var desc string
				var e1, e2 error
				switch rng.Intn(7) {
				case 0:
					n := int64(rng.Intn(40))
					if rng.Intn(8) == 0 {
						n = 1<<31 - 1
					}
					desc = fmt.Sprintf("Truncate(%d)", n)
					e1, e2 = got.other.Truncate(n), want.other.Truncate(n)
				case 1:
					off := int64(rng.Intn(30))
					data := []byte(fmt.Sprint("w", i))
					desc = fmt.Sprintf("Write(%d, %q)", off, data)
					_, _ = got.other.Seek(off, SeekSet)
					_, _ = want.other.Seek(off, SeekSet)
					_, e1 = got.other.Write(data)
					_, e2 = want.other.Write(data)
				case 2:
					off := int64(rng.Intn(45))
					desc = fmt.Sprintf("Seek(%d)", off)
					_, e1 = got.reader.Seek(off, SeekSet)
					_, e2 = want.reader.Seek(off, SeekSet)
				case 3:
					off, n, excl := uint64(rng.Intn(50)), uint64(1+rng.Intn(20)), rng.Intn(2) == 0
					desc = fmt.Sprintf("Lock(%d, %d, %v)", off, n, excl)
					e1, e2 = got.other.Lock(off, n, excl), want.other.Lock(off, n, excl)
				case 4:
					if locks := want.other.Locks(); len(locks) > 0 {
						l := locks[rng.Intn(len(locks))]
						desc = fmt.Sprintf("Unlock(%d, %d)", l.Off, l.Len)
						e1, e2 = got.other.Unlock(l.Off, l.Len), want.other.Unlock(l.Off, l.Len)
					}
				default:
					n := sizes[rng.Intn(len(sizes))]
					desc = fmt.Sprintf("Read(%d) at %d", n, want.reader.Pos())
					b, err := got.reader.Read(n)
					buf, k, werr := copyRead(want.reader, n)
					if !errors.Is(err, werr) || !bytes.Equal(b, buf[:k]) {
						t.Fatalf("op %d %s: %q %v, want %q %v", i, desc, b, err, buf[:k], werr)
					}
				}
				if !errors.Is(e1, e2) {
					t.Fatalf("op %d %s: %v, want %v", i, desc, e1, e2)
				}
				if got.reader.Pos() != want.reader.Pos() || got.node.Size() != want.node.Size() ||
					got.node.AccessTime != want.node.AccessTime || got.fs.clock() != want.fs.clock() {
					t.Fatalf("op %d %s: pos %d size %d atime %d, want %d %d %d", i, desc,
						got.reader.Pos(), got.node.Size(), got.node.AccessTime,
						want.reader.Pos(), want.node.Size(), want.node.AccessTime)
				}
			}
		})
	}
}

// TestReadAllocatesWhatTheFileHolds: a MAXINT-clamped read of a short
// file allocates the file's bytes, not the requested length.
func TestReadAllocatesWhatTheFileHolds(t *testing.T) {
	w := newReadWorld(t)
	const runs = 20
	var b []byte
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		_, _ = w.reader.Seek(0, SeekSet)
		b, _ = w.reader.Read(1 << 20)
	}
	runtime.ReadMemStats(&after)
	if string(b) != "0123456789" {
		t.Fatalf("Read(1 MiB) of a 10-byte file: %q", b)
	}
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 64 {
		t.Errorf("Read(1 MiB) of a 10-byte file allocates %d bytes a call, want at most 64", per)
	}
}
