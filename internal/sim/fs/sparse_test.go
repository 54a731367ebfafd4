package fs

import (
	"errors"
	"strings"
	"testing"
	"unsafe"

	"ballista/internal/chaos"
)

// readAll reads up to n bytes from offset 0.  Read returns only the
// bytes the file holds, so a short file reads as a short string.
func readAll(t *testing.T, of *OpenFile, n int) string {
	t.Helper()
	if _, err := of.Seek(0, SeekSet); err != nil {
		t.Fatal(err)
	}
	data, err := of.Read(n)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func zeros(n int) string { return strings.Repeat("\x00", n) }

// TestSparseFileLengths pins what a file grown by Truncate reads as: the
// bytes past the stored data are zeros up to the logical size, and
// nothing reads past the size.
func TestSparseFileLengths(t *testing.T) {
	for _, tc := range []struct {
		name string
		ops  func(t *testing.T, f *FileSystem, of *OpenFile)
		size int64
		read int // bytes to read from offset 0
		want string
	}{
		{
			name: "truncate up then read across the hole",
			ops: func(t *testing.T, f *FileSystem, of *OpenFile) {
				mustTruncate(t, of, 8)
			},
			size: 8, read: 12,
			want: "abc" + zeros(5),
		},
		{
			name: "write into the hole past the stored bytes",
			ops: func(t *testing.T, f *FileSystem, of *OpenFile) {
				mustTruncate(t, of, 10)
				mustSeek(t, of, 6, SeekSet)
				mustWrite(t, of, "XY")
			},
			size: 10, read: 11,
			want: "abc" + zeros(3) + "XY" + zeros(2),
		},
		{
			name: "write past the size grows it",
			ops: func(t *testing.T, f *FileSystem, of *OpenFile) {
				mustTruncate(t, of, 5)
				mustSeek(t, of, 7, SeekSet)
				mustWrite(t, of, "Z")
			},
			size: 8, read: 9,
			want: "abc" + zeros(4) + "Z",
		},
		{
			name: "truncate down into the hole then up again",
			ops: func(t *testing.T, f *FileSystem, of *OpenFile) {
				mustTruncate(t, of, 20)
				mustTruncate(t, of, 15)
				mustTruncate(t, of, 18)
			},
			size: 18, read: 19,
			want: "abc" + zeros(15),
		},
		{
			name: "truncate down into the stored bytes then up again",
			ops: func(t *testing.T, f *FileSystem, of *OpenFile) {
				mustTruncate(t, of, 1)
				mustTruncate(t, of, 6)
			},
			size: 6, read: 7,
			want: "a" + zeros(5),
		},
		{
			name: "old bytes do not reappear after a cut and a write past them",
			ops: func(t *testing.T, f *FileSystem, of *OpenFile) {
				mustTruncate(t, of, 12)
				mustSeek(t, of, 9, SeekSet)
				mustWrite(t, of, "QRS")
				mustTruncate(t, of, 2)
				mustTruncate(t, of, 12)
				mustSeek(t, of, 11, SeekSet)
				mustWrite(t, of, "T")
			},
			size: 12, read: 13,
			want: "ab" + zeros(9) + "T",
		},
		{
			name: "a zero-length write past the size grows it",
			ops: func(t *testing.T, f *FileSystem, of *OpenFile) {
				mustSeek(t, of, 5, SeekSet)
				mustWrite(t, of, "")
			},
			size: 5, read: 6,
			want: "abc" + zeros(2),
		},
		{
			name: "SeekEnd lands at the logical size",
			ops: func(t *testing.T, f *FileSystem, of *OpenFile) {
				mustTruncate(t, of, 9)
				if pos := mustSeek(t, of, -1, SeekEnd); pos != 8 {
					t.Errorf("Seek(-1, SeekEnd) = %d, want 8", pos)
				}
				mustWrite(t, of, "E")
			},
			size: 9, read: 10,
			want: "abc" + zeros(5) + "E",
		},
		{
			name: "append writes at the logical size",
			ops: func(t *testing.T, f *FileSystem, of *OpenFile) {
				mustTruncate(t, of, 6)
				of.Append = true
				mustSeek(t, of, 0, SeekSet)
				mustWrite(t, of, "!")
			},
			size: 7, read: 8,
			want: "abc" + zeros(3) + "!",
		},
		{
			name: "create with truncate empties a sparse file",
			ops: func(t *testing.T, f *FileSystem, of *OpenFile) {
				mustTruncate(t, of, 1<<20)
				if _, err := f.Create("/s", 0o6, true); err != nil {
					t.Fatal(err)
				}
			},
			size: 0, read: 2,
			want: "",
		},
		{
			name: "SetData replaces the size",
			ops: func(t *testing.T, f *FileSystem, of *OpenFile) {
				mustTruncate(t, of, 1<<20)
				f.SetData(of.Node(), []byte("xy"))
			},
			size: 2, read: 3,
			want: "xy",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFS()
			n, _ := f.Create("/s", 0o6, false)
			f.SetData(n, []byte("abc"))
			of, _ := f.Open("/s", true, true)
			tc.ops(t, f, of)
			st, err := f.Stat("/s")
			if err != nil {
				t.Fatal(err)
			}
			if st.Size() != tc.size {
				t.Errorf("Size() = %d, want %d", st.Size(), tc.size)
			}
			if got := readAll(t, of, tc.read); got != tc.want {
				t.Errorf("read %q, want %q", got, tc.want)
			}
		})
	}
}

// TestSparseFileAtPaperSizes grows a file to the POSIX profile's MAXINT
// truncate length and reads both ends of the hole.
func TestSparseFileAtPaperSizes(t *testing.T) {
	f := newFS()
	n, _ := f.Create("/big", 0o6, false)
	f.SetData(n, []byte("head"))
	of, _ := f.Open("/big", true, true)
	const size = 0x7FFFFFFF
	mustTruncate(t, of, size)
	if n.Size() != size {
		t.Fatalf("Size() = %d, want %d", n.Size(), size)
	}
	if got := readAll(t, of, 6); got != "head\x00\x00" {
		t.Errorf("head read %q", got)
	}
	mustSeek(t, of, -2, SeekEnd)
	if got, err := of.Read(4); err != nil || string(got) != "\x00\x00" {
		t.Errorf("tail read %v %q", err, got)
	}
	if s := f.String(); !strings.Contains(s, "big (2147483647 bytes)") {
		t.Errorf("String() = %q", s)
	}
}

// TestSparseWriteDiskBudget: only a write that grows the logical size
// draws on the fs.disk budget; filling a hole a truncate made is free.
func TestSparseWriteDiskBudget(t *testing.T) {
	f := newFS()
	n, _ := f.Create("/s", 0o6, false)
	f.SetData(n, []byte("abc"))
	of, _ := f.Open("/s", true, true)
	mustTruncate(t, of, 10)
	plan := &chaos.Plan{Seed: 1, Rules: []chaos.Rule{
		{Op: chaos.OpFSDisk, RatePerMille: 1000, After: 1},
	}}
	f.SetInjector(plan.NewInjector(nil))
	mustSeek(t, of, 6, SeekSet)
	mustWrite(t, of, "XY") // inside the size: no decision
	mustSeek(t, of, 9, SeekSet)
	mustWrite(t, of, "ZZ") // grows to 11: the one free block
	if _, err := of.Write([]byte("Q")); !errors.Is(err, ErrNoSpace) {
		t.Errorf("second growing write: err %v, want ErrNoSpace", err)
	}
	if n.Size() != 11 {
		t.Errorf("Size() = %d, want 11", n.Size())
	}
	if got := readAll(t, of, 12); got != "abc"+zeros(3)+"XY"+zeros(1)+"ZZ" {
		t.Errorf("read %q", got)
	}
}

// TestCopyTreeKeepsSparseSize: a template copy of a truncate-grown file
// has the same size and reads zeros across the same hole.
func TestCopyTreeKeepsSparseSize(t *testing.T) {
	src := newFS()
	n, _ := src.Create("/s", 0o6, false)
	src.SetData(n, []byte("abc"))
	of, _ := src.Open("/s", true, true)
	mustTruncate(t, of, 7)
	dst := newFS()
	if err := dst.CopyTree(src); err != nil {
		t.Fatal(err)
	}
	dof, err := dst.Open("/s", true, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, dof, 8); got != "abc"+zeros(4) {
		t.Errorf("copy reads %q", got)
	}
}

func mustTruncate(t *testing.T, of *OpenFile, n int64) {
	t.Helper()
	if err := of.Truncate(n); err != nil {
		t.Fatal(err)
	}
}

func mustSeek(t *testing.T, of *OpenFile, off int64, whence int) int64 {
	t.Helper()
	pos, err := of.Seek(off, whence)
	if err != nil {
		t.Fatal(err)
	}
	return pos
}

func mustWrite(t *testing.T, of *OpenFile, s string) {
	t.Helper()
	if k, err := of.Write([]byte(s)); err != nil || k != len(s) {
		t.Fatalf("Write(%q) = %d, %v", s, k, err)
	}
}

// TestNodeSize pins the Node layout to the 128-byte size class: one more
// word moves every node CopyTree makes to the 144-byte class.
func TestNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(Node{}); got != 128 {
		t.Errorf("unsafe.Sizeof(Node{}) = %d, want 128", got)
	}
}
