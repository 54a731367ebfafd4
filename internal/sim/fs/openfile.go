package fs

import "ballista/internal/chaos"

// OpenFile is one open descriptor/handle onto a node: a file position,
// the access granted at open time, and any byte-range locks it owns.
// Both the Win32 handle layer and the POSIX fd layer wrap OpenFile.
type OpenFile struct {
	fs   *FileSystem
	node *Node
	pos  int64

	Readable  bool
	Writable  bool
	Append    bool
	closed    bool
	DeleteOnC bool // FILE_FLAG_DELETE_ON_CLOSE
}

// LockRange is one byte-range lock, held at the node and owned by the
// OpenFile that created it (Win32 LockFile semantics: locks exclude
// other handles, not the locking handle itself).
type LockRange struct {
	Off, Len  uint64
	Exclusive bool
	owner     *OpenFile
}

// Open creates an OpenFile on the node at path.
func (f *FileSystem) Open(path string, readable, writable bool) (*OpenFile, error) {
	n, err := f.lookup(path)
	if err != nil {
		return nil, err
	}
	if n.dir {
		return nil, ErrIsDir
	}
	if writable && n.attrs&AttrReadOnly != 0 {
		return nil, ErrPerm
	}
	return &OpenFile{fs: f, node: n, Readable: readable, Writable: writable}, nil
}

// OpenNode wraps an already-resolved node.
func (f *FileSystem) OpenNode(n *Node, readable, writable bool) *OpenFile {
	return &OpenFile{fs: f, node: n, Readable: readable, Writable: writable}
}

// Node returns the underlying node.
func (o *OpenFile) Node() *Node { return o.node }

// Pos returns the current file position.
func (o *OpenFile) Pos() int64 { return o.pos }

// Closed reports whether Close has been called.
func (o *OpenFile) Closed() bool { return o.closed }

// Close marks the descriptor closed and releases its locks.  Further I/O
// fails with ErrClosed.
func (o *OpenFile) Close() error {
	if o.closed {
		return ErrClosed
	}
	o.closed = true
	kept := o.node.locks[:0]
	for _, l := range o.node.locks {
		if l.owner != o {
			kept = append(kept, l)
		}
	}
	if len(kept) != len(o.node.locks) {
		o.fs.dirty = true
	}
	o.node.locks = kept
	// Delete-on-close removes the entry the node is canonically known
	// by — but only if that entry still points at this node.  A rename
	// or create may have replaced it since the open, and deleting the
	// successor's entry would unlink the wrong file.
	if o.DeleteOnC && o.node.parent != nil && o.node.parent.children[o.node.name] == o.node {
		o.node.nlink--
		delete(o.node.parent.children, o.node.name)
		o.fs.dirty = true
		o.fs.logRemove(o.node.parent, o.node.name, o.node)
	}
	return nil
}

// Read returns up to n bytes from the current position.  Locks are
// checked over all n bytes, but only the bytes the file holds there are
// allocated: a read at or past EOF returns none and no error (Win32/POSIX
// style).
func (o *OpenFile) Read(n int) ([]byte, error) {
	if o.closed {
		return nil, ErrClosed
	}
	if !o.Readable {
		return nil, ErrNotOpen
	}
	if o.blockedBy(uint64(o.pos), uint64(n), false) {
		return nil, ErrLocked
	}
	if o.pos >= o.node.size {
		return nil, nil
	}
	p := make([]byte, min(int64(n), o.node.size-o.pos))
	if o.pos < int64(len(o.node.data)) {
		copy(p, o.node.data[o.pos:]) // past the stored bytes the file reads as zeros
	}
	o.pos += int64(len(p))
	o.node.AccessTime = o.fs.clock()
	return p, nil
}

// Write copies p at the current position, extending the file as needed.
func (o *OpenFile) Write(p []byte) (int, error) {
	if o.closed {
		return 0, ErrClosed
	}
	if !o.Writable {
		return 0, ErrNotOpen
	}
	if o.Append {
		o.pos = o.node.size
	}
	if o.blockedBy(uint64(o.pos), uint64(len(p)), true) {
		return 0, ErrLocked
	}
	if flt, ok := o.fs.fault(chaos.OpFSWrite, o.node.name); ok {
		switch flt.Kind {
		case chaos.KindEIO:
			return 0, ErrIO
		case chaos.KindShort:
			// A torn write: half the bytes land and the short count is
			// reported without an error (POSIX short-write semantics).
			if len(p) > 1 {
				p = p[:chaos.TornSplit(len(p))]
			} else {
				return 0, ErrNoSpace
			}
		default:
			return 0, ErrNoSpace
		}
	}
	end := o.pos + int64(len(p))
	if end > o.node.size {
		// Growing the file draws on the volume-wide fs.disk budget (the
		// same site as entry creation); rewrites in place are free.
		if _, ok := o.fs.fault(chaos.OpFSDisk, "disk"); ok {
			return 0, ErrNoSpace
		}
		o.node.size = end
	}
	if len(p) > 0 {
		if end > int64(len(o.node.data)) {
			// Store the bytes up to the write's end; any gap before it
			// is zeroed by make.
			grown := make([]byte, end)
			copy(grown, o.node.data)
			o.node.data = grown
		}
		copy(o.node.data[o.pos:], p)
	}
	o.fs.dirty = true
	// The log records the bytes that actually landed, so a torn write's
	// shortened slice is what crash-state enumeration sees.
	o.fs.logWrite(o.node, end-int64(len(p)), p)
	o.pos = end
	o.node.WriteTime = o.fs.clock()
	return len(p), nil
}

// Seek whence values (match POSIX/Win32).
const (
	SeekSet = 0
	SeekCur = 1
	SeekEnd = 2
)

// Seek moves the file position.  Seeking before 0 is an error; seeking
// past EOF is allowed (writes extend the file).
func (o *OpenFile) Seek(off int64, whence int) (int64, error) {
	if o.closed {
		return 0, ErrClosed
	}
	var base int64
	switch whence {
	case SeekSet:
		base = 0
	case SeekCur:
		base = o.pos
	case SeekEnd:
		base = o.node.size
	default:
		return 0, ErrInvalidPath
	}
	np := base + off
	if np < 0 {
		return 0, ErrInvalidPath
	}
	o.pos = np
	return np, nil
}

// Truncate sets the file length to the current position (Win32
// SetEndOfFile semantics) when n < 0, or to n otherwise.
func (o *OpenFile) Truncate(n int64) error {
	if o.closed {
		return ErrClosed
	}
	if !o.Writable {
		return ErrNotOpen
	}
	if n < 0 {
		n = o.pos
	}
	// Growing moves the size alone; the new tail reads as zeros.
	if n < int64(len(o.node.data)) {
		o.node.data = o.node.data[:n]
	}
	o.node.size = n
	o.fs.dirty = true
	o.fs.logTruncate(o.node, n)
	o.node.WriteTime = o.fs.clock()
	return nil
}

// Lock adds a byte-range lock owned by this OpenFile; overlapping a lock
// held by any handle (including this one) fails, per Win32 LockFile.
func (o *OpenFile) Lock(off, length uint64, exclusive bool) error {
	if o.closed {
		return ErrClosed
	}
	if length == 0 {
		return ErrInvalidPath
	}
	for _, l := range o.node.locks {
		if rangesOverlap(l.Off, l.Len, off, length) {
			return ErrLocked
		}
	}
	o.node.locks = append(o.node.locks, LockRange{Off: off, Len: length, Exclusive: exclusive, owner: o})
	o.fs.dirty = true
	return nil
}

// Unlock removes a lock owned by this OpenFile that exactly matches
// (off, length).
func (o *OpenFile) Unlock(off, length uint64) error {
	if o.closed {
		return ErrClosed
	}
	for i, l := range o.node.locks {
		if l.owner == o && l.Off == off && l.Len == length {
			o.node.locks = append(o.node.locks[:i], o.node.locks[i+1:]...)
			o.fs.dirty = true
			return nil
		}
	}
	return ErrNotFound
}

// Locks returns a copy of the locks this OpenFile owns.
func (o *OpenFile) Locks() []LockRange {
	var out []LockRange
	for _, l := range o.node.locks {
		if l.owner == o {
			out = append(out, l)
		}
	}
	return out
}

// blockedBy reports whether another handle's lock excludes an access.
// Exclusive locks block foreign reads and writes; shared locks block
// foreign writes only.
func (o *OpenFile) blockedBy(off, length uint64, write bool) bool {
	if length == 0 {
		return false
	}
	for _, l := range o.node.locks {
		if l.owner == o {
			continue
		}
		if !rangesOverlap(l.Off, l.Len, off, length) {
			continue
		}
		if l.Exclusive || write {
			return true
		}
	}
	return false
}

func rangesOverlap(aOff, aLen, bOff, bLen uint64) bool {
	return aOff < bOff+bLen && bOff < aOff+aLen
}
