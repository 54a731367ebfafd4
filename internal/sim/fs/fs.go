// Package fs implements the in-memory hierarchical filesystem that both
// the simulated Win32 and POSIX API surfaces operate on.
//
// Paths accept '/' and '\' separators and an optional drive prefix
// ("C:"), so the same fixture tree serves both API personalities.  The
// filesystem is deliberately simple — nodes, bytes, attributes and
// timestamps — because the paper's tests exercise argument validation at
// the API boundary, not filesystem semantics.
package fs

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"

	"ballista/internal/chaos"
)

// Mode bits, a POSIX-ish subset.
const (
	ModeRead  = 0o4
	ModeWrite = 0o2
	ModeExec  = 0o1
)

// Attr holds Windows-style file attributes.
type Attr uint32

// Windows file attribute flags (values match the Win32 constants).
const (
	AttrReadOnly  Attr = 0x0001
	AttrHidden    Attr = 0x0002
	AttrSystem    Attr = 0x0004
	AttrDirectory Attr = 0x0010
	AttrArchive   Attr = 0x0020
	AttrNormal    Attr = 0x0080
)

// Errors reported by filesystem operations.  The API layers translate
// them into errno values or GetLastError codes.
var (
	ErrNotFound    = errors.New("fs: no such file or directory")
	ErrExists      = errors.New("fs: file exists")
	ErrIsDir       = errors.New("fs: is a directory")
	ErrNotDir      = errors.New("fs: not a directory")
	ErrNotEmpty    = errors.New("fs: directory not empty")
	ErrPerm        = errors.New("fs: permission denied")
	ErrInvalidPath = errors.New("fs: invalid path")
	ErrClosed      = errors.New("fs: file closed")
	ErrNotOpen     = errors.New("fs: not open for that access")
	ErrLocked      = errors.New("fs: byte range locked")
	ErrNoSpace     = errors.New("fs: no space left on device")
	ErrIO          = errors.New("fs: I/O error")
)

// Node is a file or directory.  Its data, mode and attributes are read
// through accessors and written only through FileSystem setters, so
// every change to state the fixture restore repairs marks the
// filesystem dirty (see FileSystem.Dirty).
type Node struct {
	name     string
	children map[string]*Node
	parent   *Node

	// data holds the stored bytes, a prefix of the file; the bytes from
	// len(data) up to size read as zeros.  A truncate that grows a file
	// moves size alone, so a 2 GiB length costs nothing until written.
	data []byte
	size int64
	// dir sits beside mode and attrs so the three share one word and a
	// Node stays in the 128-byte size class.
	dir   bool
	mode  uint16 // rwx for owner only; simplified
	attrs Attr
	// Times are simulated ticks, not wall-clock, to keep runs
	// deterministic.  They stay plain fields: the fixture restore has
	// never repaired them, so writes to them are not tracked by the
	// dirty flag.
	CreateTime, AccessTime, WriteTime uint64

	nlink int
	locks []LockRange
}

// Name returns the node's base name.
func (n *Node) Name() string { return n.name }

// IsDir reports whether the node is a directory.
func (n *Node) IsDir() bool { return n.dir }

// Data returns the stored bytes, a prefix of the file: the bytes from
// len(Data()) up to Size() read as zeros.  The slice aliases the node's
// storage; callers must not modify it.
func (n *Node) Data() []byte { return n.data }

// Mode returns the rwx permission bits.
func (n *Node) Mode() uint16 { return n.mode }

// Attrs returns the Windows-style attribute flags.
func (n *Node) Attrs() Attr { return n.attrs }

// Size returns the file size in bytes (0 for directories).
func (n *Node) Size() int64 { return n.size }

// Nlink returns the link count.
func (n *Node) Nlink() int { return n.nlink }

// LockCount reports how many byte-range locks are held on the node
// (state-coverage fingerprints hash the lock table's shape).
func (n *Node) LockCount() int { return len(n.locks) }

// FileSystem is the root of one simulated machine's file tree.
type FileSystem struct {
	// root is held by value: one allocation per filesystem, not two.
	root Node
	// clock provides deterministic timestamps; the kernel advances it.
	clock func() uint64
	// inj, when non-nil, deterministically injects disk faults (ENOSPC,
	// short writes, transient EIO) at the Create and Write fault points.
	inj *chaos.Injector
	// plog, when non-nil, records durable effects (writes, entry
	// updates, fsync barriers) for crash-state enumeration.
	plog *PersistLog
	// dirty records that the tree, a node's data, mode, attributes or
	// link count, or a byte-range lock changed since the last MarkClean.
	dirty bool
}

// Dirty reports whether any state the fixture restore repairs — the
// tree shape, file data, modes, attributes, link counts and byte-range
// locks — may have changed since the last MarkClean.  A new filesystem
// starts dirty.  Timestamps are not tracked.
func (f *FileSystem) Dirty() bool { return f.dirty }

// MarkClean clears the dirty flag.  The fixture restore calls it after
// a complete pass has left the tree canonical.
func (f *FileSystem) MarkClean() { f.dirty = false }

// SetData replaces a file's contents without a clock tick or a
// persistence record.  The node keeps b; the caller must not modify it
// afterwards.
func (f *FileSystem) SetData(n *Node, b []byte) {
	n.data = b
	n.size = int64(len(b))
	f.dirty = true
}

// CopyData gives dst a copy of src's contents, stored bytes and logical
// size alike, without a clock tick or a persistence record.
func (f *FileSystem) CopyData(dst, src *Node) {
	dst.data = bytes.Clone(src.data)
	dst.size = src.size
	f.dirty = true
}

// SetMode sets a node's permission bits.
func (f *FileSystem) SetMode(n *Node, m uint16) {
	n.mode = m
	f.dirty = true
}

// SetAttrs sets a node's attribute flags.
func (f *FileSystem) SetAttrs(n *Node, a Attr) {
	n.attrs = a
	f.dirty = true
}

// ClearLocks drops every byte-range lock on the node.  Fixture reset
// uses it between test cases to release locks whose owning process is
// gone (a real OS releases them at process exit).
func (f *FileSystem) ClearLocks(n *Node) {
	if len(n.locks) > 0 {
		n.locks = nil
		f.dirty = true
	}
}

// SetInjector attaches a chaos injector session; nil detaches it.
func (f *FileSystem) SetInjector(in *chaos.Injector) { f.inj = in }

// fault consumes one chaos decision point; with no injector attached it
// costs one nil check.
func (f *FileSystem) fault(op chaos.Op, site string) (chaos.Fault, bool) {
	return f.inj.Fault(op, site)
}

// rootMode is the root directory's permission bits on a new filesystem.
const rootMode = 0o7

// New creates a filesystem containing only the root directory.
func New(clock func() uint64) *FileSystem {
	if clock == nil {
		var t uint64
		clock = func() uint64 { t++; return t }
	}
	return &FileSystem{
		root:  Node{name: "", dir: true, children: make(map[string]*Node), mode: rootMode, attrs: AttrDirectory, nlink: 1},
		clock: clock,
		dirty: true,
	}
}

// Pristine reports whether f is exactly as New left it: the root
// directory alone with its default mode, attributes, link count and
// timestamps, still dirty, with no persistence log and no injector.
func (f *FileSystem) Pristine() bool {
	r := &f.root
	return len(r.children) == 0 && r.data == nil && r.size == 0 && len(r.locks) == 0 &&
		r.mode == rootMode && r.attrs == AttrDirectory && r.nlink == 1 &&
		r.CreateTime == 0 && r.AccessTime == 0 && r.WriteTime == 0 &&
		f.dirty && f.plog == nil && f.inj == nil
}

// CopyTree replaces f's tree with a deep copy of src's: every node with
// its own data bytes, children map, mode, attributes, link count and
// timestamps, and parent pointers rebuilt inside the copy.  It consumes
// no clock tick, chaos decision or persistence record, leaves f clean,
// and only reads src, so many filesystems may copy one source
// concurrently.
//
// It refuses a source holding a hard link (an entry whose node has
// another name) or a byte-range lock (owned by an open file of the
// source), and a destination with a persistence log attached, whose
// record stream the copy would bypass.  A refused copy leaves f as it
// was.
func (f *FileSystem) CopyTree(src *FileSystem) error {
	if f.plog != nil {
		return errors.New("fs: CopyTree into a filesystem with a persistence log")
	}
	old := f.root
	if err := copyNode(&f.root, &src.root); err != nil {
		// The old children still point at &f.root, so putting the old
		// root value back restores f exactly.
		f.root = old
		return err
	}
	f.dirty = false
	return nil
}

// copyNode deep-copies src into dst, except dst.parent, which the caller
// sets.
func copyNode(dst, src *Node) error {
	if len(src.locks) > 0 {
		return fmt.Errorf("fs: CopyTree: %q holds byte-range locks", src.name)
	}
	*dst = Node{
		name: src.name, dir: src.dir,
		data: bytes.Clone(src.data), size: src.size, mode: src.mode, attrs: src.attrs,
		CreateTime: src.CreateTime, AccessTime: src.AccessTime, WriteTime: src.WriteTime,
		nlink: src.nlink,
	}
	if src.children == nil {
		return nil
	}
	dst.children = make(map[string]*Node, len(src.children))
	for name, c := range src.children {
		if c.nlink != 1 || c.parent != src || c.name != name {
			return fmt.Errorf("fs: CopyTree: %q is a hard link", name)
		}
		n := new(Node)
		if err := copyNode(n, c); err != nil {
			return err
		}
		n.parent = dst
		dst.children[name] = n
	}
	return nil
}

// Split normalizes a path into components.  It strips a drive prefix,
// treats '/' and '\' identically, drops empty and "." components and
// resolves ".." lexically (never above the root).  An empty path or one
// containing NUL is invalid.  The returned components are substrings of
// path.
func Split(path string) ([]string, error) {
	return splitInto(nil, path)
}

// maxInlineDepth sizes the stack buffer lookups walk paths into; deeper
// paths still work, spilling to the heap.
const maxInlineDepth = 16

// splitInto is Split appending to dst, so callers can walk a path into a
// stack buffer without allocating.
func splitInto(dst []string, path string) ([]string, error) {
	if path == "" || strings.IndexByte(path, 0) >= 0 {
		return nil, ErrInvalidPath
	}
	if len(path) >= 2 && path[1] == ':' {
		path = path[2:]
	}
	// The next separator is the first backslash before the next slash,
	// else that slash: two byte scans, which beat one testing every byte
	// against both.  The slash's place is kept across components, so no
	// byte is scanned for a slash twice.
	slash := strings.IndexByte(path, '/')
	for path != "" {
		end := slash
		if end < 0 {
			end = len(path)
		}
		i := strings.IndexByte(path[:end], '\\')
		if i < 0 {
			i = slash
		}
		p := path
		if i >= 0 {
			p, path = path[:i], path[i+1:]
			if i == slash {
				slash = strings.IndexByte(path, '/')
			} else if slash >= 0 {
				slash -= i + 1
			}
		} else {
			path = ""
		}
		switch p {
		case "", ".":
		case "..":
			if len(dst) > 0 {
				dst = dst[:len(dst)-1]
			}
		default:
			dst = append(dst, p)
		}
	}
	return dst, nil
}

func (f *FileSystem) lookup(path string) (*Node, error) {
	var buf [maxInlineDepth]string
	parts, err := splitInto(buf[:0], path)
	if err != nil {
		return nil, err
	}
	n := &f.root
	for _, p := range parts {
		if !n.dir {
			return nil, ErrNotDir
		}
		c, ok := n.children[p]
		if !ok {
			return nil, ErrNotFound
		}
		n = c
	}
	return n, nil
}

func (f *FileSystem) lookupParent(path string) (dir *Node, base string, err error) {
	var buf [maxInlineDepth]string
	parts, err := splitInto(buf[:0], path)
	if err != nil {
		return nil, "", err
	}
	if len(parts) == 0 {
		return nil, "", ErrInvalidPath
	}
	n := &f.root
	for _, p := range parts[:len(parts)-1] {
		c, ok := n.children[p]
		if !ok {
			return nil, "", ErrNotFound
		}
		if !c.dir {
			return nil, "", ErrNotDir
		}
		n = c
	}
	return n, parts[len(parts)-1], nil
}

// Stat returns the node at path.
func (f *FileSystem) Stat(path string) (*Node, error) { return f.lookup(path) }

// NodeCount walks the tree and reports how many nodes exist (files and
// directories, root included).  The scarce sweep's leak oracle compares
// it before and after a call to catch error paths that strand entries.
func (f *FileSystem) NodeCount() int { return countNodes(&f.root) }

func countNodes(n *Node) int {
	total := 1
	for _, c := range n.children {
		total += countNodes(c)
	}
	return total
}

// Create creates (or truncates, if it exists and trunc is set) a regular
// file and returns its node.
func (f *FileSystem) Create(path string, mode uint16, trunc bool) (*Node, error) {
	dir, base, err := f.lookupParent(path)
	if err != nil {
		return nil, err
	}
	if c, ok := dir.children[base]; ok {
		if c.dir {
			return nil, ErrIsDir
		}
		if c.attrs&AttrReadOnly != 0 {
			return nil, ErrPerm
		}
		if trunc {
			c.data, c.size = nil, 0
			f.dirty = true
			c.WriteTime = f.clock()
			f.logTruncate(c, 0)
		}
		return c, nil
	}
	// Allocating a fresh directory entry is the disk-full fault point:
	// truncating an existing file needs no new space.
	if _, ok := f.fault(chaos.OpFSCreate, base); ok {
		return nil, ErrNoSpace
	}
	// fs.disk is the volume-wide budget: unlike the per-name fs.create
	// site above, every allocating operation shares the one "disk" site,
	// so a rule's After counts total free blocks, not per-file retries.
	if _, ok := f.fault(chaos.OpFSDisk, "disk"); ok {
		return nil, ErrNoSpace
	}
	now := f.clock()
	n := &Node{
		name: base, parent: dir, mode: mode, attrs: AttrArchive, nlink: 1,
		CreateTime: now, AccessTime: now, WriteTime: now,
	}
	dir.children[base] = n
	f.dirty = true
	f.logCreate(dir, base, n)
	return n, nil
}

// Mkdir creates a directory.
func (f *FileSystem) Mkdir(path string, mode uint16) error {
	dir, base, err := f.lookupParent(path)
	if err != nil {
		return err
	}
	if _, ok := dir.children[base]; ok {
		return ErrExists
	}
	_, err = f.mkdirIn(dir, base, mode)
	return err
}

// mkdirIn creates directory base inside dir, which must not hold an
// entry of that name.
func (f *FileSystem) mkdirIn(dir *Node, base string, mode uint16) (*Node, error) {
	// A new directory consumes a block from the same volume-wide budget
	// as file creation and data growth.
	if _, ok := f.fault(chaos.OpFSDisk, "disk"); ok {
		return nil, ErrNoSpace
	}
	now := f.clock()
	n := &Node{
		name: base, parent: dir, dir: true, children: make(map[string]*Node),
		mode: mode, attrs: AttrDirectory, nlink: 1,
		CreateTime: now, AccessTime: now, WriteTime: now,
	}
	dir.children[base] = n
	f.dirty = true
	f.logMkdir(dir, base, n)
	return n, nil
}

// MkdirAll creates a directory and any missing parents.  It walks the
// path once, creating each missing component in place; an existing entry
// of any kind as the last component counts as success, and a file
// anywhere before it fails with ErrNotDir.
func (f *FileSystem) MkdirAll(path string, mode uint16) error {
	var buf [maxInlineDepth]string
	parts, err := splitInto(buf[:0], path)
	if err != nil {
		return err
	}
	n := &f.root
	for _, p := range parts {
		if !n.dir {
			return ErrNotDir
		}
		c, ok := n.children[p]
		if !ok {
			if c, err = f.mkdirIn(n, p, mode); err != nil {
				return err
			}
		}
		n = c
	}
	return nil
}

// Remove deletes a regular file.  It unlinks the directory entry at
// path itself — with hard links the node's canonical parent/name can
// refer to a different entry, and removing that one instead would
// delete the wrong name.
func (f *FileSystem) Remove(path string) error {
	dir, base, err := f.lookupParent(path)
	if err != nil {
		return err
	}
	n, ok := dir.children[base]
	if !ok {
		return ErrNotFound
	}
	if n.dir {
		return ErrIsDir
	}
	if n.attrs&AttrReadOnly != 0 {
		return ErrPerm
	}
	n.nlink--
	delete(dir.children, base)
	f.dirty = true
	f.logRemove(dir, base, n)
	return nil
}

// Rmdir deletes an empty directory.
func (f *FileSystem) Rmdir(path string) error {
	n, err := f.lookup(path)
	if err != nil {
		return err
	}
	if !n.dir {
		return ErrNotDir
	}
	if n.parent == nil {
		return ErrPerm // cannot remove root
	}
	if len(n.children) > 0 {
		return ErrNotEmpty
	}
	delete(n.parent.children, n.name)
	f.dirty = true
	return nil
}

// Rename moves oldPath to newPath, replacing a plain-file target.  Like
// Remove, it unlinks the entry at oldPath itself rather than trusting
// the node's canonical parent/name, which a hard-link alias may not
// share.
func (f *FileSystem) Rename(oldPath, newPath string) error {
	oldDir, oldBase, err := f.lookupParent(oldPath)
	if err != nil {
		return err
	}
	n, ok := oldDir.children[oldBase]
	if !ok {
		return ErrNotFound
	}
	dir, base, err := f.lookupParent(newPath)
	if err != nil {
		return err
	}
	var replaced *Node
	if c, ok := dir.children[base]; ok {
		if c == n {
			return nil // rename onto itself (same entry) is a no-op
		}
		if c.dir {
			return ErrExists
		}
		// Replacing the target unlinks its entry: the node loses a name,
		// so its link count drops like a Remove of that one entry.
		c.nlink--
		delete(dir.children, base)
		replaced = c
	}
	delete(oldDir.children, oldBase)
	n.name = base
	n.parent = dir
	dir.children[base] = n
	f.dirty = true
	f.logRename(oldDir, oldBase, dir, base, n, replaced)
	return nil
}

// Link creates a hard link to an existing regular file.
func (f *FileSystem) Link(oldPath, newPath string) error {
	n, err := f.lookup(oldPath)
	if err != nil {
		return err
	}
	if n.dir {
		return ErrIsDir
	}
	dir, base, err := f.lookupParent(newPath)
	if err != nil {
		return err
	}
	if _, ok := dir.children[base]; ok {
		return ErrExists
	}
	// Simplified hard link: same node reachable under a second name is not
	// modelled; we copy the reference by aliasing the node map entry.
	dir.children[base] = n
	n.nlink++
	f.dirty = true
	f.logLink(dir, base, n)
	return nil
}

// List returns the sorted child names of a directory.
func (f *FileSystem) List(path string) ([]string, error) {
	n, err := f.lookup(path)
	if err != nil {
		return nil, err
	}
	if !n.dir {
		return nil, ErrNotDir
	}
	names := make([]string, 0, len(n.children))
	for name := range n.children {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Glob returns the sorted children of dir whose names match a Win32-style
// pattern with '*' and '?' wildcards.
func (f *FileSystem) Glob(dir, pattern string) ([]*Node, error) {
	n, err := f.lookup(dir)
	if err != nil {
		return nil, err
	}
	if !n.dir {
		return nil, ErrNotDir
	}
	names := make([]string, 0, len(n.children))
	for name := range n.children {
		if Match(pattern, name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	out := make([]*Node, len(names))
	for i, name := range names {
		out[i] = n.children[name]
	}
	return out, nil
}

// Match reports whether name matches a pattern containing '*' and '?'.
func Match(pattern, name string) bool {
	p, s := 0, 0
	star, mark := -1, 0
	for s < len(name) {
		switch {
		case p < len(pattern) && (pattern[p] == '?' || upper(pattern[p]) == upper(name[s])):
			p++
			s++
		case p < len(pattern) && pattern[p] == '*':
			star, mark = p, s
			p++
		case star >= 0:
			p = star + 1
			mark++
			s = mark
		default:
			return false
		}
	}
	for p < len(pattern) && pattern[p] == '*' {
		p++
	}
	return p == len(pattern)
}

func upper(b byte) byte {
	if 'a' <= b && b <= 'z' {
		return b - 'a' + 'A'
	}
	return b
}

// Touch updates the access and write times of a node.
func (f *FileSystem) Touch(n *Node) {
	now := f.clock()
	n.AccessTime = now
	n.WriteTime = now
}

// Now exposes the filesystem clock for API layers that stamp times.
func (f *FileSystem) Now() uint64 { return f.clock() }

// String renders the tree for debugging.
func (f *FileSystem) String() string {
	var b strings.Builder
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		fmt.Fprintf(&b, "%*s%s", depth*2, "", n.name)
		if n.dir {
			b.WriteString("/")
		} else {
			fmt.Fprintf(&b, " (%d bytes)", n.size)
		}
		b.WriteString("\n")
		if n.dir {
			names := make([]string, 0, len(n.children))
			for name := range n.children {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				walk(n.children[name], depth+1)
			}
		}
	}
	walk(&f.root, 0)
	return b.String()
}
