package fs

// Persistence model: the live tree is the *in-cache* state a running
// process sees; what survives a crash is some prefix-closed subset of
// the logged persistence records, reordered within the bounds the OS
// profile's durability policy allows.  The filesystem itself only
// *records* — deciding which record subsets are legal post-crash states
// is internal/crashsim's job, keeping sim/fs free of per-OS policy.
//
// With no log attached every hook is a single nil check, so campaigns
// that never ask about crash states pay nothing and observe nothing.

// PersistKind classifies one durable effect of an FS mutation.
type PersistKind int

// Persistence record kinds.  Write/Truncate are data records scoped to
// a node; Create/Mkdir/Rename/Link/Remove are directory-entry records;
// Fsync is the commit barrier for one node.
const (
	PersistWrite PersistKind = iota
	PersistTruncate
	PersistCreate
	PersistMkdir
	PersistRename
	PersistLink
	PersistRemove
	PersistFsync
)

var persistKindNames = [...]string{
	"write", "truncate", "create", "mkdir", "rename", "link", "remove", "fsync",
}

func (k PersistKind) String() string {
	if int(k) < len(persistKindNames) {
		return persistKindNames[k]
	}
	return "unknown"
}

// PersistRecord is one logged durable effect.  Node identifies the file
// object (inode analogue) by a small log-local integer so a post-crash
// state can be replayed without touching live *Node pointers.
type PersistRecord struct {
	Seq   int
	Kind  PersistKind
	Node  int    // file object the record concerns
	Prev  int    // rename: replaced target's node id, -1 if none
	Path  string // entry path (create/mkdir/remove, rename source)
	Path2 string // rename destination / link alias path
	Off   int64  // write: position the bytes landed at
	Data  []byte // write: the bytes that actually landed (post-chaos)
	Size  int64  // truncate: resulting length
}

// PersistLog collects persistence records from an attached FileSystem.
type PersistLog struct {
	recs []PersistRecord
	ids  map[*Node]int
	next int
}

// NewPersistLog returns an empty log.
func NewPersistLog() *PersistLog {
	return &PersistLog{ids: make(map[*Node]int)}
}

// ID returns the log-local id for a node, assigning the next integer on
// first touch.  IDs are stable for the life of the log, so a fixture
// executed with the log attached shares ids with the workload that
// follows it.
func (l *PersistLog) ID(n *Node) int {
	if id, ok := l.ids[n]; ok {
		return id
	}
	id := l.next
	l.next++
	l.ids[n] = id
	return id
}

// Len returns the number of records logged so far.
func (l *PersistLog) Len() int { return len(l.recs) }

// Records returns the log contents.  The slice is shared with the log;
// callers must not mutate it.
func (l *PersistLog) Records() []PersistRecord { return l.recs }

func (l *PersistLog) add(r PersistRecord) {
	r.Seq = len(l.recs)
	l.recs = append(l.recs, r)
}

// SetPersistLog attaches a persistence log; nil detaches it.  Attaching
// mid-stream is allowed: records before the attach are simply absent,
// which crashsim uses to separate fixture state from workload state.
func (f *FileSystem) SetPersistLog(l *PersistLog) { f.plog = l }

// PersistLog returns the attached log, or nil.
func (f *FileSystem) PersistLog() *PersistLog { return f.plog }

// entryPath renders the canonical path of entry base in dir by walking
// parent pointers.  Directories have a unique parent (hard links are
// file-only), so the walk is well-defined.
func entryPath(dir *Node, base string) string {
	parts := []string{base}
	for n := dir; n != nil && n.parent != nil; n = n.parent {
		parts = append(parts, n.name)
	}
	var b []byte
	for i := len(parts) - 1; i >= 0; i-- {
		b = append(b, '/')
		b = append(b, parts[i]...)
	}
	return string(b)
}

func (f *FileSystem) logCreate(dir *Node, base string, n *Node) {
	if f.plog == nil {
		return
	}
	f.plog.add(PersistRecord{Kind: PersistCreate, Node: f.plog.ID(n), Prev: -1, Path: entryPath(dir, base)})
}

func (f *FileSystem) logMkdir(dir *Node, base string, n *Node) {
	if f.plog == nil {
		return
	}
	f.plog.add(PersistRecord{Kind: PersistMkdir, Node: f.plog.ID(n), Prev: -1, Path: entryPath(dir, base)})
}

func (f *FileSystem) logRemove(dir *Node, base string, n *Node) {
	if f.plog == nil {
		return
	}
	f.plog.add(PersistRecord{Kind: PersistRemove, Node: f.plog.ID(n), Prev: -1, Path: entryPath(dir, base)})
}

func (f *FileSystem) logRename(oldDir *Node, oldBase string, newDir *Node, newBase string, n, replaced *Node) {
	if f.plog == nil {
		return
	}
	prev := -1
	if replaced != nil {
		prev = f.plog.ID(replaced)
	}
	f.plog.add(PersistRecord{
		Kind: PersistRename, Node: f.plog.ID(n), Prev: prev,
		Path: entryPath(oldDir, oldBase), Path2: entryPath(newDir, newBase),
	})
}

func (f *FileSystem) logLink(dir *Node, base string, n *Node) {
	if f.plog == nil {
		return
	}
	f.plog.add(PersistRecord{Kind: PersistLink, Node: f.plog.ID(n), Prev: -1, Path2: entryPath(dir, base)})
}

func (f *FileSystem) logWrite(n *Node, off int64, p []byte) {
	if f.plog == nil {
		return
	}
	data := make([]byte, len(p))
	copy(data, p)
	f.plog.add(PersistRecord{Kind: PersistWrite, Node: f.plog.ID(n), Prev: -1, Off: off, Data: data})
}

func (f *FileSystem) logTruncate(n *Node, size int64) {
	if f.plog == nil {
		return
	}
	f.plog.add(PersistRecord{Kind: PersistTruncate, Node: f.plog.ID(n), Prev: -1, Size: size})
}

func (f *FileSystem) logFsync(n *Node) {
	if f.plog == nil {
		return
	}
	f.plog.add(PersistRecord{Kind: PersistFsync, Node: f.plog.ID(n), Prev: -1})
}

// Fsync records a commit barrier for the node at path.  On the live
// (in-cache) tree it is a no-op — the tree is always current — but in
// the persistence log it bounds which reorderings survive a crash.
func (f *FileSystem) Fsync(path string) error {
	n, err := f.lookup(path)
	if err != nil {
		return err
	}
	f.logFsync(n)
	return nil
}

// Sync records a commit barrier for the open file's node (fsync(fd) /
// FlushFileBuffers semantics).
func (o *OpenFile) Sync() error {
	if o.closed {
		return ErrClosed
	}
	o.fs.logFsync(o.node)
	return nil
}
