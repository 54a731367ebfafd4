package crashsim

import (
	"encoding/binary"
	"slices"

	"ballista/internal/chaos"
	"ballista/internal/sim/fs"
)

// fileState is one file object (inode analogue) as persisted: its data
// bytes and its stored link count.
type fileState struct {
	Data  []byte
	Nlink int
}

// DiskState is one legal post-crash disk image: directory entries
// (path → file object id) plus file objects.  Ids are the persistence
// log's node ids.
type DiskState struct {
	Entries map[string]int
	Files   map[int]*fileState
}

func newDiskState() *DiskState {
	return &DiskState{Entries: make(map[string]int), Files: make(map[int]*fileState)}
}

func (st *DiskState) clone() *DiskState {
	c := newDiskState()
	for p, id := range st.Entries {
		c.Entries[p] = id
	}
	for id, f := range st.Files {
		nf := &fileState{Nlink: f.Nlink, Data: make([]byte, len(f.Data))}
		copy(nf.Data, f.Data)
		c.Files[id] = nf
	}
	return c
}

func (st *DiskState) ensure(id int) *fileState {
	f, ok := st.Files[id]
	if !ok {
		f = &fileState{}
		st.Files[id] = f
	}
	return f
}

// entryCount counts directory entries referencing a file object.
func (st *DiskState) entryCount(id int) int {
	n := 0
	for _, e := range st.Entries {
		if e == id {
			n++
		}
	}
	return n
}

// stateKeys writes canonical binary fingerprints of disk states for
// deduplication, reusing its buffers from one state to the next.  Two
// states get equal keys exactly when their entries and file objects are
// equal.
type stateKeys struct {
	buf   []byte
	paths []string
	ids   []int
}

// key encodes st: the entry count, then each entry in path order as a
// length-prefixed path and its file id, then each file object in id
// order as its id, link count, data length and data.  The result is
// valid until the next call.
func (k *stateKeys) key(st *DiskState) []byte {
	k.paths = k.paths[:0]
	for p := range st.Entries {
		k.paths = append(k.paths, p)
	}
	slices.Sort(k.paths)
	k.ids = k.ids[:0]
	for id := range st.Files {
		k.ids = append(k.ids, id)
	}
	slices.Sort(k.ids)
	b := binary.AppendUvarint(k.buf[:0], uint64(len(k.paths)))
	for _, p := range k.paths {
		b = binary.AppendUvarint(b, uint64(len(p)))
		b = append(b, p...)
		b = binary.AppendVarint(b, int64(st.Entries[p]))
	}
	for _, id := range k.ids {
		f := st.Files[id]
		b = binary.AppendVarint(b, int64(id))
		b = binary.AppendVarint(b, int64(f.Nlink))
		b = binary.AppendUvarint(b, uint64(len(f.Data)))
		b = append(b, f.Data...)
	}
	k.buf = b
	return b
}

// Application modes for one metadata record in a partial state.
type metaMode int

const (
	modeAbsent metaMode = iota
	modeFull
	modeAddOnly    // rename: new entry added, old kept; link/remove: entry half only
	modeRemoveOnly // rename: old entry dropped, new never added
	modeNlinkOnly  // link/remove: link-count half only
)

// isData reports whether the record is node-scoped data (vs an entry
// update or a barrier).
func isData(k fs.PersistKind) bool {
	return k == fs.PersistWrite || k == fs.PersistTruncate
}

func isMeta(k fs.PersistKind) bool {
	switch k {
	case fs.PersistCreate, fs.PersistMkdir, fs.PersistRename, fs.PersistLink, fs.PersistRemove:
		return true
	}
	return false
}

// apply lands one record on the state under a mode (meta records) or
// torn flag (write records).  Entry removals only fire when the entry
// still references the record's node: an unapplied earlier op may have
// left a different object under that name, and physically the dir block
// holding our update would not touch it.
func (st *DiskState) apply(r fs.PersistRecord, mode metaMode, torn bool) {
	switch r.Kind {
	case fs.PersistWrite:
		data := r.Data
		if torn {
			data = data[:chaos.TornSplit(len(data))]
		}
		f := st.ensure(r.Node)
		end := r.Off + int64(len(data))
		if end > int64(len(f.Data)) {
			grown := make([]byte, end)
			copy(grown, f.Data)
			f.Data = grown
		}
		copy(f.Data[r.Off:], data)
	case fs.PersistTruncate:
		f := st.ensure(r.Node)
		if r.Size <= int64(len(f.Data)) {
			f.Data = f.Data[:r.Size]
		} else {
			grown := make([]byte, r.Size)
			copy(grown, f.Data)
			f.Data = grown
		}
	case fs.PersistCreate, fs.PersistMkdir:
		if mode == modeAbsent {
			return
		}
		st.Entries[r.Path] = r.Node
		f := st.ensure(r.Node)
		f.Nlink = 1
	case fs.PersistRemove:
		if mode == modeAbsent {
			return
		}
		if mode == modeFull || mode == modeAddOnly {
			if id, ok := st.Entries[r.Path]; ok && id == r.Node {
				delete(st.Entries, r.Path)
			}
		}
		if mode == modeFull || mode == modeNlinkOnly {
			st.ensure(r.Node).Nlink--
		}
	case fs.PersistLink:
		if mode == modeAbsent {
			return
		}
		if mode == modeFull || mode == modeAddOnly {
			st.Entries[r.Path2] = r.Node
		}
		if mode == modeFull || mode == modeNlinkOnly {
			st.ensure(r.Node).Nlink++
		}
	case fs.PersistRename:
		if mode == modeAbsent {
			return
		}
		if mode == modeFull || mode == modeRemoveOnly {
			if id, ok := st.Entries[r.Path]; ok && id == r.Node {
				delete(st.Entries, r.Path)
			}
		}
		if mode == modeFull || mode == modeAddOnly {
			st.Entries[r.Path2] = r.Node
			if mode == modeFull && r.Prev >= 0 {
				// Replacing renames are atomic in every profile that
				// allows them, so the target's unlink rides along.
				st.ensure(r.Prev).Nlink--
			}
		}
	case fs.PersistFsync:
	}
}

// baseState replays the fixture's records — always durable — into the
// pre-workload disk image.
func baseState(ex *execution) *DiskState {
	st := newDiskState()
	for _, r := range ex.log.Records()[:ex.baseLen] {
		st.apply(r, modeFull, false)
	}
	return st
}

// dataCut is one per-node data choice: the first Full records applied
// whole, plus — when Torn — the next record's torn prefix.
type dataCut struct {
	Full int
	Torn bool
}

// enumerateStates returns every legal post-crash disk state at crash
// point cp (1-based: the crash lands after op cp-1), deduplicated, in
// deterministic first-generation order.  The fully-persisted state is
// always a member: "no reordering happened" is legal under every
// policy.  base is the execution's baseState.
func enumerateStates(ex *execution, cp int, pol Policy, base *DiskState) []*DiskState {
	pending := ex.pending(cp)

	// Forced records: an fsync barrier commits every earlier data record
	// on its node; under FsyncEntries it also commits the node's entry
	// updates, and an ordered journal drags every earlier metadata
	// record along with them.
	forced := make([]bool, len(pending))
	for i, r := range pending {
		if r.Kind != fs.PersistFsync {
			continue
		}
		maxMeta := -1
		for j := 0; j < i; j++ {
			p := pending[j]
			if isData(p.Kind) && p.Node == r.Node {
				forced[j] = true
			}
			if pol.FsyncEntries && isMeta(p.Kind) && (p.Node == r.Node || p.Prev == r.Node) {
				forced[j] = true
				maxMeta = j
			}
		}
		if pol.OrderedMeta && maxMeta >= 0 {
			for j := 0; j < maxMeta; j++ {
				if isMeta(pending[j].Kind) {
					forced[j] = true
				}
			}
		}
	}

	// Per-node data choices: a prefix of that node's data records, with
	// an optional torn tail on the first unapplied write.
	dataIdx := make(map[int][]int) // node id → indices into pending
	var dataNodes []int
	for i, r := range pending {
		if !isData(r.Kind) {
			continue
		}
		if _, ok := dataIdx[r.Node]; !ok {
			dataNodes = append(dataNodes, r.Node)
		}
		dataIdx[r.Node] = append(dataIdx[r.Node], i)
	}
	dataChoices := make([][]dataCut, len(dataNodes))
	for ni, node := range dataNodes {
		idx := dataIdx[node]
		floor := 0
		for k, i := range idx {
			if forced[i] {
				floor = k + 1
			}
		}
		var cuts []dataCut
		for k := floor; k <= len(idx); k++ {
			cuts = append(cuts, dataCut{Full: k})
			if k < len(idx) && pol.TornWrites {
				if r := pending[idx[k]]; r.Kind == fs.PersistWrite && len(r.Data) > 1 {
					cuts = append(cuts, dataCut{Full: k, Torn: true})
				}
			}
		}
		dataChoices[ni] = cuts
	}

	// Metadata choices: a single journal cut under OrderedMeta,
	// otherwise an independent mode per record, split where the policy
	// lets one op's halves persist separately.
	var metaIdx []int
	for i, r := range pending {
		if isMeta(r.Kind) {
			metaIdx = append(metaIdx, i)
		}
	}
	var metaCombos [][]metaMode
	if pol.OrderedMeta {
		floor := 0
		for k, i := range metaIdx {
			if forced[i] {
				floor = k + 1
			}
		}
		for cut := floor; cut <= len(metaIdx); cut++ {
			modes := make([]metaMode, len(metaIdx))
			for k := range modes {
				if k < cut {
					modes[k] = modeFull
				} else {
					modes[k] = modeAbsent
				}
			}
			metaCombos = append(metaCombos, modes)
		}
	} else {
		options := make([][]metaMode, len(metaIdx))
		for k, i := range metaIdx {
			r := pending[i]
			switch {
			case forced[i]:
				options[k] = []metaMode{modeFull}
			case r.Kind == fs.PersistRename && !pol.AtomicRename && pol.SplitMeta:
				options[k] = []metaMode{modeAbsent, modeAddOnly, modeRemoveOnly, modeFull}
			case r.Kind == fs.PersistLink && pol.SplitMeta && pol.Links:
				options[k] = []metaMode{modeAbsent, modeAddOnly, modeNlinkOnly, modeFull}
			case r.Kind == fs.PersistRemove && pol.SplitMeta && pol.Links:
				options[k] = []metaMode{modeAbsent, modeAddOnly, modeNlinkOnly, modeFull}
			default:
				options[k] = []metaMode{modeAbsent, modeFull}
			}
		}
		metaCombos = cartesian(options)
	}
	if len(metaCombos) == 0 {
		metaCombos = [][]metaMode{nil}
	}

	dataCombos := cartesianCuts(dataChoices)
	if len(dataCombos) == 0 {
		dataCombos = [][]dataCut{nil}
	}

	// Each combination resolves every record's application into these,
	// indexed by position in pending; the states then land the records
	// in log order.
	metaAt := make([]metaMode, len(pending))
	fullAt := make([]bool, len(pending))
	tornAt := make([]bool, len(pending))
	var keys stateKeys
	seen := make(map[string]bool)
	var out []*DiskState
	for _, mc := range metaCombos {
		for k, i := range metaIdx {
			metaAt[i] = mc[k]
		}
		for _, dc := range dataCombos {
			clear(fullAt)
			clear(tornAt)
			for ni := range dataNodes {
				cut := dc[ni]
				idx := dataIdx[dataNodes[ni]]
				for k := 0; k < cut.Full; k++ {
					fullAt[idx[k]] = true
				}
				if cut.Torn {
					tornAt[idx[cut.Full]] = true
				}
			}
			st := base.clone()
			for i, r := range pending {
				switch {
				case isData(r.Kind):
					if fullAt[i] {
						st.apply(r, modeFull, false)
					} else if tornAt[i] {
						st.apply(r, modeFull, true)
					}
				case isMeta(r.Kind):
					st.apply(r, metaAt[i], false)
				}
			}
			if k := keys.key(st); !seen[string(k)] {
				seen[string(k)] = true
				out = append(out, st)
			}
		}
	}
	return out
}

func cartesian(options [][]metaMode) [][]metaMode {
	combos := [][]metaMode{nil}
	for _, opts := range options {
		var next [][]metaMode
		for _, c := range combos {
			for _, o := range opts {
				nc := make([]metaMode, len(c)+1)
				copy(nc, c)
				nc[len(c)] = o
				next = append(next, nc)
			}
		}
		combos = next
	}
	return combos
}

func cartesianCuts(options [][]dataCut) [][]dataCut {
	combos := [][]dataCut{nil}
	for _, opts := range options {
		var next [][]dataCut
		for _, c := range combos {
			for _, o := range opts {
				nc := make([]dataCut, len(c)+1)
				copy(nc, c)
				nc[len(c)] = o
				next = append(next, nc)
			}
		}
		combos = next
	}
	return combos
}
