package crashsim

import (
	"bytes"
	"math/bits"

	"ballista/internal/sim/fs"
)

// Invariant names, the vocabulary of violation reports.
const (
	// InvFsyncUnreachable: a file was fsync'd but no directory entry
	// reaches it post-crash — the ext2-era "fsync the file, lose the
	// create" hazard.
	InvFsyncUnreachable = "fsync-unreachable"
	// InvFsyncData: an fsync'd file's bytes do not match the content
	// that was durable-committed by the barrier.
	InvFsyncData = "fsync-data"
	// InvRenameDup: a completed rename left the file under both names.
	InvRenameDup = "rename-dup"
	// InvRenameLoss: a rename of a durably-existing file left it under
	// neither name.
	InvRenameLoss = "rename-loss"
	// InvOrphanEntry: a directory entry references a missing or freed
	// file object.
	InvOrphanEntry = "orphan-entry"
	// InvOrphanInode: a file object holds a positive link count but no
	// directory entry reaches it (lost storage, fsck's lost+found).
	InvOrphanInode = "orphan-inode"
	// InvLinkCount: a file object's stored link count disagrees with
	// its actual entry count.
	InvLinkCount = "link-count"
)

// violationSet is a set of invariant names: bit i stands for
// invariantNames[i].
type violationSet uint8

const (
	violFsyncData violationSet = 1 << iota
	violFsyncUnreachable
	violLinkCount
	violOrphanEntry
	violOrphanInode
	violRenameDup
	violRenameLoss
)

// invariantNames lists the invariant names in sorted order, in the bit
// order of violationSet.
var invariantNames = [...]string{
	InvFsyncData, InvFsyncUnreachable, InvLinkCount, InvOrphanEntry,
	InvOrphanInode, InvRenameDup, InvRenameLoss,
}

// names returns the set's members in sorted order, never nil.
func (s violationSet) names() []string {
	out := make([]string, 0, bits.OnesCount8(uint8(s)))
	for i, name := range invariantNames {
		if s&(1<<i) != 0 {
			out = append(out, name)
		}
	}
	return out
}

// pointChecks holds one crash point's invariant obligations.  They
// depend only on the base image, the pending records and the policy,
// so they are worked out once per crash point and then checked against
// every legal state.
type pointChecks struct {
	links     bool
	reachable []int              // fsync'd nodes that must keep an entry
	synced    []syncedFile       // fsync'd nodes that must hold their barrier's bytes
	renames   []fs.PersistRecord // renames that must not leave both names
	kept      []int              // renamed nodes that must keep some name
}

// syncedFile is the content an fsync barrier committed for one node.
type syncedFile struct {
	node int
	data []byte
}

func newPointChecks(base *DiskState, pending []fs.PersistRecord, pol Policy) pointChecks {
	c := pointChecks{links: pol.Links}
	for i, r := range pending {
		switch r.Kind {
		case fs.PersistFsync:
			// Durability promised at the barrier: the file must still be
			// reachable (unless the workload itself removed it later) and
			// must hold the bytes the barrier committed (unless a later
			// write legitimately overwrote them).
			removedLater := false
			dataLater := false
			for _, p := range pending[i+1:] {
				if p.Kind == fs.PersistRemove && p.Node == r.Node {
					removedLater = true
				}
				if isData(p.Kind) && p.Node == r.Node {
					dataLater = true
				}
			}
			if !removedLater {
				c.reachable = append(c.reachable, r.Node)
			}
			if !dataLater {
				c.synced = append(c.synced, syncedFile{r.Node, syncedData(base, pending[:i], r.Node)})
			}
		case fs.PersistRename:
			// Both names present is only a torn rename if nothing later
			// legitimately re-established the old name for this node.
			reMade := false
			for _, p := range pending[i+1:] {
				if p.Node != r.Node {
					continue
				}
				if (p.Kind == fs.PersistCreate && p.Path == r.Path) ||
					(p.Kind == fs.PersistLink || p.Kind == fs.PersistRename) && p.Path2 == r.Path {
					reMade = true
				}
			}
			if !reMade {
				c.renames = append(c.renames, r)
			}
			// Neither name present is only a lost rename for a file that
			// durably existed and that the workload never removed.
			removed := false
			for _, p := range pending {
				if p.Kind == fs.PersistRemove && p.Node == r.Node {
					removed = true
				}
			}
			if !removed && base.entryCount(r.Node) > 0 {
				c.kept = append(c.kept, r.Node)
			}
		}
	}
	return c
}

// check runs every persistence invariant against one post-crash state
// and returns the violated ones.
func (c *pointChecks) check(st *DiskState) violationSet {
	var found violationSet
	for _, node := range c.reachable {
		if st.entryCount(node) == 0 {
			found |= violFsyncUnreachable
		}
	}
	for _, s := range c.synced {
		f := st.Files[s.node]
		// A missing file object with nothing synced is the unreachable
		// case, not a data-loss case.
		if f == nil && len(s.data) > 0 || f != nil && !bytes.Equal(f.Data, s.data) {
			found |= violFsyncData
		}
	}
	for _, r := range c.renames {
		if id, ok := st.Entries[r.Path]; ok && id == r.Node {
			if id2, ok2 := st.Entries[r.Path2]; ok2 && id2 == r.Node {
				found |= violRenameDup
			}
		}
	}
	for _, node := range c.kept {
		if st.entryCount(node) == 0 {
			found |= violRenameLoss
		}
	}

	for _, id := range st.Entries {
		f := st.Files[id]
		if f == nil || (c.links && f.Nlink <= 0) {
			found |= violOrphanEntry
		}
	}
	for id, f := range st.Files {
		cnt := st.entryCount(id)
		if f.Nlink > 0 && cnt == 0 {
			found |= violOrphanInode
		}
		if c.links && cnt > 0 && cnt != f.Nlink {
			found |= violLinkCount
		}
	}
	return found
}

// syncedData computes the content the barrier committed: the base image
// plus every earlier data record on the node, applied whole.
func syncedData(base *DiskState, before []fs.PersistRecord, node int) []byte {
	var data []byte
	if f := base.Files[node]; f != nil {
		data = append(data, f.Data...)
	}
	tmp := &DiskState{Entries: map[string]int{}, Files: map[int]*fileState{node: {Data: data}}}
	for _, r := range before {
		if isData(r.Kind) && r.Node == node {
			tmp.apply(r, modeFull, false)
		}
	}
	return tmp.Files[node].Data
}
