package crashsim

import (
	"errors"
	"sync/atomic"

	"ballista/internal/sim/fs"
)

// fixtureSize is the seeded byte count of the pre-existing fixture
// file, and writeSize the bytes each workload write lands — a partial
// overwrite, so fsync'd-prefix checks see both old and new bytes.
const (
	fixtureSize = 16
	writeSize   = 8
)

// seededBytes derives deterministic content from (seed, salt); the same
// bytes land on every OS so disk states are comparable.
func seededBytes(seed, salt uint64, n int) []byte {
	out := make([]byte, n)
	x := seed*0x9e3779b97f4a7c15 + salt + 1
	for i := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out[i] = byte(x)
	}
	return out
}

// execution is one workload replayed on one OS profile's simulated FS:
// the persistence log it produced, the per-op outcome tokens, and the
// log watermark after each op (the crash points).
type execution struct {
	log     *fs.PersistLog
	baseLen int      // records belonging to the fixture, always durable
	results []string // per-op outcome token ("ok" or an error token)
	marks   []int    // log length after each op
}

// errToken maps an fs error to a stable wire token, so per-OS results
// diff cleanly.
func errToken(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, fs.ErrNotFound):
		return "noent"
	case errors.Is(err, fs.ErrExists):
		return "exists"
	case errors.Is(err, fs.ErrIsDir):
		return "isdir"
	case errors.Is(err, fs.ErrNotDir):
		return "notdir"
	case errors.Is(err, fs.ErrPerm):
		return "perm"
	case errors.Is(err, fs.ErrNoSpace):
		return "nospace"
	case errors.Is(err, fs.ErrIO):
		return "io"
	default:
		return "err"
	}
}

// pending returns the workload's records up to crash point cp
// (1-based: the crash lands after op cp-1), the ones a crash there may
// have left unpersisted.
func (ex *execution) pending(cp int) []fs.PersistRecord {
	return ex.log.Records()[ex.baseLen:ex.marks[cp-1]]
}

// runs counts run calls, for the gate that Evaluate replays a workload
// once per distinct durability policy.
var runs atomic.Int64

// run replays the workload on a fresh simulated FS under one durability
// policy.  The fixture (first name exists with seeded bytes) executes
// with the log attached so its records — always treated as durable —
// assign the node ids the workload then shares.
func run(w Workload, names []string, pol Policy) *execution {
	runs.Add(1)
	if len(names) == 0 {
		names = DefaultNames()
	}
	fsys := fs.New(nil)
	log := fs.NewPersistLog()
	fsys.SetPersistLog(log)

	// Fixture: names[0] exists with fixtureSize seeded bytes.
	n, err := fsys.Create("/"+names[0], 0o6, true)
	if err != nil {
		panic("crashsim: fixture create failed: " + err.Error())
	}
	of := fsys.OpenNode(n, false, true)
	if _, err := of.Write(seededBytes(w.Seed, 0, fixtureSize)); err != nil {
		panic("crashsim: fixture write failed: " + err.Error())
	}
	_ = of.Close()

	ex := &execution{log: log, baseLen: log.Len()}
	for i, op := range w.Ops {
		ex.results = append(ex.results, execOp(fsys, pol, op, w.Seed, uint64(i)))
		ex.marks = append(ex.marks, log.Len())
	}
	return ex
}

func execOp(fsys *fs.FileSystem, pol Policy, op Op, seed, salt uint64) string {
	path := "/" + op.File
	switch op.Kind {
	case OpCreate:
		_, err := fsys.Create(path, 0o6, true)
		return errToken(err)
	case OpWrite:
		of, err := fsys.Open(path, false, true)
		if err != nil {
			return errToken(err)
		}
		defer of.Close()
		_, err = of.Write(seededBytes(seed, salt+1, writeSize))
		return errToken(err)
	case OpFsync:
		return errToken(fsys.Fsync(path))
	case OpRename:
		if !pol.RenameReplaces {
			// MoveFile semantics: a missing source reports first, then
			// an existing destination fails the move.
			if _, err := fsys.Stat(path); err != nil {
				return errToken(err)
			}
			if _, err := fsys.Stat("/" + op.To); err == nil {
				return "exists"
			}
		}
		return errToken(fsys.Rename(path, "/"+op.To))
	case OpLink:
		if !pol.Links {
			return "unsupported"
		}
		return errToken(fsys.Link(path, "/"+op.To))
	case OpRemove:
		return errToken(fsys.Remove(path))
	default:
		return "err"
	}
}
