package explore

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"sort"

	"ballista/internal/sim/fs"
	"ballista/internal/sim/kern"
)

// Fingerprint is a 64-bit digest of a simulated machine's observable
// state: the fuzzer's coverage signal.  Two machines with the same
// fingerprint have (with hash confidence) taken the same state
// trajectory; a chain that produces a fingerprint no earlier chain
// produced has reached somewhere new and earns a corpus slot.
type Fingerprint uint64

// String renders the fingerprint as fixed-width hex (corpus checkpoints
// and trace records store this form).
func (f Fingerprint) String() string { return fmt.Sprintf("%016x", uint64(f)) }

// ParseFingerprint reverses String.
func ParseFingerprint(s string) (Fingerprint, error) {
	var v uint64
	if _, err := fmt.Sscanf(s, "%x", &v); err != nil {
		return 0, fmt.Errorf("explore: bad fingerprint %q: %w", s, err)
	}
	return Fingerprint(v), nil
}

// hashWriter accumulates the digest; all inputs are reduced to
// little-endian u64 words or raw strings so the digest is platform- and
// run-independent.
type hashWriter struct{ h io.Writer }

func (w hashWriter) u64(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		w.h.Write(b[:])
	}
}

func (w hashWriter) str(s string) {
	w.u64(uint64(len(s)))
	io.WriteString(w.h, s)
}

func (w hashWriter) flag(b bool) {
	if b {
		w.u64(1)
	} else {
		w.u64(0)
	}
}

// KernelFingerprint digests one machine's state: architecture, crash and
// corruption status, reboot epoch, simulated clock, the monotonic
// activity counters (processes, handle-table traffic by object kind, FD
// traffic, pointer-probe faults, raw kernel accesses), the machine-wide
// memory counters (page mappings, heap blocks, faults, page-protection
// transitions), and a walk of the filesystem tree including each node's
// size, mode, attributes, link count and byte-range lock table shape.
//
// Everything hashed is simulated state, so the fingerprint of a freshly
// booted kernel is a constant per OS profile, and the fingerprint after
// any chain is a deterministic function of the chain alone.
func KernelFingerprint(k *kern.Kernel) Fingerprint {
	h := fnv.New64a()
	w := hashWriter{h}

	w.str(k.Arch.Name)
	w.flag(k.Arch.ProbePointers)
	w.flag(k.Arch.SharedSystemArena)

	w.flag(k.Crashed())
	w.str(k.CrashReason())
	w.u64(uint64(k.Corruption()), uint64(k.Epoch), k.Ticks())

	st := k.Stats()
	w.u64(st.Processes,
		st.HandlesOpened, st.HandlesClosed,
		st.FDsOpened, st.FDsClosed,
		st.ProbeFaults,
		st.RawReads, st.RawWrites, st.RawFaults,
		st.Corruptions, st.Crashes, st.Reboots)
	for _, n := range st.HandlesByKind {
		w.u64(n)
	}

	ms := k.MemStats()
	w.u64(ms.PagesMapped, ms.PagesUnmapped, ms.Allocs, ms.Frees,
		ms.Faults, ms.ProtTransitions)

	hashFS(w, k.FS)
	return Fingerprint(h.Sum64())
}

// hashFS walks the tree depth-first in sorted name order.
func hashFS(w hashWriter, f *fs.FileSystem) {
	var walk func(path string, n *fs.Node)
	walk = func(path string, n *fs.Node) {
		w.str(path)
		w.flag(n.IsDir())
		w.u64(uint64(n.Size()), uint64(n.Mode()), uint64(n.Attrs()),
			uint64(n.Nlink()), uint64(n.LockCount()),
			n.CreateTime, n.WriteTime)
		if !n.IsDir() {
			return
		}
		names, err := f.List(path)
		if err != nil {
			w.str("!list:" + err.Error())
			return
		}
		sort.Strings(names)
		for _, name := range names {
			childPath := path + "/" + name
			if path == "/" {
				childPath = "/" + name
			}
			child, err := f.Stat(childPath)
			if err != nil {
				w.str("!stat:" + err.Error())
				continue
			}
			walk(childPath, child)
		}
	}
	root, err := f.Stat("/")
	if err != nil {
		w.str("!root:" + err.Error())
		return
	}
	walk("/", root)
}
