package core

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strings"

	"ballista/internal/api"
	"ballista/internal/sim/mem"
)

// CaseState is what the arena oracle compares of a runner's last case:
// its outcome, its process's tables and the pages its process wrote.
type CaseState struct {
	Outcome api.Outcome
	// Handles and FDs count the process's table entries; Env is its
	// environment block.
	Handles, FDs int
	Env          string
	// Pages counts the written pages; Digest hashes their numbers and
	// bytes in page order.
	Pages  int
	Digest [sha256.Size]byte
}

// LastCase reads the state of the runner's last case out of its case
// arena, where it stays until the next case starts.  A runner whose
// arena was dropped (or never made) reports the zero state.
func LastCase(r *Runner) CaseState {
	f := r.frame
	if f == nil || f.env.P == nil {
		return CaseState{}
	}
	pages := map[uint32]*[mem.PageSize]byte{}
	f.env.P.AS.EachBacking(func(pn uint32, b *[mem.PageSize]byte) { pages[pn] = b })
	pns := make([]uint32, 0, len(pages))
	for pn := range pages {
		pns = append(pns, pn)
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	h := sha256.New()
	for _, pn := range pns {
		_ = binary.Write(h, binary.LittleEndian, pn)
		h.Write(pages[pn][:])
	}
	p := f.env.P
	st := CaseState{
		Outcome: f.call.Out, Pages: len(pns),
		Handles: p.HandleCount(), FDs: p.FDCount(), Env: strings.Join(p.Environ(), "\x00"),
	}
	h.Sum(st.Digest[:0])
	return st
}

// DropArena discards the runner's case arena, so its next case runs in
// brand-new memory, as a fresh runner's first case does.
func DropArena(r *Runner) { r.frame = nil }
