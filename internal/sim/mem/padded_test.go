package mem

import (
	"bytes"
	"fmt"
	"testing"
)

// paddedLayout builds an address space with a run in every arena and the
// edges a padded write can cross: a guard page, a read-only page, the
// unmapped system window and the kernel boundary.  Some pages already
// hold bytes, so a write lands on both backed and unbacked pages.
func paddedLayout(t *testing.T) (*AddressSpace, map[string]Addr) {
	t.Helper()
	as := New()
	as.SetStats(&Stats{})
	user, err := as.Alloc(3*PageSize, ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	big := UserBase + 0x400000
	ro := UserBase + 0x200000
	sys, err := as.AllocSystem(2*PageSize, ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []struct {
		addr Addr
		size uint32
		prot Prot
	}{
		{big, 1<<20 + 2*PageSize, ProtRW},
		{ro, PageSize, ProtRW},
		{ro + PageSize, PageSize, ProtRead},
		{KernelBase - PageSize, PageSize, ProtRW},
	} {
		if err := as.Map(m.addr, m.size, m.prot); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range []Addr{user + PageSize + 7, big + 3*PageSize, sys + 100} {
		if f := as.Write(a, []byte("older bytes")); f != nil {
			t.Fatal(f)
		}
	}
	return as, map[string]Addr{
		"null":              0,
		"null+16":           16,
		"user":              user,
		"user page end":     user + PageSize - 2,
		"user guard":        user + 3*PageSize - 1,
		"read-only edge":    ro + PageSize - 3,
		"big":               big,
		"big mid-page":      big + PageSize/2,
		"system":            sys,
		"system guard":      sys + 2*PageSize - 1,
		"system window":     SystemBase,
		"kernel boundary":   KernelBase - 2,
		"kernel":            KernelBase + 16,
		"top of the space":  0xFFFFFFF0,
		"unmapped user gap": UserBase + 0x300000,
	}
}

// padded is the buffer WritePadded stands for: data cut or padded with
// pad to n bytes.
func padded(data []byte, n uint32, pad byte) []byte {
	b := bytes.Repeat([]byte{pad}, int(n))
	copy(b, data)
	return b
}

// TestWritePaddedMatchesWrite: WritePadded at sizes 0, 1, page-straddling
// and 1 MiB, across the null, user, system and kernel arenas, leaves the
// same fault, bytes, backings and Stats as Write of the padded buffer.
func TestWritePaddedMatchesWrite(t *testing.T) {
	for _, src := range []struct {
		name string
		data []byte
		pad  byte
	}{
		{"memset", nil, 0xAB},
		{"strncpy", []byte("source"), 0},
		{"cut", bytes.Repeat([]byte("xyz"), PageSize), '?'},
	} {
		for _, n := range []uint32{0, 1, PageSize + 5, 1 << 20} {
			_, addrs := paddedLayout(t)
			for where, addr := range addrs {
				t.Run(fmt.Sprintf("%s/%d/%s", src.name, n, where), func(t *testing.T) {
					got, _ := paddedLayout(t)
					want, _ := paddedLayout(t)
					f1 := got.WritePadded(addr, src.data, n, src.pad)
					f2 := want.Write(addr, padded(src.data, n, src.pad))
					if !sameFault(f1, f2) {
						t.Fatalf("fault %v, want %v", f1, f2)
					}
					if *got.stats != *want.stats {
						t.Errorf("stats %+v, want %+v", *got.stats, *want.stats)
					}
					if len(got.data) != len(want.data) {
						t.Fatalf("%d pages hold backings, want %d", len(got.data), len(want.data))
					}
					for i, w := range want.data {
						if g := got.data[i]; g.Key != w.Key || *g.Val != *w.Val {
							t.Errorf("page %#x differs", w.Key)
						}
					}
				})
			}
		}
	}
}
