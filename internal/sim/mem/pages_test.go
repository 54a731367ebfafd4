package mem

import (
	"math/rand"
	"testing"
)

// TestPagesHandOutZeroedBackings drives one address space through many
// reuses, each writing random bytes to random pages and unmapping some
// of them, the way one runner's test cases do.  Whenever the space is
// reused, every backing on the free list must be all zero and the list
// must hold at most maxFreePages; a page first written after the reuse
// must read as zeros everywhere but the written bytes.
func TestPagesHandOutZeroedBackings(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var ps Pages
	as := New()
	for round := 0; round < 200; round++ {
		Init(as, &ps)
		if ps.n > maxFreePages {
			t.Fatalf("round %d: free list holds %d backings, cap %d", round, ps.n, maxFreePages)
		}
		for i, b := range ps.free[:ps.n] {
			if *b != ([PageSize]byte{}) {
				t.Fatalf("round %d: free backing %d is not zero", round, i)
			}
		}
		for i, b := range ps.free[ps.n:] {
			if b != nil {
				t.Fatalf("round %d: free slot %d past the list still holds a backing", round, ps.n+i)
			}
		}
		pages := 1 + rng.Intn(12)
		base, err := as.Alloc(uint32(pages)*PageSize, ProtRW)
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < pages; p++ {
			at := base + Addr(p*PageSize+rng.Intn(PageSize-8))
			if f := as.WriteU32(at, 0xA5A5A5A5); f != nil {
				t.Fatal(f)
			}
			page, f := as.Read(base+Addr(p*PageSize), PageSize)
			if f != nil {
				t.Fatal(f)
			}
			for off, v := range page {
				inWrite := Addr(off) >= at-base-Addr(p*PageSize) && Addr(off) < at-base-Addr(p*PageSize)+4
				if !inWrite && v != 0 {
					t.Fatalf("round %d: page %d byte %d reads %#x on its first write, want 0", round, p, off, v)
				}
			}
			// Fill the rest of the page so a missed clear would show.
			if f := as.WritePadded(base+Addr(p*PageSize), nil, PageSize, 0xEE); f != nil {
				t.Fatal(f)
			}
		}
		if rng.Intn(2) == 0 {
			if err := as.Free(base); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestReusedSpaceAllocatesNothing: once warm, reusing an address space
// and writing as many pages as the free list holds allocates nothing —
// the backings come from the list and the page map is cleared, not made
// again.  A case that writes more than the list holds leaves a full list
// and drops its outgrown map.
func TestReusedSpaceAllocatesNothing(t *testing.T) {
	var ps Pages
	as := New()
	write := func(pages int) {
		Init(as, &ps)
		base, err := as.Alloc(uint32(pages)*PageSize, ProtRW)
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < pages; p++ {
			_ = as.WriteU8(base+Addr(p*PageSize), 1)
		}
	}
	write(maxFreePages)
	if got := testing.AllocsPerRun(100, func() { write(maxFreePages) }); got != 0 {
		t.Errorf("reusing the space and writing %d pages allocates %v times, want 0", maxFreePages, got)
	}
	write(3 * maxFreePages)
	Init(as, &ps)
	if ps.n != maxFreePages {
		t.Errorf("free list holds %d backings after a %d-page case, want %d", ps.n, 3*maxFreePages, maxFreePages)
	}
	if as.data != nil {
		t.Errorf("a page map grown to %d pages was kept", 3*maxFreePages)
	}
}
