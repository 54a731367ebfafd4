package mem

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"ballista/internal/chaos"
)

// refSpace is the reference model for the range-mapped page table: one
// map entry per mapped page, checked page by page, which is the
// semantics the address space had before it kept runs.  The
// differential test below drives it and an AddressSpace with the same
// operations and requires identical results.
type refSpace struct {
	pages    map[uint32]*refPage
	userNext Addr
	sysNext  Addr
	allocs   map[Addr]uint32
	quota    uint64
	mapped   uint64
	written  int // pages holding data
	free     int // backings on the free list
	stats    Stats
	inj      *chaos.Injector
}

type refPage struct {
	prot Prot
	data []byte
}

func newRef() *refSpace {
	r := new(refSpace)
	r.Init()
	return r
}

// Init empties the space as mem.Init does, returning the written pages'
// backings to the free list; the counters and the free list live on.
func (r *refSpace) Init() {
	for range r.written {
		r.put()
	}
	r.pages = make(map[uint32]*refPage)
	r.userNext, r.sysNext = UserBase, SystemBase+0x01000000
	r.allocs = make(map[Addr]uint32)
	r.mapped, r.written = 0, 0
}

// put returns one backing to the free list, which keeps at most
// maxFreePages.
func (r *refSpace) put() { r.free = min(r.free+1, maxFreePages) }

func (r *refSpace) Map(addr Addr, size uint32, prot Prot) error {
	if size == 0 || addr+Addr(size-1) < addr {
		return ErrBadRange
	}
	first, last := pageNum(addr), pageNum(addr+Addr(size-1))
	fresh := uint64(0)
	for pn := first; pn <= last; pn++ {
		if _, ok := r.pages[pn]; !ok {
			fresh += PageSize
		}
	}
	if r.quota != 0 && r.mapped+fresh > r.quota {
		return ErrNoSpace
	}
	if r.inj != nil {
		for consumed := uint64(0); consumed < fresh; consumed += PageSize {
			if _, ok := r.inj.Fault(chaos.OpMemPage, "page"); ok {
				return ErrNoSpace
			}
		}
	}
	if fresh > 0 && r.inj != nil {
		site := "commit"
		if fresh > PageSize {
			site = "commit.multi"
		}
		if _, ok := r.inj.Fault(chaos.OpMemCommit, site); ok {
			return ErrNoSpace
		}
	}
	for pn := first; pn <= last; pn++ {
		if pg, ok := r.pages[pn]; ok {
			pg.prot = prot
		} else {
			r.pages[pn] = &refPage{prot: prot}
		}
	}
	r.mapped += fresh
	r.stats.PagesMapped += fresh / PageSize
	return nil
}

func (r *refSpace) Unmap(addr Addr, size uint32) error {
	if size == 0 || addr+Addr(size-1) < addr {
		return ErrBadRange
	}
	for pn := pageNum(addr); pn <= pageNum(addr+Addr(size-1)); pn++ {
		if pg, ok := r.pages[pn]; ok {
			r.mapped -= PageSize
			r.stats.PagesUnmapped++
			if pg.data != nil {
				r.written--
				r.put()
			}
		}
		delete(r.pages, pn)
	}
	return nil
}

func (r *refSpace) Protect(addr Addr, size uint32, prot Prot) error {
	if size == 0 || addr+Addr(size-1) < addr {
		return ErrBadRange
	}
	first, last := pageNum(addr), pageNum(addr+Addr(size-1))
	for pn := first; pn <= last; pn++ {
		if _, ok := r.pages[pn]; !ok {
			return &Fault{Addr: Addr(pn << PageShift), Kind: FaultUnmapped}
		}
	}
	for pn := first; pn <= last; pn++ {
		if r.pages[pn].prot != prot {
			r.pages[pn].prot = prot
			r.stats.ProtTransitions++
		}
	}
	return nil
}

func (r *refSpace) Mapped(addr Addr, size uint32, prot Prot) bool {
	if size == 0 {
		size = 1
	}
	if addr+Addr(size-1) < addr {
		return false
	}
	for pn := pageNum(addr); pn <= pageNum(addr+Addr(size-1)); pn++ {
		pg, ok := r.pages[pn]
		if !ok || pg.prot&prot != prot {
			return false
		}
	}
	return true
}

func (r *refSpace) ProtAt(a Addr) (Prot, bool) {
	pg, ok := r.pages[pageNum(a)]
	if !ok {
		return ProtNone, false
	}
	return pg.prot, true
}

func (r *refSpace) check(addr Addr, size uint32, write bool) *Fault {
	if size == 0 {
		size = 1
	}
	if addr+Addr(size-1) < addr {
		return &Fault{Addr: addr, Write: write, Kind: FaultUnmapped}
	}
	need := ProtRead
	if write {
		need = ProtWrite
	}
	for pn := pageNum(addr); pn <= pageNum(addr+Addr(size-1)); pn++ {
		pa := max(Addr(pn<<PageShift), addr)
		if RegionOf(pa) == RegionKernel {
			return &Fault{Addr: pa, Write: write, Kind: FaultKernelRange}
		}
		pg, ok := r.pages[pn]
		if !ok {
			return &Fault{Addr: pa, Write: write, Kind: FaultUnmapped}
		}
		if pg.prot&need != need {
			return &Fault{Addr: pa, Write: write, Kind: FaultProtection}
		}
	}
	return nil
}

func (r *refSpace) byteAt(a Addr) byte {
	pg := r.pages[pageNum(a)]
	if pg.data == nil {
		return 0
	}
	return pg.data[pageOff(a)]
}

func (r *refSpace) Read(addr Addr, size uint32) ([]byte, *Fault) {
	if f := r.check(addr, size, false); f != nil {
		r.stats.Faults++
		return nil, f
	}
	out := make([]byte, size)
	for i := range out {
		out[i] = r.byteAt(addr + Addr(i))
	}
	return out, nil
}

func (r *refSpace) Write(addr Addr, data []byte) *Fault {
	if len(data) == 0 {
		return nil
	}
	if f := r.check(addr, uint32(len(data)), true); f != nil {
		r.stats.Faults++
		return f
	}
	for i, b := range data {
		pg := r.pages[pageNum(addr+Addr(i))]
		if pg.data == nil {
			pg.data = make([]byte, PageSize)
			r.written++
			r.free = max(r.free-1, 0)
		}
		pg.data[pageOff(addr+Addr(i))] = b
	}
	return nil
}

// CString walks one byte at a time, the definition the page-at-a-time
// scan must match.
func (r *refSpace) CString(addr Addr) (string, *Fault) {
	var buf []byte
	for i := 0; i < CStringLimit; i++ {
		a := addr + Addr(i)
		if f := r.check(a, 1, false); f != nil {
			r.stats.Faults++
			return "", f
		}
		b := r.byteAt(a)
		if b == 0 {
			break
		}
		buf = append(buf, b)
	}
	return string(buf), nil
}

func (r *refSpace) alloc(next *Addr, top Addr, size uint32, prot Prot) (Addr, error) {
	if size == 0 {
		size = 1
	}
	pages := (size + PageSize - 1) / PageSize
	base := *next
	span := Addr(pages+1) * PageSize
	if base+span < base || base+span > top {
		return 0, ErrNoSpace
	}
	if err := r.Map(base, pages*PageSize, prot); err != nil {
		return 0, err
	}
	*next = base + span
	r.allocs[base] = pages * PageSize
	r.stats.Allocs++
	return base, nil
}

func (r *refSpace) Free(base Addr) error {
	size, ok := r.allocs[base]
	if !ok {
		return fmt.Errorf("mem: Free(%#08x): %w", uint32(base), ErrBadRange)
	}
	delete(r.allocs, base)
	r.stats.Frees++
	return r.Unmap(base, size)
}

// Interesting addresses: arena edges, page edges around them, and the
// top of the space, where ranges wrap.
var edgeAddrs = []Addr{
	0, 1, NullTop, NullTop + 1, UserBase - 1, UserBase, UserBase + PageSize - 1,
	UserTop - PageSize, UserTop, SystemBase - 2, SystemBase, SystemBase + 0x01000000,
	SystemTop - 1, SystemTop, KernelBase - PageSize, KernelBase - 3, KernelBase,
	KernelBase + PageSize + 5, 0xFFFFF000, 0xFFFFFFFF,
}

// Interesting sizes: empty, one byte and page-straddling lengths.
var edgeSizes = []uint32{
	0, 1, 2, 3, PageSize - 1, PageSize, PageSize + 1, 2*PageSize + 3, 7 * PageSize, 64 * PageSize,
}

// hugeSizes are the paper's MAXINT-style lengths, the whole space and a
// 16 MiB run.
var hugeSizes = []uint32{0x7FFFFFFF, 0xFFFFFFFF, 0x00FFFFFF}

type pageTableRig struct {
	t     *testing.T
	rng   *rand.Rand
	as    *AddressSpace
	ref   *refSpace
	bases []Addr // blocks handed out, live or freed
	full  int    // Allocs refused for want of space

	// pooled runs draw the space's backings from ps and add WritePadded
	// and Init to the operations.
	pooled bool
	ps     Pages
}

// reuse starts the space again as a harness starts its next test
// process, keeping the counters, quota and injector attached.
func (g *pageTableRig) reuse() {
	stats, quota, inj := g.as.stats, g.as.quota, g.as.inj
	Init(g.as, &g.ps)
	g.as.SetStats(stats)
	g.as.SetQuota(quota)
	g.as.SetInjector(inj)
	g.ref.Init()
	g.bases = g.bases[:0]
}

// draw picks the next operation: 0 to 10 in every run; in a pooled run
// also 11, WritePadded, and, about once in 750 operations, 12, Init, so
// a space under quota still fills up between two starts.
func (g *pageTableRig) draw() int {
	switch {
	case !g.pooled:
		return g.rng.Intn(11)
	case g.rng.Intn(750) == 0:
		return 12
	default:
		return g.rng.Intn(12)
	}
}

func (g *pageTableRig) addr() Addr {
	switch g.rng.Intn(4) {
	case 0:
		return edgeAddrs[g.rng.Intn(len(edgeAddrs))]
	case 1:
		if len(g.bases) > 0 {
			b := g.bases[g.rng.Intn(len(g.bases))]
			return b + Addr(g.rng.Intn(5*PageSize)) - 2*PageSize
		}
		fallthrough
	case 2:
		// Near the bump pointers, where the allocator maps next.
		a := g.ref.userNext
		if g.rng.Intn(2) == 0 {
			a = g.ref.sysNext
		}
		return a + Addr(g.rng.Intn(9*PageSize)) - 4*PageSize
	default:
		return Addr(g.rng.Uint32())
	}
}

// size draws a range length; huge lengths only where the caller allows
// them (a successful huge Read or Write would copy gigabytes), and
// rarely, since the per-page model pays for every page they name.
func (g *pageTableRig) size(huge bool) uint32 {
	switch r := g.rng.Intn(40); {
	case huge && r == 0:
		return hugeSizes[g.rng.Intn(len(hugeSizes))]
	case r < 20:
		return edgeSizes[g.rng.Intn(len(edgeSizes))]
	default:
		return uint32(g.rng.Intn(6 * PageSize))
	}
}

func (g *pageTableRig) prot() Prot { return Prot(g.rng.Intn(4)) }

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	fa, okA := a.(*Fault)
	fb, okB := b.(*Fault)
	if okA || okB {
		return okA && okB && *fa == *fb
	}
	return a.Error() == b.Error()
}

func sameFault(a, b *Fault) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return *a == *b
}

// step applies one random operation to both spaces and compares the
// results, then the counters and a sample of page protections.
func (g *pageTableRig) step(i int) {
	t, as, ref := g.t, g.as, g.ref
	var desc string
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("op %d %s: "+format, append([]any{i, desc}, args...)...)
	}
	switch op := g.draw(); op {
	case 0:
		a, s, p := g.addr(), g.size(true), g.prot()
		desc = fmt.Sprintf("Map(%#x, %#x, %v)", a, s, p)
		if e1, e2 := as.Map(a, s, p), ref.Map(a, s, p); !sameErr(e1, e2) {
			fail("got %v, want %v", e1, e2)
		}
	case 1:
		a, s := g.addr(), g.size(true)
		desc = fmt.Sprintf("Unmap(%#x, %#x)", a, s)
		if e1, e2 := as.Unmap(a, s), ref.Unmap(a, s); !sameErr(e1, e2) {
			fail("got %v, want %v", e1, e2)
		}
	case 2:
		a, s, p := g.addr(), g.size(true), g.prot()
		desc = fmt.Sprintf("Protect(%#x, %#x, %v)", a, s, p)
		if e1, e2 := as.Protect(a, s, p), ref.Protect(a, s, p); !sameErr(e1, e2) {
			fail("got %v, want %v", e1, e2)
		}
	case 3, 4:
		s, p := g.size(false), g.prot()
		system := op == 4
		desc = fmt.Sprintf("Alloc(%#x, %v, system=%v)", s, p, system)
		var b1, b2 Addr
		var e1, e2 error
		if system {
			b1, e1 = as.AllocSystem(s, p)
			b2, e2 = ref.alloc(&ref.sysNext, SystemTop, s, p)
		} else {
			b1, e1 = as.Alloc(s, p)
			b2, e2 = ref.alloc(&ref.userNext, UserTop, s, p)
		}
		if b1 != b2 || !sameErr(e1, e2) {
			fail("got %#x %v, want %#x %v", b1, e1, b2, e2)
		}
		if e1 == nil {
			g.bases = append(g.bases, b1)
		}
		if e1 == ErrNoSpace {
			g.full++
		}
	case 5:
		a := g.addr()
		if len(g.bases) > 0 && g.rng.Intn(4) != 0 {
			a = g.bases[g.rng.Intn(len(g.bases))]
		}
		desc = fmt.Sprintf("Free(%#x)", a)
		if e1, e2 := as.Free(a), ref.Free(a); !sameErr(e1, e2) {
			fail("got %v, want %v", e1, e2)
		}
	case 6:
		a := g.addr()
		data := make([]byte, g.size(false))
		for k := range data {
			data[k] = byte(g.rng.Intn(4)) // zeros often, so CString stops
		}
		desc = fmt.Sprintf("Write(%#x, %d bytes)", a, len(data))
		if f1, f2 := as.Write(a, data), ref.Write(a, data); !sameFault(f1, f2) {
			fail("got %v, want %v", f1, f2)
		}
	case 7:
		a, s := g.addr(), g.size(true)
		desc = fmt.Sprintf("Read(%#x, %#x)", a, s)
		if s > 64*PageSize && ref.check(a, s, false) == nil {
			return // a huge successful read would copy gigabytes
		}
		d1, f1 := as.Read(a, s)
		d2, f2 := ref.Read(a, s)
		if !sameFault(f1, f2) || !bytes.Equal(d1, d2) {
			fail("got %v (%d bytes), want %v (%d bytes)", f1, len(d1), f2, len(d2))
		}
	case 8:
		a := g.addr()
		desc = fmt.Sprintf("CString(%#x)", a)
		s1, f1 := as.CString(a)
		s2, f2 := ref.CString(a)
		if !sameFault(f1, f2) || s1 != s2 {
			fail("got %q %v, want %q %v", s1, f1, s2, f2)
		}
	case 9:
		a, s, p := g.addr(), g.size(true), g.prot()
		desc = fmt.Sprintf("Mapped(%#x, %#x, %v)", a, s, p)
		if m1, m2 := as.Mapped(a, s, p), ref.Mapped(a, s, p); m1 != m2 {
			fail("got %v, want %v", m1, m2)
		}
	case 11:
		a, n, pad := g.addr(), g.size(false), byte(g.rng.Intn(3))
		data := make([]byte, g.size(false))
		for k := range data {
			data[k] = byte(g.rng.Intn(4))
		}
		desc = fmt.Sprintf("WritePadded(%#x, %d bytes, %#x, %d)", a, len(data), n, pad)
		if f1, f2 := as.WritePadded(a, data, n, pad), ref.Write(a, padded(data, n, pad)); !sameFault(f1, f2) {
			fail("got %v, want %v", f1, f2)
		}
	case 12:
		desc = "Init"
		g.reuse()
	default:
		a := g.addr()
		desc = fmt.Sprintf("ProtAt(%#x)", a)
		p1, ok1 := as.ProtAt(a)
		p2, ok2 := ref.ProtAt(a)
		if p1 != p2 || ok1 != ok2 {
			fail("got %v %v, want %v %v", p1, ok1, p2, ok2)
		}
	}
	if as.MappedBytes() != ref.mapped || as.PageCount() != len(ref.pages) {
		fail("mapped %d bytes in %d pages, want %d in %d", as.MappedBytes(), as.PageCount(), ref.mapped, len(ref.pages))
	}
	if *as.stats != ref.stats {
		fail("stats %+v, want %+v", *as.stats, ref.stats)
	}
	for k := 0; k < 4; k++ {
		a := g.addr()
		p1, ok1 := as.ProtAt(a)
		p2, ok2 := ref.ProtAt(a)
		if p1 != p2 || ok1 != ok2 {
			fail("ProtAt(%#x) = %v %v, want %v %v", a, p1, ok1, p2, ok2)
		}
	}
	// Exactly the pages the model has written hold backings, in page
	// order, with the model's bytes whatever their protection; in
	// particular an unmapped page keeps none.
	n, prev := 0, int64(-1)
	as.EachBacking(func(pn uint32, b *[PageSize]byte) {
		pg, ok := ref.pages[pn]
		if int64(pn) <= prev || !ok || pg.data == nil || !bytes.Equal(b[:], pg.data) {
			fail("page %#x holds a backing the model does not, or out of order", pn)
		}
		n, prev = n+1, int64(pn)
	})
	if n != ref.written {
		fail("%d pages hold backings, want %d", n, ref.written)
	}
	if !g.pooled {
		return
	}
	// The free list holds as many backings as the model, all cleared.
	if g.ps.n != ref.free {
		fail("free list holds %d backings, want %d", g.ps.n, ref.free)
	}
	for k, b := range g.ps.free[:g.ps.n] {
		if *b != ([PageSize]byte{}) {
			fail("free backing %d is not cleared", k)
		}
	}
}

// TestPageTableMatchesPerPageModel drives the range-mapped page table and
// the per-page reference model through the same random operations,
// plain, under a mapped-bytes quota, and under a mem.page scarcity rule
// and a commit.multi pressure rule, and requires identical results,
// faults, counters and protections after every operation.  Each run is
// made twice: on a space from New, with no free list, as a spawned
// process has; and pooled, on a space that draws its backings from a
// free list and is started again by Init now and then, as a harness's
// test process is, with the free list checked against the model too.
func TestPageTableMatchesPerPageModel(t *testing.T) {
	ops := 1500
	if testing.Short() {
		ops = 300 // too few to reach the quota
	}
	for _, pooled := range []bool{false, true} {
		for _, tc := range []struct {
			name  string
			quota uint64
			plan  *chaos.Plan
		}{
			{name: "plain"},
			{name: "quota", quota: 300 * PageSize},
			{name: "chaos", plan: &chaos.Plan{Seed: 3, Rules: []chaos.Rule{
				{Op: chaos.OpMemPage, RatePerMille: 1000, After: 400},
				{Op: chaos.OpMemCommit, Site: "commit.multi", RatePerMille: 250},
			}}},
		} {
			name := tc.name
			if pooled {
				name = "pooled/" + name
			}
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
					g := &pageTableRig{t: t, rng: rand.New(rand.NewSource(seed)), as: New(), ref: newRef(), pooled: pooled}
					if pooled {
						Init(g.as, &g.ps)
					}
					g.as.SetStats(&Stats{})
					g.as.SetQuota(tc.quota)
					g.ref.quota = tc.quota
					if tc.plan != nil {
						g.as.SetInjector(tc.plan.NewInjector(nil))
						g.ref.inj = tc.plan.NewInjector(nil)
					}
					for i := 0; i < ops; i++ {
						g.step(i)
					}
					if tc.quota != 0 && ops == 1500 && g.full == 0 {
						t.Errorf("no Alloc reached the %d-page quota", tc.quota/PageSize)
					}
				})
			}
		}
	}
}

// TestMapOverWrittenPagesKeepsBytes: remapping a written range, whole or
// straddling its edges, changes protections but not contents; unmapping
// drops the backings, so a page mapped there again reads as zeros.
func TestMapOverWrittenPagesKeepsBytes(t *testing.T) {
	as := New()
	base := UserBase + 0x100000
	if err := as.Map(base, 3*PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	payload := []byte("survives a remap")
	at := base + PageSize - 4 // straddles pages 0 and 1
	if f := as.Write(at, payload); f != nil {
		t.Fatal(f)
	}
	if err := as.Map(base-PageSize, 5*PageSize, ProtRead); err != nil {
		t.Fatal(err)
	}
	if got, f := as.Read(at, uint32(len(payload))); f != nil || string(got) != string(payload) {
		t.Errorf("after remap: %q %v", got, f)
	}
	if f := as.Write(at, []byte("x")); f == nil || f.Kind != FaultProtection {
		t.Errorf("write to a remapped read-only page: %v", f)
	}
	if err := as.Unmap(base, 3*PageSize); err != nil {
		t.Fatal(err)
	}
	if err := as.Map(base, 3*PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	if got, f := as.Read(at, uint32(len(payload))); f != nil || !bytes.Equal(got, make([]byte, len(payload))) {
		t.Errorf("after unmap and map: %q %v", got, f)
	}
	if s, f := as.CString(at); f != nil || s != "" {
		t.Errorf("CString after unmap and map: %q %v", s, f)
	}
}

// TestHugeMapIsCheap: the POSIX profile's MAXINT mmap length maps half
// the address space as one run; it must neither allocate per page nor
// lose track of the count.
func TestHugeMapIsCheap(t *testing.T) {
	as := New()
	allocs := testing.AllocsPerRun(10, func() {
		if err := as.Map(0, 0x7FFFFFFF, ProtRW); err != nil {
			t.Fatal(err)
		}
		if as.PageCount() != 0x80000 {
			t.Fatalf("PageCount() = %d after a 2 GiB map", as.PageCount())
		}
		if err := as.Unmap(0, 0x7FFFFFFF); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a 2 GiB map and unmap allocate %.0f times, want 0", allocs)
	}
}
