// Package mem implements the simulated 32-bit paged address space that all
// simulated operating-system variants run on.
//
// The address space reproduces the architectural property the paper's
// Catastrophic failures hinge on: on the Windows 95/98/CE family the upper
// "system arena" (0x80000000-0xBFFFFFFF) is shared between all processes
// and the kernel, and kernel-mode code writes through user-supplied
// pointers without probing them first.  On Windows NT/2000 and Linux the
// kernel probes user pointers at the system-call boundary, so the same bad
// pointer produces an error code or an exception delivered to the faulting
// process instead of corrupting the machine.
//
// Addresses are plain uint32 values inside a per-process page table; no
// host memory is ever at risk.  All faults are reported as *Fault values,
// never as Go panics.
package mem

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"unsafe"

	"ballista/internal/chaos"
	"ballista/internal/sim/sorted"
)

// Addr is a simulated 32-bit virtual address.
type Addr uint32

// PageSize is the size of a simulated page in bytes.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// Canonical layout boundaries.  The layout mirrors 32-bit Windows: a
// private user arena, a shared "system arena" (Win9x terminology), and a
// kernel-only range.
const (
	// NullTop is the end of the never-mapped null page region.
	NullTop Addr = 0x0000FFFF
	// UserBase is the lowest address of the private user arena.
	UserBase Addr = 0x00400000
	// UserTop is the highest address of the private user arena.
	UserTop Addr = 0x7FFFFFFF
	// SystemBase is the start of the shared system arena.
	SystemBase Addr = 0x80000000
	// SystemTop is the end of the shared system arena.
	SystemTop Addr = 0xBFFFFFFF
	// KernelBase is the start of the kernel-only range.
	KernelBase Addr = 0xC0000000
)

// Region classifies an address by architectural arena.
type Region int

// Regions of the simulated 32-bit address space.
const (
	RegionNull   Region = iota // the guard pages around address zero
	RegionUser                 // private per-process arena
	RegionSystem               // shared system arena (Win9x "system arena")
	RegionKernel               // kernel-only range
)

// String returns the arena name.
func (r Region) String() string {
	switch r {
	case RegionNull:
		return "null"
	case RegionUser:
		return "user"
	case RegionSystem:
		return "system"
	case RegionKernel:
		return "kernel"
	default:
		return fmt.Sprintf("Region(%d)", int(r))
	}
}

// RegionOf reports which arena a holds.
func RegionOf(a Addr) Region {
	switch {
	case a <= NullTop:
		return RegionNull
	case a >= KernelBase:
		return RegionKernel
	case a >= SystemBase:
		return RegionSystem
	default:
		return RegionUser
	}
}

// Prot is a page protection bitmask.
type Prot uint8

// Page protections.
const (
	ProtNone  Prot = 0
	ProtRead  Prot = 1 << 0
	ProtWrite Prot = 1 << 1
	ProtRW         = ProtRead | ProtWrite
)

// String returns a compact rwx-style rendering.
func (p Prot) String() string {
	b := []byte("--")
	if p&ProtRead != 0 {
		b[0] = 'r'
	}
	if p&ProtWrite != 0 {
		b[1] = 'w'
	}
	return string(b)
}

// FaultKind distinguishes why a memory access failed.
type FaultKind uint8

// Kinds of memory fault.
const (
	// FaultUnmapped is an access to a page that is not mapped.
	FaultUnmapped FaultKind = iota
	// FaultProtection is an access violating page protection.
	FaultProtection
	// FaultKernelRange is a user-mode access to the kernel range.
	FaultKernelRange
)

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultUnmapped:
		return "unmapped"
	case FaultProtection:
		return "protection"
	case FaultKernelRange:
		return "kernel-range"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// Fault describes a simulated memory access violation.  It implements
// error so substrate code can propagate it, but the API layer converts it
// into a simulated structured exception or signal rather than a Go error
// reaching users.
type Fault struct {
	Addr  Addr
	Write bool
	Kind  FaultKind
}

// Error implements the error interface.
func (f *Fault) Error() string {
	op := "read"
	if f.Write {
		op = "write"
	}
	return fmt.Sprintf("memory fault: %s at %#08x (%s, %s arena)", op, uint32(f.Addr), f.Kind, RegionOf(f.Addr))
}

// ErrNoSpace is returned when the allocator cannot find room.
var ErrNoSpace = errors.New("mem: address space exhausted")

// ErrBadRange is returned for malformed map/unmap/protect ranges.
var ErrBadRange = errors.New("mem: bad address range")

// Stats holds cheap monotonic counters for memory activity, shared by
// every address space a kernel creates so machine-wide gauges (live
// pages, live heap blocks) can be derived as differences.  Counters are
// plain integers: each simulated machine is driven by one goroutine.
type Stats struct {
	// PagesMapped / PagesUnmapped count page-table insertions and
	// removals; their difference is the live mapped-page gauge.
	PagesMapped, PagesUnmapped uint64
	// Allocs / Frees count heap blocks from Alloc/AllocSystem and Free;
	// their difference is the live heap-block gauge.
	Allocs, Frees uint64
	// Faults counts failed Read/Write accesses.
	Faults uint64
	// ProtTransitions counts pages whose protection actually changed in a
	// Protect call (state-coverage fingerprints hash it).
	ProtTransitions uint64
}

// LivePages returns currently mapped pages across all observed spaces.
func (s *Stats) LivePages() uint64 {
	if s == nil || s.PagesUnmapped > s.PagesMapped {
		return 0
	}
	return s.PagesMapped - s.PagesUnmapped
}

// LiveBlocks returns live heap blocks across all observed spaces.
func (s *Stats) LiveBlocks() uint64 {
	if s == nil || s.Frees > s.Allocs {
		return 0
	}
	return s.Allocs - s.Frees
}

// span is a run of mapped pages [first, last] sharing one protection.
type span struct {
	first, last uint32
	prot        Prot
}

// written is one row of the written-page index: a page number and its
// backing.
type written = sorted.Entry[uint32, *[PageSize]byte]

// block is one live Alloc'd block.
type block struct {
	base Addr
	size uint32
}

// AddressSpace is one simulated process's view of memory.  The zero value
// is not usable; call New or Init.
//
// The page table is range-mapped: mapping, unmapping or protecting a
// range costs the number of runs it touches, not the number of pages it
// names, so a 2 GiB mmap is as cheap as a one-page one.  Only pages that
// have been written get a backing.
type AddressSpace struct {
	// spans holds the mapped pages as disjoint runs sorted by first page;
	// adjacent runs of equal protection are merged.  It starts in
	// inline, which holds a typical test process's runs without an
	// allocation of their own.
	spans  []span
	inline [4]span
	// data holds the backing of each mapped page that has been written,
	// sorted by page number; a mapped page without one reads as zeros.
	// Made on the first write.
	data sorted.Table[uint32, *[PageSize]byte]
	// pages, when non-nil, is the free list backings come from and go
	// back to (see Pages).
	pages *Pages

	// userNext is the bump pointer for Alloc within the user arena.
	userNext Addr
	// sysNext is the bump pointer for AllocSystem within the system arena.
	sysNext Addr

	// allocs holds the live Alloc'd blocks sorted by base, so Free can
	// unmap precisely and "pointer to freed memory" test values behave
	// faithfully.  It starts in allocRows.
	allocs    []block
	allocRows [4]block

	// quota bounds total mapped bytes when nonzero (heavy-load testing);
	// mapped tracks the current total.
	quota, mapped uint64

	// stats, when non-nil, accumulates activity counters (typically the
	// owning kernel's machine-wide mem.Stats).
	stats *Stats

	// inj, when non-nil, deterministically injects commit failures at
	// the Map fault point (the owning kernel attaches it).
	inj *chaos.Injector
}

// SetInjector attaches a chaos injector session; nil detaches it.
func (as *AddressSpace) SetInjector(in *chaos.Injector) { as.inj = in }

// SetStats attaches a counter sink; nil detaches it.
func (as *AddressSpace) SetStats(s *Stats) { as.stats = s }

// SetQuota bounds the total mapped bytes of this address space; 0 removes
// the bound.  Used by the heavy-load campaign mode.
func (as *AddressSpace) SetQuota(bytes uint64) { as.quota = bytes }

// MappedBytes reports the currently mapped total.
func (as *AddressSpace) MappedBytes() uint64 { return as.mapped }

// New creates an empty address space with nothing mapped.
func New() *AddressSpace {
	as := new(AddressSpace)
	Init(as, nil)
	return as
}

// Init makes *as an empty address space with nothing mapped, in place, so
// an owner can allocate it inside a larger object.  Its tables start in
// arrays inside *as, so it must not be copied afterwards.  Its backings
// come from pages when pages is non-nil.
//
// Init may be called again on an address space to reuse its memory: the
// backings its last owner wrote go back to pages cleared, and the index
// of written pages is emptied, not made again.  Nothing may still refer
// to the old contents; Read, CString and WString return copies, never
// views.
func Init(as *AddressSpace, pages *Pages) {
	data := as.data
	for _, w := range data {
		pages.put(w.Val)
	}
	if cap(data) > maxFreePages {
		// An index grown by an unusual case is dropped rather than kept
		// at its largest size.
		data = nil
	}
	clear(data)
	// Zeroing in place and storing the fields one by one spares the
	// temporary a composite literal of the whole space is built in.
	*as = AddressSpace{}
	as.userNext = UserBase
	as.sysNext = SystemBase + 0x01000000 // leave a window of unmapped system arena
	as.data = data[:0]
	as.pages = pages
	as.spans = as.inline[:0]
	as.allocs = as.allocRows[:0]
}

// maxFreePages bounds the backings a Pages free list keeps.  Over the
// seven-profile paper campaign (915,526 cases) 99.93% of cases write at
// most eight pages and none more than 18, so a list of eight serves
// nearly every case without retaining more than 32 KiB.
const maxFreePages = 8

// Pages is a free list of zeroed page backings, shared by the address
// spaces one owner creates one after another, so a written page costs no
// fresh memory after the first.  A backing goes back cleared when its
// page is unmapped or its address space is reused by Init; once the list
// holds maxFreePages the rest are left to the collector.  The zero value
// is an empty list; a nil *Pages hands out fresh backings.  Like an
// address space, it is driven by one goroutine.
type Pages struct {
	n    int
	free [maxFreePages]*[PageSize]byte
}

// get returns an all-zero backing.
func (ps *Pages) get() *[PageSize]byte {
	if ps == nil || ps.n == 0 {
		return new([PageSize]byte)
	}
	ps.n--
	b := ps.free[ps.n]
	ps.free[ps.n] = nil
	return b
}

// put clears b and keeps it for the next get, if the list has room.
func (ps *Pages) put(b *[PageSize]byte) {
	if ps == nil || ps.n == maxFreePages {
		return
	}
	clear(b[:])
	ps.free[ps.n] = b
	ps.n++
}

func pageNum(a Addr) uint32 { return uint32(a) >> PageShift }

func pageOff(a Addr) uint32 { return uint32(a) & (PageSize - 1) }

// pageRange returns the first and last page of [addr, addr+size), or
// ok=false for an empty or wrapping range.
func pageRange(addr Addr, size uint32) (first, last uint32, ok bool) {
	if size == 0 || addr+Addr(size-1) < addr {
		return 0, 0, false
	}
	return pageNum(addr), pageNum(addr + Addr(size-1)), true
}

// search returns the index of the first span ending at or after page pn:
// the span holding pn if one does, else where a span for pn would go.
func (as *AddressSpace) search(pn uint32) int {
	lo, hi := 0, len(as.spans)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if as.spans[m].last < pn {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// covered counts the mapped pages in [first, last].
func (as *AddressSpace) covered(first, last uint32) uint64 {
	var n uint64
	for i := as.search(first); i < len(as.spans) && as.spans[i].first <= last; i++ {
		s := as.spans[i]
		n += uint64(min(s.last, last)-max(s.first, first)) + 1
	}
	return n
}

// carve removes [first, last] from the page table, trimming the runs it
// cuts, and returns the index where a run starting at first belongs.
func (as *AddressSpace) carve(first, last uint32) int {
	i := as.search(first)
	j := i
	for j < len(as.spans) && as.spans[j].first <= last {
		j++
	}
	if i == j {
		return i
	}
	at := i
	var keep [2]span
	k := 0
	if s := as.spans[i]; s.first < first {
		keep[k] = span{s.first, first - 1, s.prot}
		k++
		at++
	}
	if s := as.spans[j-1]; s.last > last {
		keep[k] = span{last + 1, s.last, s.prot}
		k++
	}
	as.spans = slices.Replace(as.spans, i, j, keep[:k]...)
	return at
}

// setRange maps [first, last] with prot, replacing whatever runs it
// overlaps, and merges the new run with equal-protection neighbours.
func (as *AddressSpace) setRange(first, last uint32, prot Prot) {
	i := as.carve(first, last)
	as.spans = slices.Insert(as.spans, i, span{first, last, prot})
	as.mergeNext(i)
	if i > 0 {
		as.mergeNext(i - 1)
	}
}

// mergeNext folds span i+1 into span i when they abut with equal
// protection.
func (as *AddressSpace) mergeNext(i int) {
	if i+1 >= len(as.spans) {
		return
	}
	a, b := &as.spans[i], as.spans[i+1]
	if a.last+1 == b.first && a.prot == b.prot {
		a.last = b.last
		as.spans = slices.Delete(as.spans, i+1, i+2)
	}
}

// Map maps [addr, addr+size) with the given protection, rounding outward
// to page boundaries.  Mapping over an existing page replaces its
// protection but preserves its contents.
func (as *AddressSpace) Map(addr Addr, size uint32, prot Prot) error {
	first, last, ok := pageRange(addr, size)
	if !ok {
		return ErrBadRange
	}
	fresh := (uint64(last-first) + 1 - as.covered(first, last)) * PageSize
	if as.quota != 0 && as.mapped+fresh > as.quota {
		return ErrNoSpace
	}
	// Scarcity accounting is per page: a mem.page rule with After=M
	// means exactly M more pages commit machine-wide before the backing
	// store runs dry, however the commits are batched.
	if as.inj != nil {
		for consumed := uint64(0); consumed < fresh; consumed += PageSize {
			if _, ok := as.inj.Fault(chaos.OpMemPage, "page"); ok {
				return ErrNoSpace
			}
		}
	}
	// Committing fresh pages is the fault point: remapping already-
	// resident pages cannot fail for lack of memory.  Multi-page commits
	// report a distinct site so page-pressure rules (large commits fail
	// first) can target them alone.
	if fresh > 0 && as.inj != nil {
		site := "commit"
		if fresh > PageSize {
			site = "commit.multi"
		}
		if _, ok := as.inj.Fault(chaos.OpMemCommit, site); ok {
			return ErrNoSpace
		}
	}
	as.setRange(first, last, prot)
	as.mapped += fresh
	if as.stats != nil {
		as.stats.PagesMapped += fresh / PageSize
	}
	return nil
}

// Unmap removes all pages intersecting [addr, addr+size) and drops their
// backings, so a page mapped there again reads as zeros.
func (as *AddressSpace) Unmap(addr Addr, size uint32) error {
	first, last, ok := pageRange(addr, size)
	if !ok {
		return ErrBadRange
	}
	gone := as.covered(first, last)
	as.mapped -= gone * PageSize
	if as.stats != nil {
		as.stats.PagesUnmapped += gone
	}
	as.carve(first, last)
	as.data = slices.DeleteFunc(as.data, func(w written) bool {
		if first <= w.Key && w.Key <= last {
			as.pages.put(w.Val)
			return true
		}
		return false
	})
	return nil
}

// Protect changes the protection of all pages intersecting
// [addr, addr+size).  It fails with a *Fault if any page is unmapped.
func (as *AddressSpace) Protect(addr Addr, size uint32, prot Prot) error {
	first, last, ok := pageRange(addr, size)
	if !ok {
		return ErrBadRange
	}
	var changed uint64
	pn := first
	for i := as.search(first); ; i++ {
		if i == len(as.spans) || as.spans[i].first > pn {
			return &Fault{Addr: Addr(pn << PageShift), Kind: FaultUnmapped}
		}
		s := as.spans[i]
		if s.prot != prot {
			changed += uint64(min(s.last, last)-pn) + 1
		}
		if s.last >= last {
			break
		}
		pn = s.last + 1
	}
	as.setRange(first, last, prot)
	if as.stats != nil {
		as.stats.ProtTransitions += changed
	}
	return nil
}

// Mapped reports whether every byte of [addr, addr+size) is mapped with at
// least the given protection.
func (as *AddressSpace) Mapped(addr Addr, size uint32, prot Prot) bool {
	first, last, ok := pageRange(addr, max(size, 1))
	if !ok {
		return false
	}
	pn := first
	for i := as.search(first); i < len(as.spans); i++ {
		s := as.spans[i]
		if s.first > pn || s.prot&prot != prot {
			return false
		}
		if s.last >= last {
			return true
		}
		pn = s.last + 1
	}
	return false
}

// ProtAt returns the protection of the page containing a and whether the
// page is mapped.
func (as *AddressSpace) ProtAt(a Addr) (Prot, bool) {
	pn := pageNum(a)
	i := as.search(pn)
	if i == len(as.spans) || as.spans[i].first > pn {
		return ProtNone, false
	}
	return as.spans[i].prot, true
}

// kernelPage is the first page of the kernel-only range.
const kernelPage = uint32(KernelBase) >> PageShift

func (as *AddressSpace) check(addr Addr, size uint32, write bool) *Fault {
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
	// Pages are checked in address order, each for the kernel range,
	// then mapping, then protection; a run that passes is skipped whole.
	last := pageNum(addr + Addr(size-1))
	pn := pageNum(addr)
	for i := as.search(pn); ; i++ {
		pa := max(Addr(pn<<PageShift), addr)
		if pn >= kernelPage {
			return &Fault{Addr: pa, Write: write, Kind: FaultKernelRange}
		}
		if i == len(as.spans) || as.spans[i].first > pn {
			return &Fault{Addr: pa, Write: write, Kind: FaultUnmapped}
		}
		s := as.spans[i]
		if s.prot&need != need {
			return &Fault{Addr: pa, Write: write, Kind: FaultProtection}
		}
		// The run passes up to its end or the kernel boundary,
		// whichever comes first.
		end := min(s.last, kernelPage-1)
		if end >= last {
			return nil
		}
		pn = end + 1
	}
}

// page returns the backing of page pn, or nil if it was never written.
func (as *AddressSpace) page(pn uint32) *[PageSize]byte {
	b, _ := as.data.Get(pn)
	return b
}

// backing returns the backing of mapped page pn, making it on first use.
func (as *AddressSpace) backing(pn uint32) *[PageSize]byte {
	if b, ok := as.data.Get(pn); ok {
		return b
	}
	if as.data == nil {
		// Room for a typical case's written pages in one allocation.
		as.data = make([]written, 0, maxFreePages)
	}
	b := as.pages.get()
	as.data.Set(pn, b)
	return b
}

// EachBacking calls fn with the number and contents of every page that
// holds a backing (every page written since it was mapped), in page
// order.  fn must not keep or change the contents.
func (as *AddressSpace) EachBacking(fn func(pn uint32, page *[PageSize]byte)) {
	for _, w := range as.data {
		fn(w.Key, w.Val)
	}
}

// Read copies size bytes starting at addr.  On fault, it returns the fault
// and no data.  The range is checked before the result is allocated, so a
// huge size at a bad pointer costs nothing.
func (as *AddressSpace) Read(addr Addr, size uint32) ([]byte, *Fault) {
	if f := as.checkRead(addr, size); f != nil {
		return nil, f
	}
	out := make([]byte, size)
	as.copyOut(addr, out)
	return out, nil
}

// readInto fills dst from memory starting at addr, or reports the fault.
func (as *AddressSpace) readInto(addr Addr, dst []byte) *Fault {
	f := as.checkRead(addr, uint32(len(dst)))
	if f == nil {
		as.copyOut(addr, dst)
	}
	return f
}

// checkRead checks a read of [addr, addr+size), counting a fault.
func (as *AddressSpace) checkRead(addr Addr, size uint32) *Fault {
	f := as.check(addr, size, false)
	if f != nil && as.stats != nil {
		as.stats.Faults++
	}
	return f
}

// copyOut fills dst from memory at addr, which the caller has checked.  A
// page never written reads as zeros without being given a backing.
func (as *AddressSpace) copyOut(addr Addr, dst []byte) {
	for done := 0; done < len(dst); {
		a := addr + Addr(done)
		off := pageOff(a)
		var n int
		if b := as.page(pageNum(a)); b == nil {
			n = min(len(dst)-done, int(PageSize-off))
			clear(dst[done : done+n])
		} else {
			n = copy(dst[done:], b[off:])
		}
		done += n
	}
}

// Write copies data into memory starting at addr.
func (as *AddressSpace) Write(addr Addr, data []byte) *Fault {
	return as.WritePadded(addr, data, uint32(len(data)), 0)
}

// WritePadded writes n bytes at addr: data, cut to n bytes or followed by
// pad bytes up to n.  Its result, fault and backings are those of Write
// with the padded buffer, without building one: all of [addr, addr+n) is
// checked before a byte is written.
func (as *AddressSpace) WritePadded(addr Addr, data []byte, n uint32, pad byte) *Fault {
	if n == 0 {
		return nil
	}
	if f := as.check(addr, n, true); f != nil {
		if as.stats != nil {
			as.stats.Faults++
		}
		return f
	}
	data = data[:min(uint32(len(data)), n)]
	for done := uint32(0); done < n; {
		a := addr + Addr(done)
		dst := as.backing(pageNum(a))[pageOff(a):]
		dst = dst[:min(uint32(len(dst)), n-done)]
		k := 0
		if done < uint32(len(data)) {
			k = copy(dst, data[done:])
		}
		fill(dst[k:], pad)
		done += uint32(len(dst))
	}
	return nil
}

// WriteStringPadded is WritePadded of the bytes of s, read in place
// rather than through a copy: WritePadded only ever copies from data.
func (as *AddressSpace) WriteStringPadded(addr Addr, s string, n uint32, pad byte) *Fault {
	return as.WritePadded(addr, unsafe.Slice(unsafe.StringData(s), len(s)), n, pad)
}

// fill sets every byte of b to v.
func fill(b []byte, v byte) {
	if v == 0 {
		clear(b)
		return
	}
	if len(b) == 0 {
		return
	}
	b[0] = v
	for i := 1; i < len(b); i *= 2 {
		copy(b[i:], b[:i])
	}
}

// ReadU8 reads one byte.
func (as *AddressSpace) ReadU8(addr Addr) (byte, *Fault) {
	var b [1]byte
	if f := as.readInto(addr, b[:]); f != nil {
		return 0, f
	}
	return b[0], nil
}

// WriteU8 writes one byte.
func (as *AddressSpace) WriteU8(addr Addr, v byte) *Fault {
	return as.Write(addr, []byte{v})
}

// ReadU16 reads a little-endian 16-bit value.
func (as *AddressSpace) ReadU16(addr Addr) (uint16, *Fault) {
	var b [2]byte
	if f := as.readInto(addr, b[:]); f != nil {
		return 0, f
	}
	return uint16(b[0]) | uint16(b[1])<<8, nil
}

// WriteU16 writes a little-endian 16-bit value.
func (as *AddressSpace) WriteU16(addr Addr, v uint16) *Fault {
	return as.Write(addr, []byte{byte(v), byte(v >> 8)})
}

// ReadU32 reads a little-endian 32-bit value.
func (as *AddressSpace) ReadU32(addr Addr) (uint32, *Fault) {
	var b [4]byte
	if f := as.readInto(addr, b[:]); f != nil {
		return 0, f
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24, nil
}

// WriteU32 writes a little-endian 32-bit value.
func (as *AddressSpace) WriteU32(addr Addr, v uint32) *Fault {
	return as.Write(addr, []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
}

// ReadU64 reads a little-endian 64-bit value.
func (as *AddressSpace) ReadU64(addr Addr) (uint64, *Fault) {
	lo, f := as.ReadU32(addr)
	if f != nil {
		return 0, f
	}
	hi, f := as.ReadU32(addr + 4)
	if f != nil {
		return 0, f
	}
	return uint64(hi)<<32 | uint64(lo), nil
}

// WriteU64 writes a little-endian 64-bit value.
func (as *AddressSpace) WriteU64(addr Addr, v uint64) *Fault {
	if f := as.WriteU32(addr, uint32(v)); f != nil {
		return f
	}
	return as.WriteU32(addr+4, uint32(v>>32))
}

// CStringLimit bounds CString scans so a missing terminator cannot loop
// over the whole 4 GiB space.
const CStringLimit = 1 << 20

// CString reads a NUL-terminated byte string starting at addr.  Reading
// runs until a NUL, a fault, or CStringLimit bytes.  A fault is reported
// at the first unreadable byte, exactly as a byte-at-a-time walk would
// meet it.  The walk measures the string before copying it, so the
// result is its one allocation however many pages it spans.
func (as *AddressSpace) CString(addr Addr) (string, *Fault) {
	var n uint32
	for a := addr; n < CStringLimit; {
		// Checking the first byte the walk reaches on this page checks
		// the whole page: protection and mapping are per page.
		if f := as.checkRead(a, 1); f != nil {
			return "", f
		}
		b := as.page(pageNum(a))
		if b == nil {
			// Never written: the first byte is the terminator.
			break
		}
		chunk := b[pageOff(a):][:min(CStringLimit-n, PageSize-pageOff(a))]
		if i := bytes.IndexByte(chunk, 0); i >= 0 {
			if n == 0 {
				return string(chunk[:i]), nil
			}
			n += uint32(i)
			break
		}
		n += uint32(len(chunk))
		a += Addr(len(chunk))
	}
	var sb strings.Builder
	sb.Grow(int(n))
	for done := uint32(0); done < n; {
		a := addr + Addr(done)
		chunk := as.page(pageNum(a))[pageOff(a):][:min(n-done, PageSize-pageOff(a))]
		sb.Write(chunk)
		done += uint32(len(chunk))
	}
	return sb.String(), nil
}

// WString reads a NUL-terminated little-endian UTF-16 string (as used by
// the UNICODE Win32/CE surface) starting at addr, returning its UTF-16
// code units.
func (as *AddressSpace) WString(addr Addr) ([]uint16, *Fault) {
	var buf []uint16
	for i := uint32(0); i < CStringLimit; i++ {
		u, f := as.ReadU16(addr + Addr(2*i))
		if f != nil {
			return nil, f
		}
		if u == 0 {
			return buf, nil
		}
		buf = append(buf, u)
	}
	return buf, nil
}

// WriteCString writes s followed by a NUL byte.
func (as *AddressSpace) WriteCString(addr Addr, s string) *Fault {
	return as.WriteStringPadded(addr, s, uint32(len(s))+1, 0)
}

// Alloc maps a fresh block of at least size bytes in the user arena and
// returns its base address.  Each block is padded to page granularity with
// an unmapped guard page after it, so one-past-the-end overruns fault.
func (as *AddressSpace) Alloc(size uint32, prot Prot) (Addr, error) {
	return as.alloc(&as.userNext, UserTop, size, prot)
}

// AllocSystem maps a block inside the shared system arena.  Only Win9x/CE
// kernels place user-visible structures there; it exists so test values
// can craft pointers into the shared arena.
func (as *AddressSpace) AllocSystem(size uint32, prot Prot) (Addr, error) {
	return as.alloc(&as.sysNext, SystemTop, size, prot)
}

// alloc maps a guarded block at the bump pointer *next, below top.
func (as *AddressSpace) alloc(next *Addr, top Addr, size uint32, prot Prot) (Addr, error) {
	if size == 0 {
		size = 1
	}
	pages := (size + PageSize - 1) / PageSize
	base := *next
	span := Addr(pages+1) * PageSize // +1 guard page
	if base+span < base || base+span > top {
		return 0, ErrNoSpace
	}
	if err := as.Map(base, pages*PageSize, prot); err != nil {
		return 0, err
	}
	*next = base + span
	// The bump pointers only advance, so base is never live already.
	i, _ := as.findBlock(base)
	as.allocs = slices.Insert(as.allocs, i, block{base, pages * PageSize})
	if as.stats != nil {
		as.stats.Allocs++
	}
	return base, nil
}

// findBlock returns the index of the live block at base, or where one
// would go, and whether it is present.
func (as *AddressSpace) findBlock(base Addr) (int, bool) {
	lo, hi := 0, len(as.allocs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if as.allocs[m].base < base {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(as.allocs) && as.allocs[lo].base == base
}

// Free unmaps a block previously returned by Alloc or AllocSystem.  The
// address then faults on access, which "pointer to freed memory" test
// values rely on.
func (as *AddressSpace) Free(base Addr) error {
	i, ok := as.findBlock(base)
	if !ok {
		return fmt.Errorf("mem: Free(%#08x): %w", uint32(base), ErrBadRange)
	}
	size := as.allocs[i].size
	as.allocs = slices.Delete(as.allocs, i, i+1)
	if as.stats != nil {
		as.stats.Frees++
	}
	return as.Unmap(base, size)
}

// BlockSize returns the size of a live allocation, or 0 if base is not a
// live allocation base.
func (as *AddressSpace) BlockSize(base Addr) uint32 {
	if i, ok := as.findBlock(base); ok {
		return as.allocs[i].size
	}
	return 0
}

// PageCount returns the number of mapped pages (used by tests and the
// leak checker).
func (as *AddressSpace) PageCount() int {
	return int(as.mapped / PageSize)
}
