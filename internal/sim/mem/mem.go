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

	"ballista/internal/chaos"
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
type FaultKind int

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

type page struct {
	prot Prot
	data []byte // allocated lazily on first write; nil reads as zeros
}

// AddressSpace is one simulated process's view of memory.  The zero value
// is not usable; call New.
type AddressSpace struct {
	pages map[uint32]*page // page number -> page

	// userNext is the bump pointer for Alloc within the user arena.
	userNext Addr
	// sysNext is the bump pointer for AllocSystem within the system arena.
	sysNext Addr

	// allocs tracks live Alloc'd blocks so Free can unmap precisely and
	// so "pointer to freed memory" test values behave faithfully.
	allocs map[Addr]uint32 // base -> size

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
	return &AddressSpace{
		pages:    make(map[uint32]*page),
		userNext: UserBase,
		sysNext:  SystemBase + 0x01000000, // leave a window of unmapped system arena
		allocs:   make(map[Addr]uint32),
	}
}

func pageNum(a Addr) uint32 { return uint32(a) >> PageShift }

func pageOff(a Addr) uint32 { return uint32(a) & (PageSize - 1) }

// Map maps [addr, addr+size) with the given protection, rounding outward
// to page boundaries.  Mapping over an existing page replaces its
// protection but preserves its contents.
func (as *AddressSpace) Map(addr Addr, size uint32, prot Prot) error {
	if size == 0 {
		return ErrBadRange
	}
	first := pageNum(addr)
	last := pageNum(addr + Addr(size-1))
	if addr+Addr(size-1) < addr { // wrap
		return ErrBadRange
	}
	fresh := uint64(0)
	for pn := first; pn <= last; pn++ {
		if _, ok := as.pages[pn]; !ok {
			fresh += PageSize
		}
	}
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
	for pn := first; pn <= last; pn++ {
		if pg, ok := as.pages[pn]; ok {
			pg.prot = prot
		} else {
			as.pages[pn] = &page{prot: prot}
		}
	}
	as.mapped += fresh
	if as.stats != nil {
		as.stats.PagesMapped += fresh / PageSize
	}
	return nil
}

// Unmap removes all pages intersecting [addr, addr+size).
func (as *AddressSpace) Unmap(addr Addr, size uint32) error {
	if size == 0 || addr+Addr(size-1) < addr {
		return ErrBadRange
	}
	first := pageNum(addr)
	last := pageNum(addr + Addr(size-1))
	for pn := first; pn <= last; pn++ {
		if _, ok := as.pages[pn]; ok {
			as.mapped -= PageSize
			if as.stats != nil {
				as.stats.PagesUnmapped++
			}
		}
		delete(as.pages, pn)
	}
	return nil
}

// Protect changes the protection of all pages intersecting
// [addr, addr+size).  It fails with a *Fault if any page is unmapped.
func (as *AddressSpace) Protect(addr Addr, size uint32, prot Prot) error {
	if size == 0 || addr+Addr(size-1) < addr {
		return ErrBadRange
	}
	first := pageNum(addr)
	last := pageNum(addr + Addr(size-1))
	for pn := first; pn <= last; pn++ {
		if _, ok := as.pages[pn]; !ok {
			return &Fault{Addr: Addr(pn << PageShift), Kind: FaultUnmapped}
		}
	}
	for pn := first; pn <= last; pn++ {
		if as.pages[pn].prot != prot {
			as.pages[pn].prot = prot
			if as.stats != nil {
				as.stats.ProtTransitions++
			}
		}
	}
	return nil
}

// Mapped reports whether every byte of [addr, addr+size) is mapped with at
// least the given protection.
func (as *AddressSpace) Mapped(addr Addr, size uint32, prot Prot) bool {
	if size == 0 {
		size = 1
	}
	if addr+Addr(size-1) < addr {
		return false
	}
	first := pageNum(addr)
	last := pageNum(addr + Addr(size-1))
	for pn := first; pn <= last; pn++ {
		pg, ok := as.pages[pn]
		if !ok || pg.prot&prot != prot {
			return false
		}
	}
	return true
}

// ProtAt returns the protection of the page containing a and whether the
// page is mapped.
func (as *AddressSpace) ProtAt(a Addr) (Prot, bool) {
	pg, ok := as.pages[pageNum(a)]
	if !ok {
		return ProtNone, false
	}
	return pg.prot, true
}

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
	first := pageNum(addr)
	last := pageNum(addr + Addr(size-1))
	for pn := first; pn <= last; pn++ {
		pa := Addr(pn << PageShift)
		if pa < addr {
			pa = addr
		}
		if RegionOf(pa) == RegionKernel {
			return &Fault{Addr: pa, Write: write, Kind: FaultKernelRange}
		}
		pg, ok := as.pages[pn]
		if !ok {
			return &Fault{Addr: pa, Write: write, Kind: FaultUnmapped}
		}
		if pg.prot&need != need {
			return &Fault{Addr: pa, Write: write, Kind: FaultProtection}
		}
	}
	return nil
}

func (pg *page) ensure() []byte {
	if pg.data == nil {
		pg.data = make([]byte, PageSize)
	}
	return pg.data
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
		pg := as.pages[pageNum(a)]
		off := pageOff(a)
		var n int
		if pg.data == nil {
			n = min(len(dst)-done, int(PageSize-off))
			clear(dst[done : done+n])
		} else {
			n = copy(dst[done:], pg.data[off:])
		}
		done += n
	}
}

// Write copies data into memory starting at addr.
func (as *AddressSpace) Write(addr Addr, data []byte) *Fault {
	if len(data) == 0 {
		return nil
	}
	if f := as.check(addr, uint32(len(data)), true); f != nil {
		if as.stats != nil {
			as.stats.Faults++
		}
		return f
	}
	var done uint32
	for done < uint32(len(data)) {
		a := addr + Addr(done)
		pg := as.pages[pageNum(a)]
		off := pageOff(a)
		n := uint32(copy(pg.ensure()[off:], data[done:]))
		done += n
	}
	return nil
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
// meet it.
func (as *AddressSpace) CString(addr Addr) (string, *Fault) {
	var buf []byte
	for left := uint32(CStringLimit); left > 0; {
		// Checking the first byte the walk reaches on this page checks
		// the whole page: protection and mapping are per page.
		if f := as.checkRead(addr, 1); f != nil {
			return "", f
		}
		n := min(left, PageSize-pageOff(addr))
		chunk := as.pages[pageNum(addr)].data
		if chunk == nil {
			// Never written: the first byte is the terminator.
			return string(buf), nil
		}
		chunk = chunk[pageOff(addr):][:n]
		if i := bytes.IndexByte(chunk, 0); i >= 0 {
			if buf == nil {
				return string(chunk[:i]), nil
			}
			return string(append(buf, chunk[:i]...)), nil
		}
		buf = append(buf, chunk...)
		addr += Addr(n)
		left -= n
	}
	return string(buf), nil
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
	b := make([]byte, len(s)+1)
	copy(b, s)
	return as.Write(addr, b)
}

// Alloc maps a fresh block of at least size bytes in the user arena and
// returns its base address.  Each block is padded to page granularity with
// an unmapped guard page after it, so one-past-the-end overruns fault.
func (as *AddressSpace) Alloc(size uint32, prot Prot) (Addr, error) {
	if size == 0 {
		size = 1
	}
	pages := (size + PageSize - 1) / PageSize
	base := as.userNext
	span := Addr(pages+1) * PageSize // +1 guard page
	if base+span < base || base+span > UserTop {
		return 0, ErrNoSpace
	}
	if err := as.Map(base, pages*PageSize, prot); err != nil {
		return 0, err
	}
	as.userNext = base + span
	as.allocs[base] = pages * PageSize
	if as.stats != nil {
		as.stats.Allocs++
	}
	return base, nil
}

// AllocSystem maps a block inside the shared system arena.  Only Win9x/CE
// kernels place user-visible structures there; it exists so test values
// can craft pointers into the shared arena.
func (as *AddressSpace) AllocSystem(size uint32, prot Prot) (Addr, error) {
	if size == 0 {
		size = 1
	}
	pages := (size + PageSize - 1) / PageSize
	base := as.sysNext
	span := Addr(pages+1) * PageSize
	if base+span < base || base+span > SystemTop {
		return 0, ErrNoSpace
	}
	if err := as.Map(base, pages*PageSize, prot); err != nil {
		return 0, err
	}
	as.sysNext = base + span
	as.allocs[base] = pages * PageSize
	if as.stats != nil {
		as.stats.Allocs++
	}
	return base, nil
}

// Free unmaps a block previously returned by Alloc or AllocSystem.  The
// address then faults on access, which "pointer to freed memory" test
// values rely on.
func (as *AddressSpace) Free(base Addr) error {
	size, ok := as.allocs[base]
	if !ok {
		return fmt.Errorf("mem: Free(%#08x): %w", uint32(base), ErrBadRange)
	}
	delete(as.allocs, base)
	if as.stats != nil {
		as.stats.Frees++
	}
	return as.Unmap(base, size)
}

// BlockSize returns the size of a live allocation, or 0 if base is not a
// live allocation base.
func (as *AddressSpace) BlockSize(base Addr) uint32 {
	return as.allocs[base]
}

// PageCount returns the number of mapped pages (used by tests and the
// leak checker).
func (as *AddressSpace) PageCount() int {
	return len(as.pages)
}
