package suite

import (
	"strings"

	"ballista/internal/api"
	"ballista/internal/core"
	"ballista/internal/sim/mem"
)

// Canonical raw addresses for exceptional pointer values.
const (
	// addrUnmapped lies in the user arena above the bump allocator's
	// reach for any realistic test case.
	addrUnmapped = mem.Addr(0x7F400000)
	// addrSystem lies in the shared system arena.  On Win9x/CE a page is
	// materialized there; on NT/Linux any access faults.
	addrSystem = mem.Addr(0x80002000)
	// addrKernel lies in the kernel range.
	addrKernel = mem.Addr(0xC0000010)
)

// value builds a TestValue from a constructor.
func value(name string, exceptional bool, make core.Constructor) core.TestValue {
	return core.TestValue{Name: name, Exceptional: exceptional, Make: make}
}

// intVal is a constant integer test value.
func intVal(name string, v int64, exceptional bool) core.TestValue {
	return value(name, exceptional, func(*core.Env) (api.Arg, error) {
		return api.Int(v), nil
	})
}

// floatVal is a constant floating-point test value.
func floatVal(name string, v float64, exceptional bool) core.TestValue {
	return value(name, exceptional, func(*core.Env) (api.Arg, error) {
		return api.Float(v), nil
	})
}

// --- pointer materialization helpers ---

// allocBuf maps a fresh block and returns its base.
func allocBuf(e *core.Env, size uint32, prot mem.Prot) (mem.Addr, error) {
	return e.P.AS.Alloc(size, prot)
}

// allocFilled maps a block and fills it.
func allocFilled(e *core.Env, data []byte, prot mem.Prot) (mem.Addr, error) {
	a, err := e.P.AS.Alloc(uint32(len(data)), mem.ProtRW)
	if err != nil {
		return 0, err
	}
	if f := e.P.AS.Write(a, data); f != nil {
		return 0, f
	}
	return protectBlock(e, a, uint32(len(data)), prot)
}

// allocString maps an n-byte block and fills it with s followed by
// zeros, writing s in place rather than through a padded copy.
func allocString(e *core.Env, s string, n uint32, prot mem.Prot) (mem.Addr, error) {
	a, err := e.P.AS.Alloc(n, mem.ProtRW)
	if err != nil {
		return 0, err
	}
	if f := e.P.AS.WriteStringPadded(a, s, n, 0); f != nil {
		return 0, f
	}
	return protectBlock(e, a, n, prot)
}

// protectBlock gives the filled n-byte block at a its final protection
// and returns its address.
func protectBlock(e *core.Env, a mem.Addr, n uint32, prot mem.Prot) (mem.Addr, error) {
	if prot != mem.ProtRW {
		if err := e.P.AS.Protect(a, n, prot); err != nil {
			return 0, err
		}
	}
	return a, nil
}

// allocCString materializes a NUL-terminated string, UTF-16 when the
// environment is running a UNICODE variant.
func allocCString(e *core.Env, s string, prot mem.Prot) (mem.Addr, error) {
	if !e.Wide {
		return allocString(e, s, uint32(len(s))+1, prot)
	}
	b := make([]byte, 0, 2*len(s)+2)
	for _, r := range s {
		b = append(b, byte(r), byte(uint16(r)>>8))
	}
	b = append(b, 0, 0)
	return allocFilled(e, b, prot)
}

// repeatAlphabet returns n letters cycling through the alphabet from
// first ('a' or 'A'): the constant image of a long string test value,
// built once rather than per case.
func repeatAlphabet(first byte, n int) string {
	var b strings.Builder
	b.Grow(n)
	for i := 0; i < n; i++ {
		b.WriteByte(first + byte(i%26))
	}
	return b.String()
}

// freedBuf maps then frees a block, yielding a dangling pointer.
func freedBuf(e *core.Env, size uint32) (mem.Addr, error) {
	a, err := e.P.AS.Alloc(size, mem.ProtRW)
	if err != nil {
		return 0, err
	}
	if err := e.P.AS.Free(a); err != nil {
		return 0, err
	}
	return a, nil
}

// guardEndPtr returns a pointer 4 bytes before the end of a fresh
// one-page block: reading or writing more than 4 bytes runs into the
// guard page.
func guardEndPtr(e *core.Env) (mem.Addr, error) {
	a, err := e.P.AS.Alloc(mem.PageSize, mem.ProtRW)
	if err != nil {
		return 0, err
	}
	return a + mem.PageSize - 4, nil
}

// systemPtr returns a pointer into the shared system arena.  On shared-
// arena machines the page is mapped (writes scribble shared state); on
// probing machines the address is simply outside the user arena.
func systemPtr(e *core.Env) (mem.Addr, error) {
	if e.Profile.Traits.SharedArena {
		return e.P.AS.AllocSystem(mem.PageSize, mem.ProtRW)
	}
	return addrSystem, nil
}

// ptrPool builds the generic Ballista pointer pool used — with size
// adjusted — by every structure and buffer type.  validFill, when non-
// nil, initializes the VALID value's contents.
func ptrPool(name string, size uint32, validFill []byte) *core.DataType {
	valid := func(e *core.Env) (api.Arg, error) {
		if validFill != nil {
			a, err := allocFilled(e, validFill, mem.ProtRW)
			if err != nil {
				return api.Arg{}, err
			}
			return api.Ptr(a), nil
		}
		a, err := allocBuf(e, size, mem.ProtRW)
		if err != nil {
			return api.Arg{}, err
		}
		return api.Ptr(a), nil
	}
	return &core.DataType{Name: name, Values: []core.TestValue{
		value("NULL", true, func(*core.Env) (api.Arg, error) { return api.Ptr(0), nil }),
		value("ONE", true, func(*core.Env) (api.Arg, error) { return api.Ptr(1), nil }),
		value("UNMAPPED", true, func(*core.Env) (api.Arg, error) { return api.Ptr(addrUnmapped), nil }),
		value("FREED", true, func(e *core.Env) (api.Arg, error) {
			a, err := freedBuf(e, size)
			return api.Ptr(a), err
		}),
		value("READONLY", true, func(e *core.Env) (api.Arg, error) {
			a, err := allocBuf(e, size, mem.ProtRead)
			return api.Ptr(a), err
		}),
		value("GUARD_END", true, func(e *core.Env) (api.Arg, error) {
			a, err := guardEndPtr(e)
			return api.Ptr(a), err
		}),
		value("SYSTEM_ARENA", true, func(e *core.Env) (api.Arg, error) {
			a, err := systemPtr(e)
			return api.Ptr(a), err
		}),
		value("KERNEL_RANGE", true, func(*core.Env) (api.Arg, error) { return api.Ptr(addrKernel), nil }),
		value("VALID", false, valid),
		value("VALID_OFFSET", false, func(e *core.Env) (api.Arg, error) {
			a, err := allocBuf(e, size+64, mem.ProtRW)
			if err != nil {
				return api.Arg{}, err
			}
			return api.Ptr(a + 1), nil // misaligned but mapped
		}),
	}}
}

// optOutPtrPool is ptrPool for optional output structures where NULL is a
// legitimate "don't report" argument.
func optOutPtrPool(name string, size uint32) *core.DataType {
	dt := ptrPool(name, size, nil)
	dt.Name = name
	dt.Values[0] = value("NULL", false, func(*core.Env) (api.Arg, error) { return api.Ptr(0), nil })
	return dt
}

func registerCommon(r *core.Registry) {
	// Shared scalar pools.
	r.MustAdd(&core.DataType{Name: "SIZE_T", Values: []core.TestValue{
		intVal("ZERO", 0, false),
		intVal("ONE", 1, false),
		intVal("SIXTEEN", 16, false),
		intVal("PAGE", 4096, false),
		intVal("BIG64K", 65536, true),
		intVal("MAXINT32", 0x7FFFFFFF, true),
		intVal("MAXUINT32", 0xFFFFFFFF, true),
	}})
	// STRBUF is the character output buffer shared by the C library and
	// the POSIX surface.  All values are valid pointers to buffers of
	// varying capacity, placed flush against the block's guard page so
	// that an over-long write faults at exactly the advertised size —
	// Ballista's string buffers were writable storage of assorted sizes,
	// not wild pointers (the paper's low C-string failure rates rule
	// those out).
	r.MustAdd(&core.DataType{Name: "STRBUF", Values: []core.TestValue{
		strbufEnd("ROOM8", 8, false),
		strbufEnd("ROOM64", 64, false),
		strbufEnd("ROOM256", 256, false),
		strbufEnd("ROOM1024", 1024, false),
		value("PAGE4K", false, func(e *core.Env) (api.Arg, error) {
			a, err := allocBuf(e, 4096, mem.ProtRW)
			return api.Ptr(a), err
		}),
	}})
}

// strbufEnd materializes a buffer with exactly room bytes before the
// guard page.
func strbufEnd(name string, room uint32, exceptional bool) core.TestValue {
	return value(name, exceptional, func(e *core.Env) (api.Arg, error) {
		a, err := endBuf(e, room)
		return api.Ptr(a), err
	})
}

// endBuf maps a block and returns a pointer with exactly room bytes of
// valid space before the trailing guard page.
func endBuf(e *core.Env, room uint32) (mem.Addr, error) {
	pages := (room + mem.PageSize - 1) / mem.PageSize
	a, err := e.P.AS.Alloc(pages*mem.PageSize, mem.ProtRW)
	if err != nil {
		return 0, err
	}
	return a + mem.Addr(pages*mem.PageSize-room), nil
}
