package suite

import (
	"ballista/internal/api"
	"ballista/internal/core"
	"ballista/internal/sim/kern"
	"ballista/internal/sim/mem"
)

// Structure sizes for the Win32 out-parameter pools (byte counts match
// the real ABI closely enough for fault behaviour).
const (
	sizeFiletime     = 8
	sizeSystemtime   = 16
	sizeContext      = 716
	sizeFindData     = 320
	sizeByHandleInfo = 52
	sizeMemStatus    = 32
	sizeMemBasic     = 28
	sizeSystemInfo   = 36
	sizeOSVersion    = 148
	sizeStartupInfo  = 68
	sizeProcInfo     = 16
	sizeOverlapped   = 20
	sizeSecAttrs     = 12
)

// envBlock is a valid, double-NUL-terminated environment block.
const envBlock = "PATH=/bin\x00TEMP=/tmp\x00\x00"

func registerWin32Pointers(r *core.Registry) {
	r.MustAdd(ptrPool("LPVOID", 4096, nil))
	r.MustAdd(ptrPool("LPCVOID", 4096, []byte(FixtureContent)))
	r.MustAdd(ptrPool("LPDWORD", 4, nil))
	r.MustAdd(ptrPool("LPLONG", 4, nil))
	r.MustAdd(ptrPool("LPHANDLE", 4, nil))
	r.MustAdd(ptrPool("LPFILETIME", sizeFiletime, []byte{0, 0x80, 0x3E, 0xD5, 0xDE, 0xB1, 0x9D, 0x01}))
	r.MustAdd(ptrPool("LPCONTEXT", sizeContext, nil))
	r.MustAdd(ptrPool("LPFINDDATA", sizeFindData, nil))
	r.MustAdd(ptrPool("LPBYHANDLEINFO", sizeByHandleInfo, nil))
	r.MustAdd(ptrPool("LPMEMORYSTATUS", sizeMemStatus, nil))
	r.MustAdd(ptrPool("LPMEMBASICINFO", sizeMemBasic, nil))
	r.MustAdd(ptrPool("LPSYSTEMINFO", sizeSystemInfo, nil))
	r.MustAdd(ptrPool("LPSTARTUPINFO", sizeStartupInfo, startupInfoBytes()))
	r.MustAdd(ptrPool("LPPROCINFO", sizeProcInfo, nil))
	r.MustAdd(ptrPool("LPLPSTR", 4, nil))

	// SYSTEMTIME carries a content-invalid variant (month 13): mapped and
	// readable, but semantically exceptional.
	st := ptrPool("LPSYSTEMTIME", sizeSystemtime, systemtimeBytes(1999, 6, 15))
	st.Values = append(st.Values, value("MONTH_13", true, func(e *core.Env) (api.Arg, error) {
		a, err := allocFilled(e, systemtimeBytes(1999, 13, 40), mem.ProtRW)
		return api.Ptr(a), err
	}))
	r.MustAdd(st)

	// OSVERSIONINFO's first field must hold the structure size.
	ov := ptrPool("LPOSVERSIONINFO", sizeOSVersion, osVersionBytes(sizeOSVersion))
	ov.Values = append(ov.Values, value("SIZE_ZERO", true, func(e *core.Env) (api.Arg, error) {
		a, err := allocFilled(e, osVersionBytes(0), mem.ProtRW)
		return api.Ptr(a), err
	}))
	r.MustAdd(ov)

	// Optional structures where NULL is legitimate.
	r.MustAdd(&core.DataType{Name: "LPSECURITY_ATTRIBUTES", Values: []core.TestValue{
		value("NULL", false, func(*core.Env) (api.Arg, error) { return api.Ptr(0), nil }),
		value("VALID", false, func(e *core.Env) (api.Arg, error) {
			b := make([]byte, sizeSecAttrs)
			b[0] = sizeSecAttrs
			a, err := allocFilled(e, b, mem.ProtRW)
			return api.Ptr(a), err
		}),
		value("BAD_LENGTH", true, func(e *core.Env) (api.Arg, error) {
			b := make([]byte, sizeSecAttrs)
			b[0] = 0xFF
			a, err := allocFilled(e, b, mem.ProtRW)
			return api.Ptr(a), err
		}),
		value("UNMAPPED", true, func(*core.Env) (api.Arg, error) { return api.Ptr(addrUnmapped), nil }),
		value("ONE", true, func(*core.Env) (api.Arg, error) { return api.Ptr(1), nil }),
		value("FREED", true, func(e *core.Env) (api.Arg, error) {
			a, err := freedBuf(e, sizeSecAttrs)
			return api.Ptr(a), err
		}),
	}})
	r.MustAdd(&core.DataType{Name: "LPOVERLAPPED", Values: []core.TestValue{
		value("NULL", false, func(*core.Env) (api.Arg, error) { return api.Ptr(0), nil }),
		value("VALID_ZEROED", false, func(e *core.Env) (api.Arg, error) {
			a, err := allocBuf(e, sizeOverlapped, mem.ProtRW)
			return api.Ptr(a), err
		}),
		value("UNMAPPED", true, func(*core.Env) (api.Arg, error) { return api.Ptr(addrUnmapped), nil }),
		value("ONE", true, func(*core.Env) (api.Arg, error) { return api.Ptr(1), nil }),
		value("FREED", true, func(e *core.Env) (api.Arg, error) {
			a, err := freedBuf(e, sizeOverlapped)
			return api.Ptr(a), err
		}),
		value("KERNEL_RANGE", true, func(*core.Env) (api.Arg, error) { return api.Ptr(addrKernel), nil }),
	}})

	// Handle arrays for the multi-object waits.
	r.MustAdd(&core.DataType{Name: "LPHANDLEARR", Values: []core.TestValue{
		value("NULL", true, func(*core.Env) (api.Arg, error) { return api.Ptr(0), nil }),
		value("ONE", true, func(*core.Env) (api.Arg, error) { return api.Ptr(1), nil }),
		value("UNMAPPED", true, func(*core.Env) (api.Arg, error) { return api.Ptr(addrUnmapped), nil }),
		value("VALID_THREE", false, func(e *core.Env) (api.Arg, error) {
			hs := []kern.Handle{makeEvent(e, true, false), makeEvent(e, false, false), makeMutex(e, false)}
			return writeHandleArray(e, hs)
		}),
		value("GARBAGE_ENTRIES", true, func(e *core.Env) (api.Arg, error) {
			return writeHandleArray(e, []kern.Handle{0x00BADBAD, 0, kern.InvalidHandle})
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
	}})

	// Code pointers (thread start routines, completion callbacks).
	r.MustAdd(&core.DataType{Name: "FUNCPTR", Values: []core.TestValue{
		value("NULL", true, func(*core.Env) (api.Arg, error) { return api.Ptr(0), nil }),
		value("VALID_CODE", false, func(e *core.Env) (api.Arg, error) {
			a, err := allocBuf(e, 64, mem.ProtRead)
			return api.Ptr(a), err
		}),
		value("UNMAPPED", true, func(*core.Env) (api.Arg, error) { return api.Ptr(addrUnmapped), nil }),
		value("ONE", true, func(*core.Env) (api.Arg, error) { return api.Ptr(1), nil }),
		value("KERNEL_RANGE", true, func(*core.Env) (api.Arg, error) { return api.Ptr(addrKernel), nil }),
	}})

	// In/out strings specific to Win32.
	r.MustAdd(func() *core.DataType {
		dt := cstringPool("LPCSTR")
		return dt
	}())
	lpstr := &core.DataType{Name: "LPSTRBUF"}
	lpstr.Values = append(lpstr.Values, strbufValues()...)
	r.MustAdd(lpstr)
	r.MustAdd(pathPool("LPPATH", "\\"))
	r.MustAdd(&core.DataType{Name: "ENVNAME", Values: []core.TestValue{
		value("NULL", true, func(*core.Env) (api.Arg, error) { return api.Ptr(0), nil }),
		value("ONE", true, func(*core.Env) (api.Arg, error) { return api.Ptr(1), nil }),
		value("UNMAPPED", true, func(*core.Env) (api.Arg, error) { return api.Ptr(addrUnmapped), nil }),
		strVal("EMPTY", "", true),
		strVal("EXISTING", "PATH", false),
		strVal("MISSING", "BALLISTA_NO_SUCH_VAR", false),
		strVal("WITH_EQUALS", "BAD=NAME", true),
		value("HUGE_NAME", true, func(e *core.Env) (api.Arg, error) {
			a, err := allocCString(e, hugeEnvName, mem.ProtRW)
			return api.Ptr(a), err
		}),
	}})
	r.MustAdd(&core.DataType{Name: "ENVBLOCK", Values: []core.TestValue{
		value("NULL", true, func(*core.Env) (api.Arg, error) { return api.Ptr(0), nil }),
		value("VALID_BLOCK", false, func(e *core.Env) (api.Arg, error) {
			a, err := allocString(e, envBlock, uint32(len(envBlock)), mem.ProtRW)
			return api.Ptr(a), err
		}),
		value("GARBAGE", true, func(*core.Env) (api.Arg, error) { return api.Ptr(addrUnmapped), nil }),
		value("FREED", true, func(e *core.Env) (api.Arg, error) {
			a, err := freedBuf(e, 64)
			return api.Ptr(a), err
		}),
		value("ONE", true, func(*core.Env) (api.Arg, error) { return api.Ptr(1), nil }),
	}})

	// Allocation bases for the Virtual* family.
	r.MustAdd(&core.DataType{Name: "LPVOID_BASE", Values: []core.TestValue{
		value("NULL", false, func(*core.Env) (api.Arg, error) { return api.Ptr(0), nil }), // "let the system choose"
		value("MAPPED_BASE", false, func(e *core.Env) (api.Arg, error) {
			a, err := allocBuf(e, 2*mem.PageSize, mem.ProtRW)
			return api.Ptr(a), err
		}),
		value("MISALIGNED", true, func(e *core.Env) (api.Arg, error) {
			a, err := allocBuf(e, mem.PageSize, mem.ProtRW)
			return api.Ptr(a + 13), err
		}),
		value("UNMAPPED_ALIGNED", false, func(*core.Env) (api.Arg, error) { return api.Ptr(0x7F500000), nil }),
		value("SYSTEM_ARENA", true, func(e *core.Env) (api.Arg, error) {
			a, err := systemPtr(e)
			return api.Ptr(a), err
		}),
		value("KERNEL_RANGE", true, func(*core.Env) (api.Arg, error) { return api.Ptr(addrKernel), nil }),
		value("TOP_OF_MEMORY", true, func(*core.Env) (api.Arg, error) { return api.Ptr(0xFFFF0000), nil }),
	}})

	// Heap block pointers (paired loosely with HHEAP, as in Ballista).
	r.MustAdd(&core.DataType{Name: "HEAPPTR", Values: []core.TestValue{
		value("NULL", true, func(*core.Env) (api.Arg, error) { return api.Ptr(0), nil }),
		value("GARBAGE", true, func(*core.Env) (api.Arg, error) { return api.Ptr(addrUnmapped), nil }),
		value("VALID_BLOCK", false, func(e *core.Env) (api.Arg, error) {
			// A block from this case's own private heap.
			base, err := e.P.AS.Alloc(16384, mem.ProtRW)
			if err != nil {
				return api.Arg{}, err
			}
			hp := kern.NewHeap(uint32(base), 16384, 0, false)
			e.P.AddHandle(&kern.Object{Kind: kern.KHeap, Heap: hp})
			return api.Ptr(mem.Addr(hp.Alloc(64))), nil
		}),
		value("FREED_BLOCK", true, func(e *core.Env) (api.Arg, error) {
			a, err := freedBuf(e, 64)
			return api.Ptr(a), err
		}),
		value("INTERIOR", true, func(e *core.Env) (api.Arg, error) {
			a, err := allocBuf(e, 256, mem.ProtRW)
			return api.Ptr(a + 8), err
		}),
		value("ONE", true, func(*core.Env) (api.Arg, error) { return api.Ptr(1), nil }),
	}})
}

func strbufValues() []core.TestValue {
	// The Win32 output-string buffer pool: valid buffers of assorted
	// capacity placed against the guard page, plus the NULL and unmapped
	// pointers that system-call out-parameters are exposed to.
	return []core.TestValue{
		value("NULL", true, func(*core.Env) (api.Arg, error) { return api.Ptr(0), nil }),
		value("UNMAPPED", true, func(*core.Env) (api.Arg, error) { return api.Ptr(addrUnmapped), nil }),
		strbufEnd("ROOM8", 8, false),
		strbufEnd("ROOM64", 64, false),
		strbufEnd("ROOM256", 256, false),
		value("PAGE4K", false, func(e *core.Env) (api.Arg, error) {
			a, err := allocBuf(e, 4096, mem.ProtRW)
			return api.Ptr(a), err
		}),
	}
}

func writeHandleArray(e *core.Env, hs []kern.Handle) (api.Arg, error) {
	a, err := allocBuf(e, uint32(4*len(hs)), mem.ProtRW)
	if err != nil {
		return api.Arg{}, err
	}
	for i, h := range hs {
		if f := e.P.AS.WriteU32(a+mem.Addr(4*i), uint32(h)); f != nil {
			return api.Arg{}, f
		}
	}
	return api.Ptr(a), nil
}

func systemtimeBytes(year, month, day uint16) []byte {
	b := make([]byte, sizeSystemtime)
	put16 := func(off int, v uint16) { b[off] = byte(v); b[off+1] = byte(v >> 8) }
	put16(0, year)
	put16(2, month)
	put16(4, 3) // day of week
	put16(6, day)
	put16(8, 12)
	put16(10, 30)
	put16(12, 45)
	return b
}

func osVersionBytes(size uint32) []byte {
	b := make([]byte, sizeOSVersion)
	b[0] = byte(size)
	b[1] = byte(size >> 8)
	return b
}

func startupInfoBytes() []byte {
	b := make([]byte, sizeStartupInfo)
	b[0] = sizeStartupInfo // cb
	return b
}
