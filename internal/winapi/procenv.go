package winapi

import (
	"math/bits"
	"strings"

	"ballista/internal/api"
	"ballista/internal/sim/kern"
	"ballista/internal/sim/mem"
)

// contextSize is the i386 CONTEXT structure size.
const contextSize = 716

func registerProcEnv(m map[string]Impl) {
	m["GetThreadContext"] = getThreadContext
	m["SetThreadContext"] = setThreadContext
	m["InterlockedIncrement"] = func(c *api.Call) { interlocked(c, func(v uint32) uint32 { return v + 1 }) }
	m["InterlockedDecrement"] = func(c *api.Call) { interlocked(c, func(v uint32) uint32 { return v - 1 }) }
	m["InterlockedExchange"] = func(c *api.Call) {
		p := c.PtrArg(0)
		if c.DefectCorrupt(!c.K.Probe(c.P.AS, p, 4, true)) {
			return
		}
		old, ok := c.UserRead(p, 4)
		if !ok {
			return
		}
		if !c.UserWrite(p, u32b(c.U32(1))) {
			return
		}
		c.Ret(int64(le32(old)))
	}
	m["GetEnvironmentVariable"] = func(c *api.Call) {
		name, ok := c.UserReadCString(c.PtrArg(0))
		if !ok {
			return
		}
		val, exists := c.P.Getenv(name)
		if name == "" || !exists {
			c.FailWinRet(0, api.ErrorEnvVarNotFound)
			return
		}
		need := len(val) + 1
		if int(c.U32(2)) < need {
			c.Ret(int64(need))
			return
		}
		if !c.UserWrite(c.PtrArg(1), append([]byte(val), 0)) {
			return
		}
		c.Ret(int64(len(val)))
	}
	m["SetEnvironmentVariable"] = func(c *api.Call) {
		name, ok := c.UserReadCString(c.PtrArg(0))
		if !ok {
			return
		}
		if name == "" || strings.Contains(name, "=") {
			c.FailWin(api.ErrorInvalidParameter)
			return
		}
		if v := c.PtrArg(1); v != 0 {
			val, ok := c.UserReadCString(v)
			if !ok {
				return
			}
			c.P.Setenv(name, val)
		} else {
			c.P.Unsetenv(name)
		}
		c.Ret(winTrue)
	}
	m["ExpandEnvironmentStrings"] = func(c *api.Call) {
		src, ok := c.UserReadCString(c.PtrArg(0))
		if !ok {
			return
		}
		out := expandEnv(src, c.P.Getenv)
		need := len(out)
		if int(c.U32(2)) < need {
			c.Ret(int64(need))
			return
		}
		if !c.UserWrite(c.PtrArg(1), out) {
			return
		}
		c.Ret(int64(need))
	}
	m["GetEnvironmentStrings"] = func(c *api.Call) {
		var b []byte
		for _, kv := range c.P.Environ() {
			b = append(b, kv...)
			b = append(b, 0)
		}
		b = append(b, 0)
		a, err := c.P.AS.Alloc(uint32(len(b)), mem.ProtRW)
		if err != nil {
			c.FailWinRet(0, api.ErrorNotEnoughMemory)
			return
		}
		_ = c.P.AS.Write(a, b)
		c.Ret(int64(uint32(a)))
	}
	m["FreeEnvironmentStrings"] = func(c *api.Call) {
		a := c.PtrArg(0)
		if c.P.AS.BlockSize(a) == 0 {
			c.FailMaybeSilent(0, api.ErrorInvalidParameter, winTrue)
			return
		}
		_ = c.P.AS.Free(a)
		c.Ret(winTrue)
	}
	m["GetSystemInfo"] = func(c *api.Call) {
		// A user-mode KERNEL32 routine: fills the caller's structure
		// directly.
		b := make([]byte, 36)
		copy(b[4:], u32b(4096))                 // dwPageSize
		copy(b[8:], u32b(uint32(mem.UserBase))) // lpMinimumApplicationAddress
		copy(b[12:], u32b(uint32(mem.UserTop))) // lpMaximumApplicationAddress
		copy(b[20:], u32b(1))                   // dwNumberOfProcessors
		copy(b[24:], u32b(586))                 // dwProcessorType (Pentium)
		if !c.UserWrite(c.PtrArg(0), b) {
			return
		}
		c.Ret(0)
	}
	m["GetComputerName"] = func(c *api.Call) {
		lpn := c.PtrArg(1)
		b, ok := c.CopyIn(1, lpn, 4)
		if !ok {
			return
		}
		const name = "BALLISTA-PC"
		if le32(b) < uint32(len(name)+1) {
			if !c.CopyOut(1, lpn, u32b(uint32(len(name)+1))) {
				return
			}
			c.FailWin(api.ErrorInsufficientBuffer)
			return
		}
		if !c.CopyOut(0, c.PtrArg(0), append([]byte(name), 0)) {
			return
		}
		if !c.CopyOut(1, lpn, u32b(uint32(len(name)))) {
			return
		}
		c.Ret(winTrue)
	}
	m["GetSystemDirectory"] = sysDir("C:\\WINDOWS\\SYSTEM")
	m["GetWindowsDirectory"] = sysDir("C:\\WINDOWS")
	m["GetVersion"] = func(c *api.Call) {
		c.Ret(0x0A280004) // 4.10 build 2600-ish
	}
	m["GetVersionEx"] = func(c *api.Call) {
		p := c.PtrArg(0)
		b, ok := c.UserRead(p, 4)
		if !ok {
			return
		}
		if le32(b) < 20 {
			c.FailWin(api.ErrorInvalidParameter)
			return
		}
		out := make([]byte, 20)
		copy(out, u32b(le32(b)))
		copy(out[4:], u32b(4))  // major
		copy(out[8:], u32b(10)) // minor
		if !c.UserWrite(p+4, out[4:]) {
			return
		}
		c.Ret(winTrue)
	}
	m["GetSystemTime"] = func(c *api.Call) {
		if !c.CopyOut(0, c.PtrArg(0), systemtime(c.K.Ticks())) {
			return
		}
		c.Ret(0)
	}
	m["GetLocalTime"] = func(c *api.Call) {
		if !c.CopyOut(0, c.PtrArg(0), systemtime(c.K.Ticks())) {
			return
		}
		c.Ret(0)
	}
	m["SetSystemTime"] = setTimeImpl
	m["SetLocalTime"] = setTimeImpl
	m["GetSystemTimeAsFileTime"] = func(c *api.Call) {
		if !c.CopyOut(0, c.PtrArg(0), filetimeFrom(c.K.Ticks())) {
			return
		}
		c.Ret(0)
	}
	m["GetTickCount"] = func(c *api.Call) { c.Ret(int64(uint32(c.K.Ticks()))) }
	m["GetCurrentProcess"] = func(c *api.Call) { c.Ret(int64(uint32(kern.PseudoProcess))) }
	m["GetCurrentThread"] = func(c *api.Call) { c.Ret(int64(uint32(kern.PseudoThread))) }
	m["GetCurrentProcessId"] = func(c *api.Call) { c.Ret(int64(c.P.PID)) }
	m["GetCurrentThreadId"] = func(c *api.Call) { c.Ret(int64(c.P.Thread.TID)) }
	m["GetModuleFileName"] = func(c *api.Call) {
		path := "C:\\bl\\ballista_test.exe"
		if c.HandleAt(0) != 0 {
			o := object(c, 0, kern.KModule, 0)
			if o == nil {
				return
			}
			path = o.Module.Path
		}
		n := int(c.U32(2))
		if n < len(path)+1 {
			if n > 0 {
				if !c.UserWrite(c.PtrArg(1), append([]byte(path[:n-1]), 0)) {
					return
				}
			}
			c.FailWinRet(int64(n), api.ErrorInsufficientBuffer)
			return
		}
		if !c.UserWrite(c.PtrArg(1), append([]byte(path), 0)) {
			return
		}
		c.Ret(int64(len(path)))
	}
	m["GetModuleHandle"] = func(c *api.Call) {
		p := c.PtrArg(0)
		if p == 0 {
			c.Ret(0x00400000) // the executable image base
			return
		}
		name, ok := c.UserReadCString(p)
		if !ok {
			return
		}
		if strings.EqualFold(name, "KERNEL32.DLL") || strings.EqualFold(name, "KERNEL32") {
			c.Ret(0x77E00000)
			return
		}
		c.FailWinRet(0, api.ErrorFileNotFound)
	}
	m["GetProcAddress"] = func(c *api.Call) {
		o := object(c, 0, kern.KModule, 0)
		if o == nil {
			return
		}
		p := c.PtrArg(1)
		if uint32(p) < 0x10000 {
			// Ordinal import.
			if ord := uint32(p); ord >= 1 && ord <= uint32(len(o.Module.Symbols)) {
				c.Ret(int64(o.Module.Base + ord*16))
				return
			}
			c.FailWinRet(0, api.ErrorProcNotFound)
			return
		}
		name, ok := c.UserReadCString(p)
		if !ok {
			return
		}
		if addr, found := o.Module.Symbols[name]; found {
			c.Ret(int64(addr))
			return
		}
		c.FailWinRet(0, api.ErrorProcNotFound)
	}
	m["TlsAlloc"] = func(c *api.Call) {
		if ^c.P.TLSUsed == 0 {
			c.FailWinRet(int64(int32(-1)), api.ErrorNotEnoughMemory)
			return
		}
		i := bits.TrailingZeros64(^c.P.TLSUsed)
		c.P.TLSUsed |= 1 << i
		c.P.TLS[i] = 0
		c.Ret(int64(i))
	}
	m["TlsFree"] = func(c *api.Call) {
		i := c.U32(0)
		if !tlsUsed(c.P, i) {
			c.FailMaybeSilent(0, api.ErrorInvalidParameter, winTrue)
			return
		}
		c.P.TLSUsed &^= 1 << i
		c.Ret(winTrue)
	}
	m["TlsGetValue"] = func(c *api.Call) {
		i := c.U32(0)
		if !tlsUsed(c.P, i) {
			c.FailWinRet(0, api.ErrorInvalidParameter)
			return
		}
		c.P.LastError = 0 // documented: success clears the error
		c.Ret(int64(c.P.TLS[i]))
	}
	m["TlsSetValue"] = func(c *api.Call) {
		i := c.U32(0)
		if !tlsUsed(c.P, i) {
			c.FailMaybeSilent(0, api.ErrorInvalidParameter, winTrue)
			return
		}
		c.P.TLS[i] = uint32(c.PtrArg(1))
		c.Ret(winTrue)
	}
	m["SetErrorMode"] = func(c *api.Call) {
		old := c.P.ErrMode
		c.P.ErrMode = c.U32(0)
		c.Ret(int64(old))
	}
	m["GetPriorityClass"] = func(c *api.Call) {
		if object(c, 0, kern.KProcess, 0) == nil {
			return
		}
		if c.P.Priority == 0 {
			c.Ret(0x20) // NORMAL_PRIORITY_CLASS
			return
		}
		c.Ret(int64(c.P.Priority))
	}
	m["SetPriorityClass"] = func(c *api.Call) {
		if object(c, 0, kern.KProcess, winTrue) == nil {
			return
		}
		switch c.U32(1) {
		case 0x20, 0x40, 0x80, 0x100:
			c.P.Priority = int(c.U32(1))
			c.Ret(winTrue)
		default:
			c.FailWin(api.ErrorInvalidParameter)
		}
	}
}

// getThreadContext is the paper's Listing 1 subject:
// GetThreadContext(GetCurrentThread(), NULL) crashed Windows 95, 98 and
// CE every time — the kernel writes the CONTEXT through the unprobed
// output pointer (MechRawOut defect inside CopyOut).  On NT/2000 the
// probe failure surfaces as an access violation in the caller: an Abort,
// not a crash.
func getThreadContext(c *api.Call) {
	o := threadObject(c, 0, winTrue)
	if o == nil {
		return
	}
	ctx := make([]byte, contextSize)
	copy(ctx, u32b(0x00010007)) // ContextFlags: CONTEXT_FULL
	if !c.CopyOut(1, c.PtrArg(1), ctx) {
		return
	}
	c.Ret(winTrue)
}

func setThreadContext(c *api.Call) {
	o := threadObject(c, 0, winTrue)
	if o == nil {
		return
	}
	if _, ok := c.CopyIn(1, c.PtrArg(1), contextSize); !ok {
		return
	}
	c.Ret(winTrue)
}

// interlocked models InterlockedIncrement/Decrement: a user-mode locked
// instruction on desktop Windows (bad pointer = plain access violation),
// but a kernel-assisted operation on Windows CE, where Table 3 records
// harness-only corruption ("*").
func interlocked(c *api.Call, f func(uint32) uint32) {
	p := c.PtrArg(0)
	if c.DefectCorrupt(!c.K.Probe(c.P.AS, p, 4, true)) {
		return
	}
	b, ok := c.UserRead(p, 4)
	if !ok {
		return
	}
	v := f(le32(b))
	if !c.UserWrite(p, u32b(v)) {
		return
	}
	c.Ret(int64(int32(v)))
}

func setTimeImpl(c *api.Call) {
	b, ok := c.CopyIn(0, c.PtrArg(0), 16)
	if !ok {
		return
	}
	month := uint16(b[2]) | uint16(b[3])<<8
	day := uint16(b[6]) | uint16(b[7])<<8
	if month < 1 || month > 12 || day < 1 || day > 31 {
		c.FailWin(api.ErrorInvalidParameter)
		return
	}
	c.Ret(winTrue)
}

func sysDir(path string) Impl {
	return func(c *api.Call) {
		need := len(path) + 1
		if int(c.U32(1)) < need {
			c.Ret(int64(need))
			return
		}
		if !c.UserWrite(c.PtrArg(0), append([]byte(path), 0)) {
			return
		}
		c.Ret(int64(len(path)))
	}
}

// expandEnv returns src with every %NAME% that names a set variable
// replaced by its value, followed by the NUL terminator, built in one
// buffer sized from src.  A %NAME% naming no variable, and a '%' with no
// closing one, stay as written.
func expandEnv(src string, getenv func(string) (string, bool)) []byte {
	out := make([]byte, 0, len(src)+1)
	for {
		i := strings.IndexByte(src, '%')
		if i < 0 {
			break
		}
		j := strings.IndexByte(src[i+1:], '%')
		if j < 0 {
			break
		}
		out = append(out, src[:i]...)
		name, end := src[i+1:i+1+j], i+j+2
		if v, ok := getenv(name); ok {
			out = append(out, v...)
		} else {
			out = append(out, src[i:end]...)
		}
		src = src[end:]
	}
	out = append(out, src...)
	return append(out, 0)
}

// tlsUsed reports whether TLS slot i is allocated in p.
func tlsUsed(p *kern.Process, i uint32) bool {
	return i < uint32(len(p.TLS)) && p.TLSUsed&(1<<i) != 0
}
