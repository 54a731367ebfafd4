package api

import (
	"hash/fnv"
	"strconv"

	"ballista/internal/sim/kern"
	"ballista/internal/sim/mem"
)

// siteBP returns a deterministic value in [0, 10000) for a validation
// site, salted by OS name and function name.  Non-probing kernels (the
// Win9x/CE families) use it to decide how a given function's user-mode
// stub responds to an invalid pointer: different functions genuinely had
// different stubs, and sibling OS versions (95 / 98 / 98 SE) shipped
// slightly different stub sets — the salt reproduces that diversity
// deterministically.
func (c *Call) siteBP(site string, param int) uint32 {
	h := fnv.New32a()
	_, _ = h.Write([]byte(c.Traits.OSName))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(c.Name))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(site))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(strconv.Itoa(param)))
	return h.Sum32() % 10000
}

// maybeWrongCode substitutes an incorrect error code at a deterministic
// per-function, per-code subset of error sites when the OS carries a
// WrongCodeBP budget (the 9x family).  ERROR_INVALID_FUNCTION is the
// classic wrong answer Win9x handed back.
func (c *Call) maybeWrongCode(code uint32) uint32 {
	if c.Traits.WrongCodeBP == 0 || code == 0 {
		return code
	}
	if c.siteBP("errcode", int(code)) < c.Traits.WrongCodeBP {
		if code == ErrorInvalidFunction {
			return ErrorInvalidParameter
		}
		return ErrorInvalidFunction
	}
	return code
}

type stubAction int

const (
	stubError stubAction = iota
	stubSilent
	stubPassthrough
)

func (c *Call) stubPolicy(site string, param int) stubAction {
	bp := c.siteBP(site, param)
	switch {
	case bp < c.Traits.StubErrorBP:
		return stubError
	case bp < c.Traits.StubErrorBP+c.Traits.StubSilentBP:
		return stubSilent
	default:
		return stubPassthrough
	}
}

func (c *Call) defectRaw(param int, mech DefectMech) bool {
	d := c.Def
	if d == nil || d.Mech != mech || d.Param != param {
		return false
	}
	if d.WideOnly && !c.Wide {
		return false
	}
	return true
}

// DefectCorrupt applies a MechCorrupt defect from Table 3: when this
// function carries one and the implementation observed the triggering
// exceptional input, kernel state takes Amount damage.  It returns true
// when the machine crashed (the implementation must then unwind).
func (c *Call) DefectCorrupt(triggered bool) bool {
	d := c.Def
	if d == nil || d.Mech != MechCorrupt || !triggered {
		return false
	}
	if d.WideOnly && !c.Wide {
		return false
	}
	c.K.Corrupt(d.Amount, c.Name)
	if c.K.Crashed() {
		c.CrashedOut()
		return true
	}
	return false
}

// --- user-mode access (library code running inside the process) ---

// UserRead reads size bytes of user memory from library code.  A fault
// aborts the call (SIGSEGV / access violation).
func (c *Call) UserRead(addr mem.Addr, size uint32) ([]byte, bool) {
	b, f := c.P.AS.Read(addr, size)
	if f != nil {
		c.MemFault(f)
		return nil, false
	}
	return b, true
}

// UserWrite writes user memory from library code.  On a shared-arena
// machine a successful write that lands in the system arena scribbles
// shared pages (negligible accumulation per hit).
func (c *Call) UserWrite(addr mem.Addr, data []byte) bool {
	return c.userWrote(addr, c.P.AS.Write(addr, data))
}

// UserWritePadded is UserWrite of data cut or padded with pad to n bytes
// (memset, strncpy), checked before any byte is built or written.
func (c *Call) UserWritePadded(addr mem.Addr, data []byte, n uint32, pad byte) bool {
	return c.userWrote(addr, c.P.AS.WritePadded(addr, data, n, pad))
}

// userWrote finishes a user-mode write at addr that ended with fault f.
func (c *Call) userWrote(addr mem.Addr, f *mem.Fault) bool {
	if f != nil {
		c.MemFault(f)
		return false
	}
	if c.Traits.SharedArena && mem.RegionOf(addr) == mem.RegionSystem {
		c.K.Corrupt(kern.CorruptionScratch, c.Name)
		if c.K.Crashed() {
			c.CrashedOut()
			return false
		}
	}
	return true
}

// UserReadCString walks a NUL-terminated string in user memory.
func (c *Call) UserReadCString(addr mem.Addr) (string, bool) {
	s, f := c.P.AS.CString(addr)
	if f != nil {
		c.MemFault(f)
		return "", false
	}
	return s, true
}

// UserReadWString walks a NUL-terminated UTF-16 string in user memory.
func (c *Call) UserReadWString(addr mem.Addr) ([]uint16, bool) {
	s, f := c.P.AS.WString(addr)
	if f != nil {
		c.MemFault(f)
		return nil, false
	}
	return s, true
}

// UserString reads a narrow or wide string according to the call's Wide
// flag, returning it as a Go string.
func (c *Call) UserString(addr mem.Addr) (string, bool) {
	if c.Wide {
		u, ok := c.UserReadWString(addr)
		if !ok {
			return "", false
		}
		b := make([]rune, len(u))
		for i, cu := range u {
			b[i] = rune(cu)
		}
		return string(b), true
	}
	return c.UserReadCString(addr)
}

// --- kernel-boundary access (system calls) ---

// CopyIn reads a caller-supplied input structure at the system-call
// boundary.  The path taken depends on the OS architecture and on any
// Table 3 defect bound to this parameter:
//
//   - defect MechRawIn: the kernel dereferences raw — Catastrophic on a
//     shared-arena machine when the pointer is invalid;
//   - probing kernels: probe failure yields EFAULT (Unix) or a thrown
//     access violation (NT family);
//   - non-probing kernels: valid pointers are read normally; invalid ones
//     hit the function's stub policy (error return, silent zeros, or an
//     unhandled access violation).
func (c *Call) CopyIn(param int, addr mem.Addr, size uint32) ([]byte, bool) {
	if c.defectRaw(param, MechRawIn) {
		b, res := c.K.RawRead(c.P.AS, addr, size)
		switch res {
		case kern.RawCrashed:
			c.CrashedOut()
			return nil, false
		case kern.RawFault:
			c.MemFault(&mem.Fault{Addr: addr, Kind: mem.FaultUnmapped})
			return nil, false
		}
		return b, true
	}
	if c.Traits.ProbeKernel {
		if !c.K.Probe(c.P.AS, addr, size, false) {
			if c.Traits.Unix {
				c.FailErrno(EFAULT)
			} else {
				c.Raise(ExcAccessViolation)
			}
			return nil, false
		}
		b, _ := c.P.AS.Read(addr, size)
		return b, true
	}
	// Non-probing stub path.
	if b, f := c.P.AS.Read(addr, size); f == nil {
		return b, true
	}
	switch c.stubPolicy("in", param) {
	case stubError:
		c.Fail(ErrorInvalidParameter, EFAULT)
		return nil, false
	case stubSilent:
		return make([]byte, size), true
	default:
		c.MemFault(&mem.Fault{Addr: addr, Kind: mem.FaultUnmapped})
		return nil, false
	}
}

// CopyOut writes a result structure through a caller-supplied output
// pointer at the system-call boundary, with the same architecture- and
// defect-dependent paths as CopyIn.  A silent stub outcome reports
// success without writing — the mechanism behind the Win9x family's
// Silent failure rates.
func (c *Call) CopyOut(param int, addr mem.Addr, data []byte) bool {
	if c.defectRaw(param, MechRawOut) {
		switch c.K.RawWrite(c.P.AS, addr, data) {
		case kern.RawCrashed:
			c.CrashedOut()
			return false
		case kern.RawFault:
			c.MemFault(&mem.Fault{Addr: addr, Write: true, Kind: mem.FaultUnmapped})
			return false
		}
		if c.K.Crashed() {
			c.CrashedOut()
			return false
		}
		return true
	}
	if c.Traits.ProbeKernel {
		if !c.K.Probe(c.P.AS, addr, uint32(len(data)), true) {
			if c.Traits.Unix {
				c.FailErrno(EFAULT)
			} else {
				c.Raise(ExcAccessViolation)
			}
			return false
		}
		_ = c.P.AS.Write(addr, data)
		return true
	}
	// Non-probing stub path: a write that succeeds against mapped memory
	// goes through, even when it lands in the shared system arena.
	if f := c.P.AS.Write(addr, data); f == nil {
		if c.Traits.SharedArena && mem.RegionOf(addr) == mem.RegionSystem {
			c.K.Corrupt(kern.CorruptionScratch, c.Name)
			if c.K.Crashed() {
				c.CrashedOut()
				return false
			}
		}
		return true
	}
	switch c.stubPolicy("out", param) {
	case stubError:
		c.Fail(ErrorInvalidParameter, EFAULT)
		return false
	case stubSilent:
		return true // reported as written; nothing was
	default:
		c.MemFault(&mem.Fault{Addr: addr, Write: true, Kind: mem.FaultUnmapped})
		return false
	}
}

// CopyInString reads a NUL-terminated path or name argument at the
// system-call boundary.
func (c *Call) CopyInString(param int, addr mem.Addr) (string, bool) {
	if c.Traits.ProbeKernel {
		if !c.K.Probe(c.P.AS, addr, 1, false) {
			if c.Traits.Unix {
				c.FailErrno(EFAULT)
			} else {
				c.Raise(ExcAccessViolation)
			}
			return "", false
		}
		s, f := c.P.AS.CString(addr)
		if f != nil {
			// The string ran off the end of its mapping mid-walk.
			if c.Traits.Unix {
				c.FailErrno(EFAULT)
				return "", false
			}
			c.Raise(ExcAccessViolation)
			return "", false
		}
		return s, true
	}
	if s, f := c.P.AS.CString(addr); f == nil {
		return s, true
	}
	switch c.stubPolicy("str", param) {
	case stubError:
		c.Fail(ErrorInvalidName, EFAULT)
		return "", false
	case stubSilent:
		return "", true
	default:
		c.MemFault(&mem.Fault{Addr: addr, Kind: mem.FaultUnmapped})
		return "", false
	}
}

// DivideByZero raises the personality's integer-divide trap.
func (c *Call) DivideByZero() {
	if c.Traits.Unix {
		c.Signal(SIGFPE)
		return
	}
	c.Raise(ExcIntDivideByZero)
}

// FailMaybeSilent reports a detected-invalid argument the way the OS
// family does: probing kernels return the error code; the Win9x family's
// stubs sometimes report success without doing the work — the paper's
// Silent failure mechanism for non-pointer arguments (e.g. CloseHandle
// returning TRUE for a garbage handle).
func (c *Call) FailMaybeSilent(param int, code uint32, silentRet int64) {
	if !c.Traits.ProbeKernel && c.stubPolicy("val", param) == stubSilent {
		c.Ret(silentRet)
		return
	}
	if c.Traits.Unix {
		c.FailErrno(code)
		return
	}
	c.FailWin(code)
}
