// Package api defines the calling convention shared by the simulated
// Win32, POSIX and C-library surfaces: typed argument words, the call
// frame, simulated structured exceptions and signals, error reporting
// (GetLastError / errno), and the policy-aware memory-access helpers that
// implement each OS family's validation architecture.
//
// Implementations never panic and never return Go errors to callers;
// every abnormal outcome is recorded on the call frame's Outcome, which
// the Ballista harness classifies on the CRASH scale.
package api

import (
	"fmt"

	"ballista/internal/sim/kern"
	"ballista/internal/sim/mem"
)

// ArgKind tags how an argument word was constructed.  At the machine
// level every argument is just bits — a handle can arrive where a pointer
// was expected, exactly as in the paper's tests — so all getters are
// reinterpreting accessors.
type ArgKind int

// Argument kinds.
const (
	ArgInt ArgKind = iota
	ArgPtr
	ArgHandle
	ArgFloat
)

// Arg is one argument word.
type Arg struct {
	Kind ArgKind
	I    int64
	F    float64
}

// Int constructs an integer argument.
func Int(v int64) Arg { return Arg{Kind: ArgInt, I: v} }

// Ptr constructs a pointer argument.
func Ptr(a mem.Addr) Arg { return Arg{Kind: ArgPtr, I: int64(uint32(a))} }

// Handle constructs a handle argument.
func HandleArg(h kern.Handle) Arg { return Arg{Kind: ArgHandle, I: int64(uint32(h))} }

// Float constructs a floating-point argument.
func Float(v float64) Arg { return Arg{Kind: ArgFloat, F: v} }

// Traits captures the per-OS behaviour knobs the API implementations
// consult.  It is assembled by the osprofile package.
type Traits struct {
	// OSName salts deterministic per-function policy decisions so sibling
	// variants (95 vs 98 vs 98 SE) differ slightly, as observed.
	OSName string
	// Unix selects errno-style error reporting and POSIX signals; false
	// selects GetLastError and Win32 structured exceptions.
	Unix bool
	// ProbeKernel: system calls probe user pointers (NT/2000/Linux).
	ProbeKernel bool
	// SharedArena: wild user-mode writes into the mapped system arena
	// succeed and corrupt shared state (Win9x/CE) instead of faulting.
	SharedArena bool
	// StubErrorBP / StubSilentBP partition, in basis points of a
	// deterministic per-site hash, how a non-probing kernel's user-mode
	// stubs respond to an invalid pointer: return an error code, silently
	// report success, or (the remainder) pass it through and take an
	// access violation.  These reproduce the Win9x Silent-failure rates.
	StubErrorBP, StubSilentBP uint32
	// WrongCodeBP is the per-function probability (basis points) that an
	// error return carries an incorrect GetLastError code — the CRASH
	// scale's Hindering failures, which the paper observed on the 9x
	// family but could only classify manually.
	WrongCodeBP uint32

	// C-library personality.
	CLibValidatesStreams bool // msvcrt checks FILE magic; glibc dereferences
	CLibValidatesHeap    bool // msvcrt validates free/realloc arguments
	StrWordReads         bool // msvcrt string intrinsics read a word past the NUL
	CTypeBoundsChecked   bool // Windows bounds-checks ctype table lookups
	StdinBlocks          bool // reading the console blocks (glibc pipe model)
	MathSEH              bool // msvcrt raises SEH on FP domain errors
	StdioRawKernel       bool // CE CRT passes stream buffers to kernel unprobed
	WidePreferred        bool // CE: UNICODE variants are the default surface
}

// DefectMech is the mechanism of a per-function robustness defect from
// the paper's Table 3.
type DefectMech int

// Defect mechanisms.
const (
	// MechRawOut: the kernel writes an output structure through the
	// parameter without probing (immediate Catastrophic on bad pointers
	// for SharedArena machines).
	MechRawOut DefectMech = iota
	// MechRawIn: the kernel reads a structure through the parameter
	// without probing.
	MechRawIn
	// MechCorrupt: the trigger corrupts kernel state by Amount; small
	// amounts only crash after accumulation across a campaign — the
	// paper's harness-only "*" failures.
	MechCorrupt
)

// DefectSpec describes one Table 3 defect as bound to the current call.
type DefectSpec struct {
	Mech DefectMech
	// Param is the argument index the raw mechanisms apply to.
	Param int
	// Amount is the corruption added per MechCorrupt trigger.
	Amount int
	// WideOnly restricts the defect to the UNICODE variant (CE _tcsncpy).
	WideOnly bool
}

// Outcome records everything observable about one call execution.  Its
// fields are ordered to pack into 56 bytes.
type Outcome struct {
	// Completed: the call returned to its caller.
	Completed bool
	// Faulted says Fault is the user-mode memory fault that MemFault
	// delivered as the call's exception or signal.
	Faulted bool
	Fault   mem.Fault
	// Err is errno (Unix) or the GetLastError value; ErrReported says the
	// call signalled an error to its caller.
	Err  uint32
	Ret  int64
	RetF float64
	// Exception is a Win32 SEH code or (IsSignal) a POSIX signal number
	// that was not handled — an Abort in CRASH terms.
	Exception   uint32
	ErrReported bool
	IsSignal    bool
	// Hung: the call can never return (Restart in CRASH terms).
	Hung bool
	// Crashed: the machine went down during the call (Catastrophic).
	Crashed     bool
	CrashReason string
}

// Failed reports whether any abnormal outcome occurred (exception, hang,
// or crash).
func (o *Outcome) Failed() bool { return o.Exception != 0 || o.Hung || o.Crashed }

// String summarizes the outcome for logs.
func (o *Outcome) String() string {
	switch {
	case o.Crashed:
		return "CATASTROPHIC: " + o.CrashReason
	case o.Hung:
		return "hang"
	case o.Exception != 0 && o.IsSignal:
		return fmt.Sprintf("signal %d", o.Exception)
	case o.Exception != 0:
		return fmt.Sprintf("exception %#08x", o.Exception)
	case o.ErrReported:
		return fmt.Sprintf("error return (err=%d, ret=%d)", o.Err, o.Ret)
	default:
		return fmt.Sprintf("ok (ret=%d)", o.Ret)
	}
}

// Call is one in-flight API call: the machine, the calling process, the
// argument words, the OS traits, any Table 3 defect bound to this
// function, and the accumulating outcome.
type Call struct {
	K      *kern.Kernel
	P      *kern.Process
	Name   string
	Args   []Arg
	Traits Traits
	Def    *DefectSpec
	// Wide marks the UNICODE variant of a paired C function.
	Wide bool

	Out Outcome

	done bool
}

// Done reports whether the call has reached a terminal outcome and the
// implementation should unwind.
func (c *Call) Done() bool { return c.done }

// Arg returns argument i, or a zero word when the caller passed fewer
// arguments (reading past the end of a C argument list yields garbage;
// zero is the deterministic stand-in).
func (c *Call) Arg(i int) Arg {
	if i < 0 || i >= len(c.Args) {
		return Arg{}
	}
	return c.Args[i]
}

// Int returns argument i as a signed 32-bit integer value.
func (c *Call) Int(i int) int32 { return int32(uint32(c.Arg(i).I)) }

// Long returns argument i as int64 (two words on a real 32-bit ABI; one
// here).
func (c *Call) Long(i int) int64 { return c.Arg(i).I }

// U32 returns argument i as an unsigned 32-bit value.
func (c *Call) U32(i int) uint32 { return uint32(c.Arg(i).I) }

// PtrArg returns argument i reinterpreted as an address.
func (c *Call) PtrArg(i int) mem.Addr { return mem.Addr(uint32(c.Arg(i).I)) }

// HandleAt returns argument i reinterpreted as a handle.
func (c *Call) HandleAt(i int) kern.Handle { return kern.Handle(uint32(c.Arg(i).I)) }

// FloatArg returns argument i as a float64.  An integer word passed where
// a double was expected reinterprets its bits' numeric value, which is
// how Ballista's type-based tests hit math functions.
func (c *Call) FloatArg(i int) float64 {
	a := c.Arg(i)
	if a.Kind == ArgFloat {
		return a.F
	}
	return float64(a.I)
}

// --- terminal outcomes ---

// Ret completes the call with a return value and no error indication.
func (c *Call) Ret(v int64) {
	if c.done {
		return
	}
	c.Out.Completed = true
	c.Out.Ret = v
	c.done = true
}

// RetF completes the call with a floating-point result.
func (c *Call) RetF(v float64) {
	if c.done {
		return
	}
	c.Out.Completed = true
	c.Out.RetF = v
	c.done = true
}

// FailWin completes the call Win32-style: returns FALSE/0 and sets
// GetLastError.  On OS variants with WrongCodeBP set, a deterministic
// per-function fraction of error sites misreport the code (Hindering).
func (c *Call) FailWin(code uint32) {
	if c.done {
		return
	}
	code = c.maybeWrongCode(code)
	c.P.LastError = code
	c.Out.Completed = true
	c.Out.Ret = 0
	c.Out.Err = code
	c.Out.ErrReported = true
	c.done = true
}

// FailWinRet is FailWin with an explicit return value (e.g.
// INVALID_HANDLE_VALUE or HFILE_ERROR).
func (c *Call) FailWinRet(ret int64, code uint32) {
	if c.done {
		return
	}
	code = c.maybeWrongCode(code)
	c.P.LastError = code
	c.Out.Completed = true
	c.Out.Ret = ret
	c.Out.Err = code
	c.Out.ErrReported = true
	c.done = true
}

// FailErrno completes the call POSIX-style: returns -1 and sets errno.
func (c *Call) FailErrno(errno uint32) {
	if c.done {
		return
	}
	c.P.Errno = int32(errno)
	c.Out.Completed = true
	c.Out.Ret = -1
	c.Out.Err = errno
	c.Out.ErrReported = true
	c.done = true
}

// FailErrnoRet is FailErrno with an explicit return value (e.g. NULL or
// EOF).
func (c *Call) FailErrnoRet(ret int64, errno uint32) {
	if c.done {
		return
	}
	c.P.Errno = int32(errno)
	c.Out.Completed = true
	c.Out.Ret = ret
	c.Out.Err = errno
	c.Out.ErrReported = true
	c.done = true
}

// Fail reports an error in the current OS personality's native style.
func (c *Call) Fail(winCode, errnoCode uint32) {
	if c.Traits.Unix {
		c.FailErrno(errnoCode)
	} else {
		c.FailWin(winCode)
	}
}

// Raise terminates the call with an unhandled Win32 structured exception.
func (c *Call) Raise(code uint32) {
	if c.done {
		return
	}
	c.Out.Exception = code
	c.Out.IsSignal = false
	c.done = true
}

// Signal terminates the call with an unhandled POSIX signal.
func (c *Call) Signal(sig uint32) {
	if c.done {
		return
	}
	c.Out.Exception = sig
	c.Out.IsSignal = true
	c.done = true
}

// Hang marks the call as never returning.
func (c *Call) Hang() {
	if c.done {
		return
	}
	c.Out.Hung = true
	c.done = true
}

// CrashedOut marks the call as having taken the machine down.
func (c *Call) CrashedOut() {
	if c.done {
		return
	}
	c.Out.Crashed = true
	c.Out.CrashReason = c.K.CrashReason()
	c.done = true
}

// MemFault converts a user-mode memory fault into the personality's
// abort mechanism: SIGSEGV (SIGBUS for kernel-range touches) on Unix,
// EXCEPTION_ACCESS_VIOLATION on Windows.
func (c *Call) MemFault(f *mem.Fault) {
	if !c.done {
		c.Out.Fault, c.Out.Faulted = *f, true
	}
	if c.Traits.Unix {
		if f.Kind == mem.FaultKernelRange {
			c.Signal(SIGBUS)
			return
		}
		c.Signal(SIGSEGV)
		return
	}
	c.Raise(ExcAccessViolation)
}
