package kern

import (
	"slices"

	"ballista/internal/chaos"
	"ballista/internal/sim/fs"
	"ballista/internal/sim/mem"
	"ballista/internal/sim/net"
	"ballista/internal/sim/sorted"
)

// Handle is a Win32-style kernel handle value.
type Handle uint32

// Pseudo-handles, matching the Win32 constants: GetCurrentProcess()
// returns (HANDLE)-1 — the same bit pattern as INVALID_HANDLE_VALUE —
// and GetCurrentThread() returns (HANDLE)-2.
const (
	InvalidHandle Handle = 0xFFFFFFFF
	PseudoProcess Handle = 0xFFFFFFFF
	PseudoThread  Handle = 0xFFFFFFFE
)

// Standard handle slots (match STD_INPUT_HANDLE etc. as unsigned).
const (
	StdInput  = uint32(0xFFFFFFF6) // (DWORD)-10
	StdOutput = uint32(0xFFFFFFF5) // (DWORD)-11
	StdError  = uint32(0xFFFFFFF4) // (DWORD)-12
)

// FD is one POSIX descriptor table entry.
type FD struct {
	File  *fs.OpenFile
	Pipe  *Pipe
	Sock  *net.Socket
	Read  bool
	Write bool
	// CloseOnExec mirrors FD_CLOEXEC for fcntl.
	CloseOnExec bool
	// Flags mirrors O_* status flags for fcntl F_GETFL/F_SETFL.
	Flags int
}

// Process is one simulated process: an address space, a handle table, a
// descriptor table, an environment, and a main thread.  Each Ballista
// test case runs in a fresh Process, as in the paper.
type Process struct {
	K   *Kernel
	PID int
	AS  *mem.AddressSpace

	Thread *Thread
	object *Object

	// The handle, descriptor and environment tables are kept sorted by
	// key.  Each starts in the inline rows below, which hold a fresh
	// process's entries, so NewProcess allocates none of them.
	handles sorted.Table[Handle, *Object]
	nextH   Handle
	fds     sorted.Table[int, *FD]
	env     sorted.Table[string, string]

	handleRows [4]sorted.Entry[Handle, *Object]
	fdRows     [4]sorted.Entry[int, *FD]
	envRows    [4]sorted.Entry[string, string]

	Cwd string

	LastError uint32
	Errno     int32

	// Umask for POSIX file creation.
	Umask uint16

	// TLS slots for TlsAlloc/TlsSetValue; bit i of TLSUsed is set while
	// slot i is allocated.
	TLS      [64]uint32
	TLSUsed  uint64
	ErrMode  uint32
	Priority int

	std [3]Handle

	Exited   bool
	ExitCode uint32
}

// Object returns the kernel object wrapping this process.
func (p *Process) Object() *Object { return p.object }

// AddHandle inserts an object into the handle table and returns its new
// handle.  Under an armed kern.handle scarcity rule the table is full:
// the insert is refused and the null handle returned, leaving the table
// and counters untouched.
func (p *Process) AddHandle(o *Object) Handle {
	if _, ok := p.K.chaos.Fault(chaos.OpKernHandle, "handle"); ok {
		return 0
	}
	h := p.nextH
	p.nextH += 4
	o.refs++
	p.handles.Set(h, o)
	p.K.stats.HandlesOpened++
	if o.Kind >= 0 && o.Kind < KindCount {
		p.K.stats.HandlesByKind[o.Kind]++
	}
	return h
}

// Handle resolves a handle value.  Pseudo-handles resolve to the current
// process/thread objects.  A closed or unknown handle returns nil.
func (p *Process) Handle(h Handle) *Object {
	switch h {
	case PseudoProcess:
		return p.object
	case PseudoThread:
		return p.Thread.object
	}
	o, ok := p.handles.Get(h)
	if !ok || o.closed {
		return nil
	}
	return o
}

// CloseHandle removes a handle-table entry, destroying the object when
// the last reference drops.  It reports whether the handle was live.
func (p *Process) CloseHandle(h Handle) bool {
	o, ok := p.handles.Get(h)
	if !ok || o.closed {
		return false
	}
	p.handles.Remove(h)
	p.K.stats.HandlesClosed++
	o.refs--
	if o.refs <= 0 {
		o.closed = true
		if o.File != nil && !o.File.Closed() {
			_ = o.File.Close()
		}
		if o.Pipe != nil {
			o.Pipe.ReadersOpen = 0
			o.Pipe.WritersOpen = 0
		}
		o.Sock.Close()
	}
	return true
}

// HandleCount reports live handle-table entries (used by leak checks).
func (p *Process) HandleCount() int { return len(p.handles) }

// SetStd assigns a standard handle slot (0=in, 1=out, 2=err).
func (p *Process) SetStd(slot int, h Handle) {
	if slot >= 0 && slot < 3 {
		p.std[slot] = h
	}
}

// Std returns a standard handle slot value.
func (p *Process) Std(slot int) Handle {
	if slot < 0 || slot >= 3 {
		return InvalidHandle
	}
	return p.std[slot]
}

// AddFD inserts a descriptor at the lowest free slot >= 0.  Under an
// armed kern.fd scarcity rule the descriptor table is full and -1 is
// returned.  AddFDAt (dup2 semantics) stays infallible: replacing an
// occupied slot allocates nothing.
func (p *Process) AddFD(f *FD) int {
	if _, ok := p.K.chaos.Fault(chaos.OpKernFD, "fd"); ok {
		return -1
	}
	// The lowest free slot is the first gap in the sorted non-negative
	// keys.
	fd := 0
	i, _ := p.fds.Search(0)
	for ; i < len(p.fds) && p.fds[i].Key == fd; i++ {
		fd++
	}
	p.fds = slices.Insert(p.fds, i, sorted.Entry[int, *FD]{Key: fd, Val: f})
	p.K.stats.FDsOpened++
	return fd
}

// AddFDAt inserts a descriptor at an exact slot, closing any previous
// occupant (dup2 semantics).
func (p *Process) AddFDAt(fd int, f *FD) {
	if p.fds.Set(fd, f) {
		p.K.stats.FDsClosed++
	}
	p.K.stats.FDsOpened++
}

// FD resolves a descriptor; nil if closed/unknown.
func (p *Process) FD(fd int) *FD {
	f, _ := p.fds.Get(fd)
	return f
}

// CloseFD removes a descriptor, reporting whether it was live.
func (p *Process) CloseFD(fd int) bool {
	f, ok := p.fds.Remove(fd)
	if !ok {
		return false
	}
	p.K.stats.FDsClosed++
	if f.File != nil && !f.File.Closed() {
		_ = f.File.Close()
	}
	if f.Pipe != nil {
		if f.Read {
			f.Pipe.ReadersOpen--
		}
		if f.Write {
			f.Pipe.WritersOpen--
		}
	}
	f.Sock.Close()
	return true
}

// FDCount reports live descriptors (used by leak checks).
func (p *Process) FDCount() int { return len(p.fds) }

// Getenv returns the value of an environment variable and whether it is
// set.
func (p *Process) Getenv(name string) (string, bool) { return p.env.Get(name) }

// Setenv sets an environment variable.
func (p *Process) Setenv(name, val string) { p.env.Set(name, val) }

// Unsetenv removes an environment variable.
func (p *Process) Unsetenv(name string) { p.env.Remove(name) }

// Environ returns the environment as "name=value" strings sorted by name,
// the order Windows keeps an environment block in.
func (p *Process) Environ() []string {
	out := make([]string, len(p.env))
	for i, e := range p.env {
		out[i] = e.Key + "=" + e.Val
	}
	return out
}

// WaitResult reports how a wait ended.
type WaitResult int

// Wait outcomes.
const (
	WaitSignaled WaitResult = iota
	WaitTimeout
	// WaitForever means the wait can never complete: the caller has hung
	// (a Restart failure in CRASH terms).
	WaitForever
)

// InfiniteTimeout is the Win32 INFINITE constant.
const InfiniteTimeout = uint32(0xFFFFFFFF)

// Wait performs a single-object wait.  With no other runnable thread in
// the simulation, an unsignaled object plus an infinite timeout can never
// complete.
func (p *Process) Wait(o *Object, timeoutMS uint32) WaitResult {
	if o.Signaled || o.Kind == KMutex && o.OwnerTID == 0 {
		p.consumeWait(o)
		return WaitSignaled
	}
	if o.Kind == KSemaphore && o.Count > 0 {
		o.Count--
		if o.Count == 0 {
			o.Signaled = false
		}
		return WaitSignaled
	}
	if timeoutMS == InfiniteTimeout {
		return WaitForever
	}
	p.K.ticks += uint64(timeoutMS)
	return WaitTimeout
}

func (p *Process) consumeWait(o *Object) {
	switch o.Kind {
	case KEvent:
		if !o.ManualReset {
			o.Signaled = false
		}
	case KMutex:
		o.OwnerTID = p.Thread.TID
		o.Count++
		o.Signaled = false
	case KSemaphore:
		o.Count--
		if o.Count <= 0 {
			o.Signaled = false
		}
	}
}
