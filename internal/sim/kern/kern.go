// Package kern implements the simulated kernel beneath the Win32 and
// POSIX API surfaces: the object manager, per-process handle and
// descriptor tables, processes and threads, wait semantics, and — most
// importantly for the paper — the machine-crash model.
//
// Two architectural traits distinguish the simulated OS families:
//
//   - ProbePointers: Windows NT/2000 and Linux validate user-supplied
//     pointers at the system-call boundary, so a bad pointer yields an
//     error code (Linux, EFAULT) or an exception delivered to the calling
//     process (NT).  A probe failure can never damage the kernel.
//   - SharedSystemArena: Windows 95/98/98 SE/CE map system DLLs and kernel
//     structures into a shared, writable arena.  Kernel-mode code that
//     writes through an unprobed exceptional pointer — or user-mode code
//     that scribbles over the shared arena — corrupts the machine.  This
//     is the mechanism behind every Catastrophic failure in the paper's
//     Table 3.
//
// Corruption is modelled two ways, matching the paper's two observations:
// an immediate Crash (reproducible from a single test case, e.g. Listing
// 1's GetThreadContext(GetCurrentThread(), NULL)), and accumulated
// kernel-heap corruption that only crosses the crash threshold after
// repeated hits — reproducing the failures marked "*" in Table 3, which
// "could not be reproduced outside of the test harness".
package kern

import (
	"fmt"

	"ballista/internal/chaos"
	"ballista/internal/sim/fs"
	"ballista/internal/sim/mem"
	"ballista/internal/sim/net"
	"ballista/internal/sim/sorted"
)

// Arch captures the architectural traits of a simulated OS family.
type Arch struct {
	// Name is a short family label ("nt", "9x", "ce", "unix").
	Name string
	// ProbePointers: kernel validates user pointers at the syscall
	// boundary instead of dereferencing them raw.
	ProbePointers bool
	// SharedSystemArena: the system arena is shared and writable; wild
	// writes there (from kernel or user mode) corrupt the machine.
	SharedSystemArena bool
}

// Predefined architectures.
var (
	ArchNT   = Arch{Name: "nt", ProbePointers: true}
	ArchUnix = Arch{Name: "unix", ProbePointers: true}
	Arch9x   = Arch{Name: "9x", SharedSystemArena: true}
	ArchCE   = Arch{Name: "ce", SharedSystemArena: true}
)

// DefaultCorruptionLimit is the accumulated-corruption level at which the
// kernel crashes.  Harness-only ("*") defects add CorruptionStep per
// trigger, so the machine survives one trigger in isolation but crashes
// during a full 5000-case campaign.
const (
	DefaultCorruptionLimit = 100
	// CorruptionStep is the damage added by one harness-only defect hit.
	CorruptionStep = 60
	// CorruptionScratch is the damage from a stray user-mode write into a
	// non-critical shared page.  It is zero: such scribbles land on
	// benign shared pages in the model.  Only the Table 3 defect paths
	// hit load-bearing structures — otherwise every long 9x campaign
	// would eventually blue-screen on an arbitrary function, which the
	// paper observed only as rare, unattributable crashes.
	CorruptionScratch = 0
)

// Kernel is one simulated machine: it persists across the test cases of a
// campaign exactly as the paper's physical machines did (the OS is not
// reinstalled between test cases), while each test case gets a fresh
// process.
type Kernel struct {
	Arch Arch
	FS   *fs.FileSystem
	Net  *net.Network

	ticks uint64

	crashed     bool
	crashReason string

	corruption      int
	CorruptionLimit int

	nextPID int

	// Epoch counts reboots, letting long campaigns report how many times
	// the machine had to be restarted.
	Epoch int

	stats    Stats
	memStats mem.Stats

	// chaos, when non-nil, is this machine's fault-injection session.
	// It propagates to the filesystem and to every address space the
	// kernel creates, so all substrate fault points share one
	// deterministic decision stream per boot.
	chaos *chaos.Injector
}

// SetInjector attaches a chaos injector session to the machine, wiring
// it through to the filesystem and to address spaces created after the
// call.  A nil injector detaches injection everywhere.
func (k *Kernel) SetInjector(in *chaos.Injector) {
	k.chaos = in
	k.FS.SetInjector(in)
	if in == nil {
		k.Net.SetFaulter(nil)
	} else {
		k.Net.SetFaulter(netFaulter{in})
	}
}

// netFaulter adapts the chaos injector to the network substrate's
// Faulter slice (sim/net stays chaos-agnostic so the dependency arrow
// never points back at it).
type netFaulter struct{ in *chaos.Injector }

// FaultAt consumes one decision point on behalf of the network.
func (f netFaulter) FaultAt(op, site string) (string, uint64, bool) {
	flt, ok := f.in.Fault(chaos.Op(op), site)
	return flt.Kind, flt.StallTicks, ok
}

// Injector exposes the machine's chaos session (nil when disabled).
func (k *Kernel) Injector() *chaos.Injector { return k.chaos }

// EnterSyscall marks the entry of one simulated system call, named by
// the API function.  It is the kernel's scheduler fault point: an armed
// kern.stall rule advances the simulated clock (the call took
// anomalously long), and an armed kern.wedge rule blocks until the
// injector session is released — the wedged-call model the
// core.Runner's case-deadline watchdog converts into RawRestart.
func (k *Kernel) EnterSyscall(name string) {
	if k.chaos == nil {
		return
	}
	if t := k.chaos.Stall(name); t > 0 {
		k.ticks += t
	}
	k.chaos.Wedge(name)
}

// Stats holds cheap monotonic machine-activity counters.  They survive
// reboots (they describe the campaign, not one boot) and are plain
// integers because one goroutine drives each machine.
type Stats struct {
	// Processes counts processes created since boot.
	Processes uint64
	// HandlesOpened / HandlesClosed count handle-table insertions and
	// removals machine-wide; their difference is the live-handle gauge.
	HandlesOpened, HandlesClosed uint64
	// HandlesByKind counts handle-table insertions per object kind — the
	// object-manager shape that state-coverage fingerprints hash.
	HandlesByKind [KindCount]uint64
	// FDsOpened / FDsClosed count POSIX descriptor-table activity.
	FDsOpened, FDsClosed uint64
	// ProbeFaults counts syscall-boundary pointer probes that failed.
	ProbeFaults uint64
	// RawReads / RawWrites count unprobed kernel-mode accesses, and
	// RawFaults how many of them faulted.
	RawReads, RawWrites, RawFaults uint64
	// Corruptions counts Corrupt calls that added damage.
	Corruptions uint64
	// Crashes counts machine-down transitions; Reboots counts recoveries.
	Crashes, Reboots uint64
}

// LiveHandles returns open minus closed handle-table entries.
func (s *Stats) LiveHandles() uint64 {
	if s.HandlesClosed > s.HandlesOpened {
		return 0
	}
	return s.HandlesOpened - s.HandlesClosed
}

// LiveFDs returns open minus closed descriptors.
func (s *Stats) LiveFDs() uint64 {
	if s.FDsClosed > s.FDsOpened {
		return 0
	}
	return s.FDsOpened - s.FDsClosed
}

// Stats exposes the machine's activity counters.
func (k *Kernel) Stats() *Stats { return &k.stats }

// MemStats exposes the machine-wide memory counters shared by every
// address space this kernel created.
func (k *Kernel) MemStats() *mem.Stats { return &k.memStats }

// New creates a booted kernel with an empty filesystem.
func New(arch Arch) *Kernel {
	k := &Kernel{Arch: arch, CorruptionLimit: DefaultCorruptionLimit, nextPID: 1}
	k.FS = fs.New(k.Tick)
	k.Net = net.New(k.Tick)
	return k
}

// Tick advances and returns the simulated clock.
func (k *Kernel) Tick() uint64 {
	k.ticks++
	return k.ticks
}

// Ticks returns the simulated clock without advancing it.
func (k *Kernel) Ticks() uint64 { return k.ticks }

// AdvanceClock moves the simulated clock forward to t and never back.
// A fresh machine that installs a pre-built fixture tree uses it to
// reach the tick count that building the tree would have left.
func (k *Kernel) AdvanceClock(t uint64) {
	if t > k.ticks {
		k.ticks = t
	}
}

// Crashed reports whether the machine is down.
func (k *Kernel) Crashed() bool { return k.crashed }

// CrashReason describes why the machine went down.
func (k *Kernel) CrashReason() string { return k.crashReason }

// Crash takes the machine down immediately (the "Blue Screen").
func (k *Kernel) Crash(reason string) {
	if !k.crashed {
		k.crashed = true
		k.crashReason = reason
		k.stats.Crashes++
	}
}

// Corrupt adds damage to shared kernel state.  Crossing CorruptionLimit
// crashes the machine with a delayed-corruption reason.
func (k *Kernel) Corrupt(amount int, source string) {
	if k.crashed {
		return
	}
	if amount > 0 {
		k.stats.Corruptions++
	}
	k.corruption += amount
	if k.corruption > k.CorruptionLimit {
		k.Crash(fmt.Sprintf("accumulated kernel-heap corruption (last writer: %s)", source))
	}
}

// Corruption returns the current accumulated damage.
func (k *Kernel) Corruption() int { return k.corruption }

// Reboot restores the machine after a Catastrophic failure: corruption is
// cleared, the crash flag reset, and the epoch advanced.  The filesystem
// survives (disk), matching the paper's procedure of rebooting and
// resuming the campaign.
func (k *Kernel) Reboot() {
	k.crashed = false
	k.crashReason = ""
	k.corruption = 0
	k.Epoch++
	k.stats.Reboots++
}

// processBlock is everything a fresh process starts with, allocated as
// one object: the process and its address space, the main thread, their
// kernel objects, and the three console pipes with their handle objects
// and descriptors.
type processBlock struct {
	p       Process
	as      mem.AddressSpace
	thread  Thread
	pobj    Object
	tobj    Object
	console [3]Object
	pipes   [3]Pipe
	fds     [3]FD
}

// NewProcess creates a fresh process with its own address space, standard
// handles and an empty descriptor table: the process that fork and
// CreateProcess spawn.
func (k *Kernel) NewProcess() *Process {
	// An armed kern.spawn scarcity rule models a machine out of process
	// slots: creation is refused outright and callers (fork,
	// CreateProcess) must surface the documented scarcity error.
	if _, ok := k.chaos.Fault(chaos.OpKernSpawn, "spawn"); ok {
		return nil
	}
	return k.startProcess(new(processBlock), nil)
}

// Arena is the memory of a test harness's own process, reused by every
// process started in it: one process block and a free list of page
// backings.  A test harness starts each test case's process in its arena
// with Process, so after the first case a process costs no fresh memory.
// The zero value is an empty arena.
//
// Starting a process in the arena ends the previous one: its block is
// overwritten and the pages it wrote go back to the free list, cleared.
// Only that per-process memory is reused.  Kernel objects, files, pipes
// and sockets the previous process created, and processes it spawned,
// are separate objects the arena never touches, so they live on as the
// kernel holds them.  An arena, like the machine it runs on, is driven by
// one goroutine; a harness that may still hold the previous process (an
// abandoned call) must drop the arena instead of reusing it.
type Arena struct {
	b     processBlock
	pages mem.Pages
}

// Process starts a fresh process on k in the arena, as NewProcess does.
// It is the harness's own test process, not a spawn by the code under
// test, so it never consults the kern.spawn scarcity rule.
func (a *Arena) Process(k *Kernel) *Process { return k.startProcess(&a.b, &a.pages) }

// startProcess initializes b as a fresh process on k whose address space
// draws its backings from pages (nil: fresh ones).  Every field of b is
// assigned, so a block that held an earlier process starts exactly as a
// new one does.
func (k *Kernel) startProcess(b *processBlock, pages *mem.Pages) *Process {
	k.stats.Processes++
	p := &b.p
	// Zeroing in place and storing the fields one by one spares the
	// temporary a composite literal of the whole Process is built in.
	*p = Process{}
	p.K = k
	p.PID = k.nextPID
	p.AS = &b.as
	p.Thread = &b.thread
	p.object = &b.pobj
	p.Cwd = "/"
	p.envRows[0] = sorted.Entry[string, string]{Key: "HOME", Val: "/home/ballista"}
	p.envRows[1] = sorted.Entry[string, string]{Key: "PATH", Val: "/bin"}
	p.envRows[2] = sorted.Entry[string, string]{Key: "TEMP", Val: "/tmp"}
	p.env = p.envRows[:3]
	mem.Init(p.AS, pages)
	p.AS.SetStats(&k.memStats)
	p.AS.SetInjector(k.chaos)
	k.nextPID++
	b.thread = Thread{Proc: p, TID: p.PID*4 + 1, State: ThreadRunning, object: &b.tobj}
	b.pobj = Object{Kind: KProcess, Proc: p}
	b.tobj = Object{Kind: KThread, Thread: &b.thread}

	// Standard console plumbing: handle-table entries for the Win32
	// surface, descriptors 0/1/2 for the POSIX surface.  The input
	// console is a pipe with a writer that never writes, so a blocking
	// read can never complete.  The tables are empty, so each row is
	// appended to its inline array without a search.
	p.handles = p.handleRows[:0]
	p.nextH = 4
	p.fds = p.fdRows[:0]
	for i := range b.pipes {
		b.pipes[i] = Pipe{ReadersOpen: 1, WritersOpen: 1, Capacity: 4096, Input: i == 0}
		o := &b.console[i]
		*o = Object{}
		o.Kind, o.Pipe = KPipe, &b.pipes[i]
		p.SetStd(i, p.AddHandle(o))
	}
	for i := range b.fds {
		b.fds[i] = FD{Pipe: &b.pipes[i], Read: i == 0, Write: i != 0}
		p.AddFDAt(i, &b.fds[i])
	}
	return p
}

// Probe checks that [addr, addr+size) is fully mapped user memory with the
// needed access.  It is what ProbePointers kernels do at the syscall
// boundary.
func (k *Kernel) Probe(as *mem.AddressSpace, addr mem.Addr, size uint32, write bool) bool {
	ok := k.probe(as, addr, size, write)
	if !ok {
		k.stats.ProbeFaults++
	}
	return ok
}

func (k *Kernel) probe(as *mem.AddressSpace, addr mem.Addr, size uint32, write bool) bool {
	if addr == 0 {
		return false
	}
	if mem.RegionOf(addr) != mem.RegionUser {
		return false
	}
	need := mem.ProtRead
	if write {
		need = mem.ProtWrite
	}
	return as.Mapped(addr, size, need)
}

// RawResult reports how an unprobed kernel-mode memory access ended.
type RawResult int

// Raw access outcomes.
const (
	// RawOK: the access succeeded against ordinary user memory.
	RawOK RawResult = iota
	// RawFault: the access faulted and the fault was delivered to the
	// process (an exception / signal — an Abort-class outcome).
	RawFault
	// RawCrashed: the access corrupted shared machine state and the
	// kernel is now down (a Catastrophic outcome).
	RawCrashed
)

// RawWrite performs a kernel-mode write through an unprobed pointer —
// the defect mechanism of the paper's Catastrophic failures.  On a
// SharedSystemArena machine a write through a pointer into the null page,
// the kernel range, an unmapped address, or a read-only page lands on
// shared machine state and crashes the OS.  On a probing architecture the
// same bad pointer merely faults (kernel code catches it), which is why
// NT/2000/Linux exhibited no Catastrophic failures.
func (k *Kernel) RawWrite(as *mem.AddressSpace, addr mem.Addr, data []byte) RawResult {
	k.stats.RawWrites++
	region := mem.RegionOf(addr)
	if f := as.Write(addr, data); f != nil {
		k.stats.RawFaults++
		if k.Arch.SharedSystemArena {
			k.Crash(fmt.Sprintf("kernel-mode write through invalid pointer %#08x (%s arena)", uint32(addr), region))
			return RawCrashed
		}
		return RawFault
	}
	// The write succeeded.  Writes landing inside the mapped shared arena
	// scribble over shared structures.
	if region == mem.RegionSystem && k.Arch.SharedSystemArena {
		k.Corrupt(CorruptionStep, fmt.Sprintf("kernel write into shared arena at %#08x", uint32(addr)))
		if k.crashed {
			return RawCrashed
		}
	}
	return RawOK
}

// RawRead performs a kernel-mode read through an unprobed pointer.
// Reads cannot corrupt state, but on a SharedSystemArena machine a
// kernel-mode read of an unmapped address is itself an unhandled ring-0
// fault and brings the machine down.
func (k *Kernel) RawRead(as *mem.AddressSpace, addr mem.Addr, size uint32) ([]byte, RawResult) {
	k.stats.RawReads++
	b, f := as.Read(addr, size)
	if f == nil {
		return b, RawOK
	}
	k.stats.RawFaults++
	if k.Arch.SharedSystemArena {
		k.Crash(fmt.Sprintf("kernel-mode read through invalid pointer %#08x (%s arena)", uint32(addr), mem.RegionOf(addr)))
		return nil, RawCrashed
	}
	return nil, RawFault
}

// Sleep advances the simulated clock by ms milliseconds (a finite sleep
// or timed wait completes instantly in simulated time).  An armed
// kern.stall rule stretches the sleep — the scheduler was busy.
func (k *Kernel) Sleep(ms uint32) {
	k.ticks += uint64(ms)
	if k.chaos != nil {
		k.ticks += k.chaos.Stall("sleep")
	}
}
