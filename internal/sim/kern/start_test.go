package kern

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"ballista/internal/chaos"
	"ballista/internal/sim/mem"
	"ballista/internal/sim/sorted"
)

// refSet is Table.Set as it was before the append fast path: every key
// is searched for and inserted where it belongs.
func refSet[K cmp.Ordered, V any](t *sorted.Table[K, V], k K, v V) bool {
	i, ok := t.Search(k)
	if ok {
		(*t)[i].Val = v
		return true
	}
	*t = slices.Insert(*t, i, sorted.Entry[K, V]{Key: k, Val: v})
	return false
}

// refAddHandle and refAddFDAt are AddHandle and AddFDAt with refSet, the
// path every console row took before Set appended.
func refAddHandle(p *Process, o *Object) Handle {
	if _, ok := p.K.chaos.Fault(chaos.OpKernHandle, "handle"); ok {
		return 0
	}
	h := p.nextH
	p.nextH += 4
	o.refs++
	refSet(&p.handles, h, o)
	p.K.stats.HandlesOpened++
	if o.Kind >= 0 && o.Kind < KindCount {
		p.K.stats.HandlesByKind[o.Kind]++
	}
	return h
}

func refAddFDAt(p *Process, fd int, f *FD) {
	if refSet(&p.fds, fd, f) {
		p.K.stats.FDsClosed++
	}
	p.K.stats.FDsOpened++
}

// refStart is startProcess before it zeroed the process in place and Set
// appended: the process assigned from one composite literal, and each
// console handle and descriptor searched for and inserted.
func refStart(k *Kernel, b *processBlock, pages *mem.Pages) *Process {
	k.stats.Processes++
	p := &b.p
	*p = Process{
		K:       k,
		PID:     k.nextPID,
		AS:      &b.as,
		Thread:  &b.thread,
		object:  &b.pobj,
		Cwd:     "/",
		nextH:   4,
		envRows: [4]sorted.Entry[string, string]{{Key: "HOME", Val: "/home/ballista"}, {Key: "PATH", Val: "/bin"}, {Key: "TEMP", Val: "/tmp"}},
	}
	p.handles = p.handleRows[:0]
	p.fds = p.fdRows[:0]
	p.env = p.envRows[:3]
	mem.Init(p.AS, pages)
	p.AS.SetStats(&k.memStats)
	p.AS.SetInjector(k.chaos)
	k.nextPID++
	b.thread = Thread{Proc: p, TID: p.PID*4 + 1, State: ThreadRunning, object: &b.tobj}
	b.pobj = Object{Kind: KProcess, Proc: p}
	b.tobj = Object{Kind: KThread, Thread: &b.thread}
	for i := range b.pipes {
		b.pipes[i] = Pipe{ReadersOpen: 1, WritersOpen: 1, Capacity: 4096, Input: i == 0}
		b.console[i] = Object{Kind: KPipe, Pipe: &b.pipes[i]}
		p.SetStd(i, refAddHandle(p, &b.console[i]))
	}
	for i := range b.fds {
		b.fds[i] = FD{Pipe: &b.pipes[i], Read: i == 0, Write: i != 0}
		refAddFDAt(p, i, &b.fds[i])
	}
	return p
}

// blockOf returns the process block p starts: the process is the
// block's first field.
func blockOf(p *Process) *processBlock { return (*processBlock)(unsafe.Pointer(p)) }

// objectID names o by its place in b, or by its kind if it is not b's.
func objectID(b *processBlock, o *Object) string {
	for i := range b.console {
		if o == &b.console[i] {
			return fmt.Sprintf("console %d (%d refs)", i, o.refs)
		}
	}
	return fmt.Sprintf("kind %d (%d refs)", o.Kind, o.refs)
}

// fdID names f by its place in b, or by its access if it is not b's.
func fdID(b *processBlock, f *FD) string {
	for i := range b.fds {
		if f == &b.fds[i] && f.Pipe == &b.pipes[i] {
			return fmt.Sprintf("fd %d (r=%v w=%v)", i, f.Read, f.Write)
		}
	}
	return fmt.Sprintf("other (r=%v w=%v)", f.Read, f.Write)
}

// sameStart checks that got, started by startProcess, holds the rows,
// standard handles, handle numbers and reference counts that want,
// started by refStart, does, naming objects by their place in the block.
func sameStart(t *testing.T, got, want *Process) {
	t.Helper()
	gb, wb := blockOf(got), blockOf(want)
	if len(got.handles) != len(want.handles) {
		t.Fatalf("%d handle rows, want %d", len(got.handles), len(want.handles))
	}
	for i, w := range want.handles {
		g := got.handles[i]
		if g.Key != w.Key || objectID(gb, g.Val) != objectID(wb, w.Val) {
			t.Errorf("handle row %d is %#x -> %s, want %#x -> %s", i, g.Key, objectID(gb, g.Val), w.Key, objectID(wb, w.Val))
		}
	}
	for i := range wb.console {
		if gb.console[i].refs != wb.console[i].refs {
			t.Errorf("console %d has %d refs, want %d", i, gb.console[i].refs, wb.console[i].refs)
		}
	}
	if len(got.fds) != len(want.fds) {
		t.Fatalf("%d descriptor rows, want %d", len(got.fds), len(want.fds))
	}
	for i, w := range want.fds {
		if g := got.fds[i]; g.Key != w.Key || fdID(gb, g.Val) != fdID(wb, w.Val) {
			t.Errorf("descriptor row %d is %d -> %s, want %d -> %s", i, g.Key, fdID(gb, g.Val), w.Key, fdID(wb, w.Val))
		}
	}
	if got.std != want.std || got.nextH != want.nextH {
		t.Errorf("std %#x and next handle %#x, want %#x and %#x", got.std, got.nextH, want.std, want.nextH)
	}
	if !slices.Equal(got.Environ(), want.Environ()) || got.Cwd != want.Cwd || got.PID != want.PID {
		t.Errorf("pid %d, cwd %q, environment %q; want %d, %q, %q",
			got.PID, got.Cwd, got.Environ(), want.PID, want.Cwd, want.Environ())
	}
}

// TestStartProcessMatchesAddPaths: NewProcess and Arena.Process start
// exactly the process that the old start made, inserting each console
// handle and descriptor after a search, with the same
// counters and the same kern.handle decisions, with no injector and
// under kern.handle rules that always fire or fire after one or two
// decisions.  The arena's process is dirtied between starts, so each
// start also clears what the last case left.
func TestStartProcessMatchesAddPaths(t *testing.T) {
	for _, tc := range []struct {
		name string
		plan *chaos.Plan
	}{
		{name: "nil"},
		{name: "always", plan: &chaos.Plan{Seed: 1, Rules: []chaos.Rule{{Op: chaos.OpKernHandle, RatePerMille: 1000}}}},
		{name: "after1", plan: &chaos.Plan{Seed: 1, Rules: []chaos.Rule{{Op: chaos.OpKernHandle, RatePerMille: 1000, After: 1}}}},
		{name: "after2", plan: &chaos.Plan{Seed: 1, Rules: []chaos.Rule{{Op: chaos.OpKernHandle, RatePerMille: 1000, After: 2}}}},
		{name: "rate", plan: &chaos.Plan{Seed: 9, Rules: []chaos.Rule{{Op: chaos.OpKernHandle, RatePerMille: 500}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k, ref := New(ArchNT), New(ArchNT)
			var gotInj, wantInj *chaos.Stats
			if tc.plan != nil {
				gotInj, wantInj = chaos.NewStats(), chaos.NewStats()
				k.SetInjector(tc.plan.NewInjector(gotInj))
				ref.SetInjector(tc.plan.NewInjector(wantInj))
			}
			check := func(step string, got, want *Process) {
				t.Helper()
				sameStart(t, got, want)
				if *k.Stats() != *ref.Stats() {
					t.Errorf("%s: stats %+v, want %+v", step, *k.Stats(), *ref.Stats())
				}
				if gotInj != nil {
					g, w := gotInj.Snapshot().Injected, wantInj.Snapshot().Injected
					if len(g) != len(w) || g[chaos.OpKernHandle] != w[chaos.OpKernHandle] {
						t.Errorf("%s: injected %v, want %v", step, g, w)
					}
				}
			}
			var a, refArena Arena
			for i := 0; i < 4; i++ {
				got, want := a.Process(k), refStart(ref, &refArena.b, &refArena.pages)
				check(fmt.Sprintf("arena start %d", i), got, want)
				dirty(t, got)
				dirty(t, want)
				check(fmt.Sprintf("arena case %d", i), got, want)

				got = k.NewProcess()
				if _, ok := ref.chaos.Fault(chaos.OpKernSpawn, "spawn"); ok {
					t.Fatal("kern.spawn fired with no rule for it")
				}
				want = refStart(ref, new(processBlock), nil)
				check(fmt.Sprintf("spawn %d", i), got, want)
			}
		})
	}
}

// TestArenaSize pins the arena at or below 2,040 bytes.  The arena holds
// pointers, and Go puts an 8-byte malloc header in front of a pointer-
// bearing object over 512 bytes, so 2,040 bytes is the most that still
// fits the 2,048-byte size class; one byte more moves every runner's
// arena to the 2,304-byte class.
func TestArenaSize(t *testing.T) {
	if got := unsafe.Sizeof(Arena{}); got > 2040 {
		t.Errorf("unsafe.Sizeof(Arena{}) = %d, want at most 2040", got)
	}
}
