package kern

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ballista/internal/chaos"
)

// refProc is the reference model for a process's handle, descriptor and
// environment tables: Go maps, with the semantics the tables had before
// they became sorted slices.  The differential test below drives it and
// a Process with the same operations and requires identical results.
type refProc struct {
	handles map[Handle]*Object
	nextH   Handle
	fds     map[int]*FD
	env     map[string]string
	stats   Stats
	inj     *chaos.Injector
	proc    *Object
	thread  *Object
}

func (r *refProc) AddHandle(o *Object) Handle {
	if _, ok := r.inj.Fault(chaos.OpKernHandle, "handle"); ok {
		return 0
	}
	h := r.nextH
	r.nextH += 4
	o.refs++
	r.handles[h] = o
	r.stats.HandlesOpened++
	if o.Kind >= 0 && o.Kind < KindCount {
		r.stats.HandlesByKind[o.Kind]++
	}
	return h
}

func (r *refProc) Handle(h Handle) *Object {
	switch h {
	case PseudoProcess:
		return r.proc
	case PseudoThread:
		return r.thread
	}
	o, ok := r.handles[h]
	if !ok || o.closed {
		return nil
	}
	return o
}

func (r *refProc) CloseHandle(h Handle) bool {
	o, ok := r.handles[h]
	if !ok || o.closed {
		return false
	}
	delete(r.handles, h)
	r.stats.HandlesClosed++
	o.refs--
	if o.refs <= 0 {
		o.closed = true
		if o.Pipe != nil {
			o.Pipe.ReadersOpen = 0
			o.Pipe.WritersOpen = 0
		}
	}
	return true
}

func (r *refProc) AddFD(f *FD) int {
	if _, ok := r.inj.Fault(chaos.OpKernFD, "fd"); ok {
		return -1
	}
	fd := 0
	for {
		if _, ok := r.fds[fd]; !ok {
			break
		}
		fd++
	}
	r.fds[fd] = f
	r.stats.FDsOpened++
	return fd
}

func (r *refProc) AddFDAt(fd int, f *FD) {
	if _, ok := r.fds[fd]; ok {
		r.stats.FDsClosed++
	}
	r.fds[fd] = f
	r.stats.FDsOpened++
}

func (r *refProc) CloseFD(fd int) bool {
	f, ok := r.fds[fd]
	if !ok {
		return false
	}
	delete(r.fds, fd)
	r.stats.FDsClosed++
	if f.Pipe != nil {
		if f.Read {
			f.Pipe.ReadersOpen--
		}
		if f.Write {
			f.Pipe.WritersOpen--
		}
	}
	return true
}

func (r *refProc) Environ() []string {
	var out []string
	for k, v := range r.env {
		out = append(out, k+"="+v)
	}
	slices.Sort(out)
	return out
}

// tableRig holds a process and its model side by side.  Every object and
// descriptor exists twice, one copy per side, at the same index of objs
// and refObjs (fds and refFDs), so the side effects of a close land on
// each side's own copy and can be compared.
type tableRig struct {
	t       *testing.T
	rng     *rand.Rand
	k       *Kernel
	p       *Process
	ref     *refProc
	objs    []*Object
	refObjs []*Object
	fds     []*FD
	refFDs  []*FD
	hs      []Handle // handle values handed out, for closes and lookups
}

func newTableRig(t *testing.T, seed int64, plan *chaos.Plan) *tableRig {
	k := New(ArchNT)
	p := k.NewProcess()
	g := &tableRig{t: t, rng: rand.New(rand.NewSource(seed)), k: k, p: p}
	g.ref = &refProc{
		handles: make(map[Handle]*Object),
		nextH:   4,
		fds:     make(map[int]*FD),
		env:     map[string]string{"PATH": "/bin", "TEMP": "/tmp", "HOME": "/home/ballista"},
		stats:   k.stats,
		proc:    p.Object(),
		thread:  p.Thread.Object(),
	}
	// The model starts with copies of the console objects and
	// descriptors NewProcess made.
	for h := Handle(4); h <= 12; h += 4 {
		o := p.Handle(h)
		cp := *o
		pipe := *o.Pipe
		cp.Pipe = &pipe
		g.ref.handles[h] = &cp
		g.ref.nextH = h + 4
		g.objs = append(g.objs, o)
		g.refObjs = append(g.refObjs, &cp)
		g.hs = append(g.hs, h)
		fd := int(h/4) - 1
		f := p.FD(fd)
		rf := *f
		rf.Pipe = &pipe
		g.ref.fds[fd] = &rf
		g.fds = append(g.fds, f)
		g.refFDs = append(g.refFDs, &rf)
	}
	// Fresh objects of several kinds, some sharing a pipe with a
	// descriptor, so closes move pipe counters on both sides.
	for i := 0; i < 6; i++ {
		kind := []ObjectKind{KEvent, KMutex, KPipe}[i%3]
		o := &Object{Kind: kind}
		ro := &Object{Kind: kind}
		if kind == KPipe {
			o.Pipe = &Pipe{ReadersOpen: 1, WritersOpen: 1}
			ro.Pipe = &Pipe{ReadersOpen: 1, WritersOpen: 1}
		}
		g.objs = append(g.objs, o)
		g.refObjs = append(g.refObjs, ro)
		pipe, rpipe := &Pipe{ReadersOpen: 2, WritersOpen: 2}, &Pipe{ReadersOpen: 2, WritersOpen: 2}
		g.fds = append(g.fds, &FD{Pipe: pipe, Read: i%2 == 0, Write: i%2 == 1})
		g.refFDs = append(g.refFDs, &FD{Pipe: rpipe, Read: i%2 == 0, Write: i%2 == 1})
	}
	if plan != nil {
		k.SetInjector(plan.NewInjector(nil))
		g.ref.inj = plan.NewInjector(nil)
	}
	return g
}

// objID names an object by its pool index on either side; -1 is nil and
// -2 / -3 are the process's own process and thread objects.
func (g *tableRig) objID(o *Object, ref bool) int {
	pool := g.objs
	if ref {
		pool = g.refObjs
	}
	switch {
	case o == nil:
		return -1
	case o == g.p.Object() && !ref, o == g.ref.proc && ref:
		return -2
	case o == g.p.Thread.Object() && !ref, o == g.ref.thread && ref:
		return -3
	}
	if i := slices.Index(pool, o); i >= 0 {
		return i
	}
	return -4
}

func (g *tableRig) fdID(f *FD, ref bool) int {
	if f == nil {
		return -1
	}
	pool := g.fds
	if ref {
		pool = g.refFDs
	}
	return slices.Index(pool, f)
}

// handleArg picks a handle value: one handed out, or a value that never
// names a table entry.
func (g *tableRig) handleArg() Handle {
	if len(g.hs) > 0 && g.rng.Intn(3) != 0 {
		return g.hs[g.rng.Intn(len(g.hs))]
	}
	return []Handle{0, 5, 0x7FFF0000, PseudoProcess, PseudoThread, 0xFFFFFFFF, g.ref.nextH}[g.rng.Intn(7)]
}

// fdArg picks a descriptor number: mostly small, so slots collide, and
// sometimes anywhere dup2 accepts.
func (g *tableRig) fdArg() int {
	if g.rng.Intn(8) == 0 {
		return g.rng.Intn(65536)
	}
	return g.rng.Intn(12)
}

var envNames = []string{"HOME", "PATH", "TEMP", "A", "Z", "path", "PATHX", ""}

func (g *tableRig) step(i int) {
	var desc string
	fail := func(format string, args ...any) {
		g.t.Helper()
		g.t.Fatalf("op %d %s: "+format, append([]any{i, desc}, args...)...)
	}
	p, ref := g.p, g.ref
	switch op := g.rng.Intn(10); op {
	case 0:
		j := g.rng.Intn(len(g.objs))
		desc = fmt.Sprintf("AddHandle(obj %d)", j)
		h1, h2 := p.AddHandle(g.objs[j]), ref.AddHandle(g.refObjs[j])
		if h1 != h2 {
			fail("got %#x, want %#x", h1, h2)
		}
		if h1 != 0 {
			g.hs = append(g.hs, h1)
		}
	case 1, 2:
		h := g.handleArg()
		desc = fmt.Sprintf("Handle(%#x)", h)
		if o1, o2 := g.objID(p.Handle(h), false), g.objID(ref.Handle(h), true); o1 != o2 {
			fail("got object %d, want %d", o1, o2)
		}
	case 3:
		h := g.handleArg()
		desc = fmt.Sprintf("CloseHandle(%#x)", h)
		if c1, c2 := p.CloseHandle(h), ref.CloseHandle(h); c1 != c2 {
			fail("got %v, want %v", c1, c2)
		}
	case 4:
		j := g.rng.Intn(len(g.fds))
		desc = fmt.Sprintf("AddFD(fd %d)", j)
		if fd1, fd2 := p.AddFD(g.fds[j]), ref.AddFD(g.refFDs[j]); fd1 != fd2 {
			fail("got %d, want %d", fd1, fd2)
		}
	case 5:
		j, fd := g.rng.Intn(len(g.fds)), g.fdArg()
		desc = fmt.Sprintf("AddFDAt(%d, fd %d)", fd, j)
		p.AddFDAt(fd, g.fds[j])
		ref.AddFDAt(fd, g.refFDs[j])
	case 6:
		fd := g.fdArg()
		desc = fmt.Sprintf("CloseFD(%d)", fd)
		if c1, c2 := p.CloseFD(fd), ref.CloseFD(fd); c1 != c2 {
			fail("got %v, want %v", c1, c2)
		}
	case 7:
		name, val := envNames[g.rng.Intn(len(envNames))], fmt.Sprint(g.rng.Intn(100))
		desc = fmt.Sprintf("Setenv(%q, %q)", name, val)
		p.Setenv(name, val)
		ref.env[name] = val
	case 8:
		name := envNames[g.rng.Intn(len(envNames))]
		desc = fmt.Sprintf("Unsetenv(%q)", name)
		p.Unsetenv(name)
		delete(ref.env, name)
	default:
		name := envNames[g.rng.Intn(len(envNames))]
		desc = fmt.Sprintf("Getenv(%q)", name)
		v1, ok1 := p.Getenv(name)
		v2, ok2 := ref.env[name]
		if v1 != v2 || ok1 != ok2 {
			fail("got %q %v, want %q %v", v1, ok1, v2, ok2)
		}
	}

	if p.HandleCount() != len(ref.handles) || p.FDCount() != len(ref.fds) {
		fail("%d handles and %d fds, want %d and %d", p.HandleCount(), p.FDCount(), len(ref.handles), len(ref.fds))
	}
	if g.k.stats != ref.stats {
		fail("stats %+v, want %+v", g.k.stats, ref.stats)
	}
	for h, o := range ref.handles {
		if got, ok := p.handles.Get(h); !ok || g.objID(got, false) != g.objID(o, true) {
			fail("handle %#x holds object %d, want %d", h, g.objID(got, false), g.objID(o, true))
		}
	}
	for fd, f := range ref.fds {
		if got := g.fdID(p.FD(fd), false); got != g.fdID(f, true) {
			fail("fd %d holds %d, want %d", fd, got, g.fdID(f, true))
		}
	}
	for j, o := range g.objs {
		ro := g.refObjs[j]
		if o.refs != ro.refs || o.closed != ro.closed || (o.Pipe == nil) != (ro.Pipe == nil) ||
			o.Pipe != nil && (o.Pipe.ReadersOpen != ro.Pipe.ReadersOpen || o.Pipe.WritersOpen != ro.Pipe.WritersOpen) {
			fail("object %d is %+v, want %+v", j, *o, *ro)
		}
	}
	for j, f := range g.fds {
		if rf := g.refFDs[j]; f.Pipe.ReadersOpen != rf.Pipe.ReadersOpen || f.Pipe.WritersOpen != rf.Pipe.WritersOpen {
			fail("fd %d's pipe is %+v, want %+v", j, *f.Pipe, *rf.Pipe)
		}
	}
	if e1, e2 := p.Environ(), ref.Environ(); !slices.Equal(e1, e2) {
		fail("environment %q, want %q", e1, e2)
	}
}

// TestTablesMatchMapModel drives a process's sorted handle, descriptor
// and environment tables and a map-based reference model through the
// same random operations, plain and under kern.handle and kern.fd
// scarcity rules, and requires identical results, counts, object and
// pipe side effects and Stats after every operation.
func TestTablesMatchMapModel(t *testing.T) {
	ops := 3000
	if testing.Short() {
		ops = 500
	}
	for _, tc := range []struct {
		name string
		plan *chaos.Plan
	}{
		{name: "plain"},
		{name: "chaos", plan: &chaos.Plan{Seed: 5, Rules: []chaos.Rule{
			{Op: chaos.OpKernHandle, RatePerMille: 300},
			{Op: chaos.OpKernFD, RatePerMille: 300},
		}}},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				g := newTableRig(t, seed, tc.plan)
				for i := 0; i < ops; i++ {
					g.step(i)
				}
			})
		}
	}
}

// TestNewProcessAllocs: a fresh process, with its address space, main
// thread, console pipes and tables, is one allocation, and a process
// started again in a warm arena is none.
func TestNewProcessAllocs(t *testing.T) {
	k := New(ArchNT)
	if allocs := testing.AllocsPerRun(100, func() { k.NewProcess() }); allocs != 1 {
		t.Errorf("NewProcess allocates %.1f times, want 1", allocs)
	}
	var a Arena
	a.Process(k)
	if allocs := testing.AllocsPerRun(100, func() { a.Process(k) }); allocs != 0 {
		t.Errorf("a recycled process allocates %.1f times, want 0", allocs)
	}
}
