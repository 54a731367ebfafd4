package winapi

import (
	"ballista/internal/api"
	"ballista/internal/sim/kern"
)

// stackHuge is the CE CreateThread stack-size crash trigger threshold.
const stackHuge = 0x7F000000

func registerProcess(m map[string]Impl) {
	m["CreateProcess"] = createProcess
	m["OpenProcess"] = func(c *api.Call) {
		pid := int(c.Int(2))
		if pid == c.P.PID {
			h := c.P.AddHandle(c.P.Object())
			if !scarceHandle(c, h, 0, api.ErrorNoSystemResources) {
				c.Ret(int64(uint32(h)))
			}
			return
		}
		c.FailWinRet(0, api.ErrorInvalidParameter)
	}
	m["TerminateProcess"] = func(c *api.Call) {
		o := object(c, 0, kern.KProcess, winTrue)
		if o == nil {
			return
		}
		o.Proc.Exited = true
		o.Proc.ExitCode = c.U32(1)
		o.Signaled = true
		c.Ret(winTrue)
	}
	m["GetExitCodeProcess"] = func(c *api.Call) {
		o := object(c, 0, kern.KProcess, winTrue)
		if o == nil {
			return
		}
		code := uint32(api.ErrorStillActive)
		if o.Proc != nil && o.Proc.Exited {
			code = o.Proc.ExitCode
		}
		if !c.CopyOut(1, c.PtrArg(1), u32b(code)) {
			return
		}
		c.Ret(winTrue)
	}
	m["CreateThread"] = createThread
	m["TerminateThread"] = func(c *api.Call) {
		o := threadObject(c, 0, winTrue)
		if o == nil {
			return
		}
		o.Thread.State = kern.ThreadExited
		o.Thread.ExitCode = c.U32(1)
		o.Signaled = true
		c.Ret(winTrue)
	}
	m["GetExitCodeThread"] = func(c *api.Call) {
		o := threadObject(c, 0, winTrue)
		if o == nil {
			return
		}
		code := uint32(api.ErrorStillActive)
		if o.Thread.State == kern.ThreadExited {
			code = o.Thread.ExitCode
		}
		if !c.CopyOut(1, c.PtrArg(1), u32b(code)) {
			return
		}
		c.Ret(winTrue)
	}
	m["SuspendThread"] = func(c *api.Call) {
		o := threadObject(c, 0, 0)
		if o == nil {
			return
		}
		if o.Thread.State == kern.ThreadExited {
			c.FailWinRet(int64(int32(-1)), api.ErrorAccessDenied)
			return
		}
		prev := o.Thread.Suspend
		o.Thread.Suspend++
		o.Thread.State = kern.ThreadSuspended
		c.Ret(int64(prev))
	}
	m["ResumeThread"] = func(c *api.Call) {
		o := threadObject(c, 0, 0)
		if o == nil {
			return
		}
		prev := o.Thread.Suspend
		if o.Thread.Suspend > 0 {
			o.Thread.Suspend--
		}
		if o.Thread.Suspend == 0 && o.Thread.State == kern.ThreadSuspended {
			o.Thread.State = kern.ThreadRunning
		}
		c.Ret(int64(prev))
	}
	m["SetThreadPriority"] = func(c *api.Call) {
		o := threadObject(c, 0, winTrue)
		if o == nil {
			return
		}
		p := int(c.Int(1))
		if !validPriority(p) {
			c.FailWin(api.ErrorInvalidParameter)
			return
		}
		o.Thread.Priority = p
		c.Ret(winTrue)
	}
	m["GetThreadPriority"] = func(c *api.Call) {
		o := threadObject(c, 0, 0)
		if o == nil {
			return
		}
		c.Ret(int64(o.Thread.Priority))
	}
	m["WaitForSingleObject"] = func(c *api.Call) {
		o := waitable(c, 0)
		if o == nil {
			return
		}
		doWait(c, []*kern.Object{o}, false, c.U32(1))
	}
	m["WaitForMultipleObjects"] = func(c *api.Call) { multiWait(c, 1, 3, false) }
	m["WaitForMultipleObjectsEx"] = func(c *api.Call) { multiWait(c, 1, 3, false) }
	m["MsgWaitForMultipleObjects"] = func(c *api.Call) {
		if c.U32(4)&^uint32(0x4FF) != 0 {
			c.FailWinRet(int64(int32(-1)), api.ErrorInvalidParameter)
			return
		}
		// Table 3: the 9x/CE kernels read the handle array without
		// probing (MechRawIn inside CopyIn) — Listing 1's sibling crash.
		multiWait(c, 1, 3, true)
	}
	m["MsgWaitForMultipleObjectsEx"] = func(c *api.Call) {
		if c.U32(4)&^uint32(0x3) != 0 {
			c.FailWinRet(int64(int32(-1)), api.ErrorInvalidParameter)
			return
		}
		// Table 3 ("*"): corrupts kernel state when handed a bad array or
		// a wild count; only a campaign's accumulation crashes.
		count := c.U32(0)
		arr := c.PtrArg(1)
		bad := count > 64 || (count > 0 && !c.K.Probe(c.P.AS, arr, 4*minU32(count, 64), false))
		if c.DefectCorrupt(bad) {
			return
		}
		multiWait(c, 1, 2, false)
	}
	m["SignalObjectAndWait"] = func(c *api.Call) {
		sig := waitable(c, 0)
		if sig == nil {
			return
		}
		switch sig.Kind {
		case kern.KEvent:
			sig.Signaled = true
		case kern.KMutex:
			sig.OwnerTID = 0
			sig.Count = 0
			sig.Signaled = true
		case kern.KSemaphore:
			sig.Count++
			sig.Signaled = true
		default:
			c.FailWinRet(int64(int32(-1)), api.ErrorInvalidHandle)
			return
		}
		o := waitable(c, 1)
		if o == nil {
			return
		}
		doWait(c, []*kern.Object{o}, false, c.U32(2))
	}
	m["Sleep"] = func(c *api.Call) {
		t := c.U32(0)
		if t == kern.InfiniteTimeout {
			c.Hang()
			return
		}
		c.K.Sleep(t)
		c.Ret(0)
	}
	m["SleepEx"] = func(c *api.Call) {
		t := c.U32(0)
		if t == kern.InfiniteTimeout {
			c.Hang()
			return
		}
		c.K.Sleep(t)
		c.Ret(0)
	}
	m["CreateEvent"] = func(c *api.Call) {
		if !secAttrs(c, 0) {
			return
		}
		if !optName(c, 3) {
			return
		}
		h := c.P.AddHandle(&kern.Object{
			Kind:        kern.KEvent,
			ManualReset: c.Int(1) != 0,
			Signaled:    c.Int(2) != 0,
		})
		if scarceHandle(c, h, 0, api.ErrorNoSystemResources) {
			return
		}
		c.Ret(int64(uint32(h)))
	}
	m["SetEvent"] = eventOp(func(o *kern.Object) { o.Signaled = true })
	m["ResetEvent"] = eventOp(func(o *kern.Object) { o.Signaled = false })
	m["PulseEvent"] = eventOp(func(o *kern.Object) { o.Signaled = false })
	m["OpenEvent"] = openNamed
	m["OpenMutex"] = openNamed
	m["OpenSemaphore"] = openNamed
	m["CreateMutex"] = func(c *api.Call) {
		if !secAttrs(c, 0) {
			return
		}
		if !optName(c, 2) {
			return
		}
		o := &kern.Object{Kind: kern.KMutex}
		if c.Int(1) != 0 {
			o.OwnerTID = c.P.Thread.TID
			o.Count = 1
		} else {
			o.Signaled = true
		}
		h := c.P.AddHandle(o)
		if scarceHandle(c, h, 0, api.ErrorNoSystemResources) {
			return
		}
		c.Ret(int64(uint32(h)))
	}
	m["ReleaseMutex"] = func(c *api.Call) {
		o := object(c, 0, kern.KMutex, winTrue)
		if o == nil {
			return
		}
		if o.OwnerTID != c.P.Thread.TID {
			c.FailWin(api.ErrorNotOwner)
			return
		}
		o.Count--
		if o.Count <= 0 {
			o.OwnerTID = 0
			o.Signaled = true
		}
		c.Ret(winTrue)
	}
	m["CreateSemaphore"] = func(c *api.Call) {
		if !secAttrs(c, 0) {
			return
		}
		initial, maxCount := int64(c.Int(1)), int64(c.Int(2))
		if maxCount <= 0 || initial < 0 || initial > maxCount {
			c.FailWinRet(0, api.ErrorInvalidParameter)
			return
		}
		if !optName(c, 3) {
			return
		}
		h := c.P.AddHandle(&kern.Object{
			Kind: kern.KSemaphore, Count: initial, MaxCount: maxCount,
			Signaled: initial > 0,
		})
		if scarceHandle(c, h, 0, api.ErrorNoSystemResources) {
			return
		}
		c.Ret(int64(uint32(h)))
	}
	m["ReleaseSemaphore"] = func(c *api.Call) {
		o := object(c, 0, kern.KSemaphore, winTrue)
		if o == nil {
			return
		}
		n := int64(c.Int(1))
		if n <= 0 {
			c.FailWin(api.ErrorInvalidParameter)
			return
		}
		if o.Count+n > o.MaxCount {
			c.FailWin(api.ErrorTooManyPosts)
			return
		}
		if p := c.PtrArg(2); p != 0 {
			if !c.CopyOut(2, p, u32b(uint32(o.Count))) {
				return
			}
		}
		o.Count += n
		o.Signaled = true
		c.Ret(winTrue)
	}
	m["ReadProcessMemory"] = readProcessMemory
	m["WriteProcessMemory"] = writeProcessMemory
	m["GetProcessTimes"] = func(c *api.Call) {
		o := object(c, 0, kern.KProcess, winTrue)
		if o == nil {
			return
		}
		for i := 1; i <= 4; i++ {
			if !c.CopyOut(i, c.PtrArg(i), filetimeFrom(c.K.Ticks())) {
				return
			}
		}
		c.Ret(winTrue)
	}
}

func threadObject(c *api.Call, param int, silentRet int64) *kern.Object {
	h := c.HandleAt(param)
	if h == kern.PseudoThread {
		return c.P.Thread.Object()
	}
	return object(c, param, kern.KThread, silentRet)
}

func validPriority(p int) bool {
	switch p {
	case -15, -2, -1, 0, 1, 2, 15:
		return true
	default:
		return false
	}
}

// waitable resolves a handle for the wait family.
func waitable(c *api.Call, param int) *kern.Object {
	h := c.HandleAt(param)
	if h == kern.PseudoProcess {
		return c.P.Object()
	}
	if h == kern.PseudoThread {
		return c.P.Thread.Object()
	}
	o := c.P.Handle(h)
	if o == nil {
		c.FailWinRet(int64(int32(-1)), api.ErrorInvalidHandle)
		return nil
	}
	return o
}

// doWait performs the actual wait-any semantics.  Files count as always
// signaled, matching Win32.
func doWait(c *api.Call, objs []*kern.Object, waitAll bool, timeout uint32) {
	satisfied := 0
	for i, o := range objs {
		ready := o.Signaled || o.Kind == kern.KFile || o.Kind == kern.KPipe ||
			(o.Kind == kern.KMutex && o.OwnerTID == 0) ||
			(o.Kind == kern.KSemaphore && o.Count > 0)
		if ready {
			if !waitAll {
				c.P.Wait(o, 0)
				c.Ret(int64(api.WaitObject0) + int64(i))
				return
			}
			satisfied++
		}
	}
	if waitAll && satisfied == len(objs) {
		for _, o := range objs {
			c.P.Wait(o, 0)
		}
		c.Ret(int64(api.WaitObject0))
		return
	}
	if timeout == kern.InfiniteTimeout {
		c.Hang()
		return
	}
	c.K.Sleep(timeout)
	c.Ret(int64(api.WaitTimeoutCode))
}

// multiWait implements the WaitForMultipleObjects family.  waitAllParam
// < 0 means wait-any only (the MsgWait Ex variant has no fWaitAll).
func multiWait(c *api.Call, arrParam, timeoutParam int, _ bool) {
	count := c.U32(0)
	if count == 0 || count > 64 {
		c.FailWinRet(int64(int32(-1)), api.ErrorInvalidParameter)
		return
	}
	b, ok := c.CopyIn(arrParam, c.PtrArg(arrParam), 4*count)
	if !ok {
		return
	}
	objs := make([]*kern.Object, count)
	for i := range objs {
		h := kern.Handle(le32(b[4*i:]))
		o := c.P.Handle(h)
		if o == nil {
			c.FailWinRet(int64(int32(-1)), api.ErrorInvalidHandle)
			return
		}
		objs[i] = o
	}
	waitAll := false
	if arrParam+1 < timeoutParam {
		waitAll = c.Int(arrParam+1) != 0
	}
	doWait(c, objs, waitAll, c.U32(timeoutParam))
}

func eventOp(f func(o *kern.Object)) Impl {
	return func(c *api.Call) {
		o := object(c, 0, kern.KEvent, winTrue)
		if o == nil {
			return
		}
		f(o)
		c.Ret(winTrue)
	}
}

func openNamed(c *api.Call) {
	name := c.PtrArg(2)
	if name == 0 {
		c.FailWinRet(0, api.ErrorInvalidParameter)
		return
	}
	s, ok := c.CopyInString(2, name)
	if !ok {
		return
	}
	if s == "" {
		c.FailWinRet(0, api.ErrorInvalidParameter)
		return
	}
	// No named objects exist in the fresh per-case namespace.
	c.FailWinRet(0, api.ErrorFileNotFound)
}

func optName(c *api.Call, param int) bool {
	if c.PtrArg(param) == 0 {
		return true
	}
	_, ok := c.CopyInString(param, c.PtrArg(param))
	return ok
}

func createProcess(c *api.Call) {
	app := c.PtrArg(0)
	cmdline := c.PtrArg(1)
	if app == 0 && cmdline == 0 {
		c.FailWin(api.ErrorInvalidParameter)
		return
	}
	var exe string
	if app != 0 {
		s, ok := pathArg(c, 0)
		if !ok {
			return
		}
		exe = s
	} else {
		s, ok := c.CopyInString(1, cmdline)
		if !ok {
			return
		}
		if i := indexByte(s, ' '); i >= 0 {
			s = s[:i]
		}
		exe = s
	}
	if !secAttrs(c, 2) || !secAttrs(c, 3) {
		return
	}
	if c.U32(5)&^uint32(0xFFFF) != 0 {
		c.FailWin(api.ErrorInvalidParameter)
		return
	}
	if dir := c.PtrArg(7); dir != 0 {
		d, ok := c.CopyInString(7, dir)
		if !ok {
			return
		}
		if n, err := c.K.FS.Stat(d); err != nil || !n.IsDir() {
			c.FailWin(api.ErrorPathNotFound)
			return
		}
	}
	si := c.PtrArg(8)
	if si == 0 {
		c.FailWin(api.ErrorInvalidParameter)
		return
	}
	b, ok := c.CopyIn(8, si, 68)
	if !ok {
		return
	}
	if le32(b) != 68 {
		c.FailWin(api.ErrorInvalidParameter)
		return
	}
	n, err := c.K.FS.Stat(exe)
	if err != nil || n.IsDir() {
		c.FailWin(api.ErrorFileNotFound)
		return
	}
	if n.Mode()&0o1 == 0 {
		c.FailWin(api.ErrorAccessDenied)
		return
	}
	child := c.K.NewProcess()
	if child == nil {
		// Out of process slots (kern.spawn scarcity): every family reports
		// the documented code — there is no child to lie about.
		c.FailWin(api.ErrorNotEnoughMemory)
		return
	}
	hp := c.P.AddHandle(child.Object())
	ht := c.P.AddHandle(child.Thread.Object())
	if (hp == 0 || ht == 0) && c.Traits.ProbeKernel {
		// NT backs out any partial insert rather than leak a child handle.
		if hp != 0 {
			c.P.CloseHandle(hp)
		}
		if ht != 0 {
			c.P.CloseHandle(ht)
		}
		c.FailWin(api.ErrorNoSystemResources)
		return
	}
	pi := make([]byte, 16)
	copy(pi[0:], u32b(uint32(hp)))
	copy(pi[4:], u32b(uint32(ht)))
	copy(pi[8:], u32b(uint32(child.PID)))
	copy(pi[12:], u32b(uint32(child.Thread.TID)))
	if !c.CopyOut(9, c.PtrArg(9), pi) {
		return
	}
	c.Ret(winTrue)
}

func createThread(c *api.Call) {
	sa := c.PtrArg(0)
	stack := c.U32(1)
	// Table 3 ("*", Windows 98 SE and CE): corrupts kernel state on a bad
	// attributes pointer or a wild stack reservation.
	bad := (sa != 0 && !c.K.Probe(c.P.AS, sa, 12, false)) || stack >= stackHuge
	if c.DefectCorrupt(bad) {
		return
	}
	if !secAttrs(c, 0) {
		return
	}
	if c.U32(4)&^uint32(0xC) != 0 {
		c.FailWinRet(0, api.ErrorInvalidParameter)
		return
	}
	if stack >= stackHuge {
		c.FailWinRet(0, api.ErrorNotEnoughMemory)
		return
	}
	// A garbage start routine is accepted: the new thread would fault on
	// its own, not in the caller.
	state := kern.ThreadRunning
	if c.U32(4)&0x4 != 0 { // CREATE_SUSPENDED
		state = kern.ThreadSuspended
	}
	t := &kern.Thread{Proc: c.P, TID: c.P.Thread.TID + 2, State: state}
	h := c.P.AddHandle(&kern.Object{Kind: kern.KThread, Thread: t})
	if scarceHandle(c, h, 0, api.ErrorNoSystemResources) {
		return
	}
	if tid := c.PtrArg(5); tid != 0 {
		if !c.CopyOut(5, tid, u32b(uint32(t.TID))) {
			return
		}
	}
	c.Ret(int64(uint32(h)))
}

func readProcessMemory(c *api.Call) {
	src := c.PtrArg(1)
	n := c.U32(3)
	// Table 3 ("*", Windows 95 and CE): kernel-side copy corrupts shared
	// state on wild source ranges.
	if c.DefectCorrupt(n >= stackHuge || !c.K.Probe(c.P.AS, src, minU32(maxU32(n, 1), 4096), false)) {
		return
	}
	if object(c, 0, kern.KProcess, winTrue) == nil {
		return
	}
	want := minU32(n, ioClamp)
	if want == 0 {
		c.Ret(winTrue)
		return
	}
	if !c.K.Probe(c.P.AS, src, want, false) {
		c.FailWin(api.ErrorNoaccess)
		return
	}
	data, _ := c.P.AS.Read(src, want)
	if !c.CopyOut(2, c.PtrArg(2), data) {
		return
	}
	if lp := c.PtrArg(4); lp != 0 {
		if !c.CopyOut(4, lp, u32b(want)) {
			return
		}
	}
	c.Ret(winTrue)
}

func writeProcessMemory(c *api.Call) {
	if object(c, 0, kern.KProcess, winTrue) == nil {
		return
	}
	n := minU32(c.U32(3), ioClamp)
	if n == 0 {
		c.Ret(winTrue)
		return
	}
	data, ok := c.CopyIn(2, c.PtrArg(2), n)
	if !ok {
		return
	}
	if !c.K.Probe(c.P.AS, c.PtrArg(1), n, true) {
		c.FailWin(api.ErrorNoaccess)
		return
	}
	_ = c.P.AS.Write(c.PtrArg(1), data)
	if lp := c.PtrArg(4); lp != 0 {
		if !c.CopyOut(4, lp, u32b(n)) {
			return
		}
	}
	c.Ret(winTrue)
}

func minU32(a, b uint32) uint32 {
	if a < b {
		return a
	}
	return b
}

func indexByte(s string, ch byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == ch {
			return i
		}
	}
	return -1
}
