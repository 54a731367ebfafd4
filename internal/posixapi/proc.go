package posixapi

import (
	"ballista/internal/api"
	"ballista/internal/sim/mem"
)

// Signal-range and exec helpers.
const maxSignal = 31 // classic Linux range before RT signals

func registerProc(m map[string]Impl) {
	m["fork"] = func(c *api.Call) {
		child := c.K.NewProcess()
		if child == nil {
			c.FailErrno(api.EAGAIN)
			return
		}
		c.Ret(int64(child.PID))
	}
	m["vfork"] = func(c *api.Call) {
		child := c.K.NewProcess()
		if child == nil {
			c.FailErrno(api.EAGAIN)
			return
		}
		c.Ret(int64(child.PID))
	}
	m["execv"] = execImpl(false)
	m["execve"] = execImpl(true)
	m["execvp"] = execImpl(false)
	m["waitpid"] = func(c *api.Call) {
		if c.U32(2)&^uint32(0x3) != 0 {
			c.FailErrno(api.EINVAL)
			return
		}
		waitCommon(c, int(c.Int(0)), 1, c.U32(2))
	}
	m["wait"] = func(c *api.Call) {
		waitCommon(c, -1, 0, 0)
	}
	m["wait4"] = func(c *api.Call) {
		if c.U32(2)&^uint32(0x3) != 0 {
			c.FailErrno(api.EINVAL)
			return
		}
		if ru := c.PtrArg(3); ru != 0 {
			if !c.CopyOut(3, ru, make([]byte, 72)) {
				return
			}
		}
		waitCommon(c, int(c.Int(0)), 1, c.U32(2))
	}
	m["kill"] = func(c *api.Call) {
		sig := int(c.Int(1))
		if sig < 0 || sig > maxSignal {
			c.FailErrno(api.EINVAL)
			return
		}
		pid := int(c.Int(0))
		switch {
		case pid == c.P.PID:
			if sig == 0 {
				c.Ret(0) // existence probe
				return
			}
			// Delivering a fatal signal to yourself terminates the task.
			c.Signal(uint32(sig))
		case pid == -1, pid == 0:
			c.Ret(0) // broadcast to the (empty) group
		case pid > 0:
			c.FailErrno(api.ESRCH)
		default:
			c.FailErrno(api.ESRCH)
		}
	}
	m["killpg"] = func(c *api.Call) {
		sig := int(c.Int(1))
		if sig < 0 || sig > maxSignal {
			c.FailErrno(api.EINVAL)
			return
		}
		pgrp := int(c.Int(0))
		if pgrp < 0 {
			c.FailErrno(api.EINVAL)
			return
		}
		if pgrp == 0 || pgrp == c.P.PID {
			if sig == 0 {
				c.Ret(0)
				return
			}
			c.Signal(uint32(sig))
			return
		}
		c.FailErrno(api.ESRCH)
	}
	m["raise"] = func(c *api.Call) {
		sig := int(c.Int(0))
		if sig < 0 || sig > maxSignal {
			c.FailErrno(api.EINVAL)
			return
		}
		if sig == 0 {
			c.Ret(0)
			return
		}
		c.Signal(uint32(sig))
	}
	m["sigaction"] = func(c *api.Call) {
		sig := int(c.Int(0))
		if sig < 1 || sig > maxSignal || sig == 9 || sig == 19 { // KILL/STOP
			c.FailErrno(api.EINVAL)
			return
		}
		if act := c.PtrArg(1); act != 0 {
			if _, ok := c.CopyIn(1, act, 16); !ok {
				return
			}
		}
		if old := c.PtrArg(2); old != 0 {
			if !c.CopyOut(2, old, make([]byte, 16)) {
				return
			}
		}
		c.Ret(0)
	}
	m["sigprocmask"] = func(c *api.Call) {
		how := int(c.Int(0))
		set := c.PtrArg(1)
		if set != 0 && (how < 0 || how > 2) {
			c.FailErrno(api.EINVAL)
			return
		}
		if set != 0 {
			if _, ok := c.CopyIn(1, set, 8); !ok {
				return
			}
		}
		if old := c.PtrArg(2); old != 0 {
			if !c.CopyOut(2, old, make([]byte, 8)) {
				return
			}
		}
		c.Ret(0)
	}
	m["sigpending"] = func(c *api.Call) {
		if !c.CopyOut(0, c.PtrArg(0), make([]byte, 8)) {
			return
		}
		c.Ret(0)
	}
	m["alarm"] = func(c *api.Call) {
		c.Ret(0) // no previous alarm
	}
	m["sleep"] = func(c *api.Call) {
		s := c.U32(0)
		if s > 1000000 {
			// A multi-week sleep never returns within the campaign.
			c.Hang()
			return
		}
		c.K.Sleep(s * 1000)
		c.Ret(0)
	}
	m["nanosleep"] = func(c *api.Call) {
		req := c.PtrArg(0)
		b, ok := c.CopyIn(0, req, 16)
		if !ok {
			return
		}
		sec := int32(le32(b))
		nsec := int32(le32(b[4:]))
		if sec < 0 || nsec < 0 || nsec >= 1000000000 {
			c.FailErrno(api.EINVAL)
			return
		}
		if uint32(sec) > 1000000 {
			c.Hang()
			return
		}
		c.K.Sleep(uint32(sec) * 1000)
		if rem := c.PtrArg(1); rem != 0 {
			if !c.CopyOut(1, rem, make([]byte, 16)) {
				return
			}
		}
		c.Ret(0)
	}
	m["sched_yield"] = func(c *api.Call) {
		c.K.Sleep(0)
		c.Ret(0)
	}
	m["getitimer"] = func(c *api.Call) {
		which := int(c.Int(0))
		if which < 0 || which > 2 {
			c.FailErrno(api.EINVAL)
			return
		}
		if !c.CopyOut(1, c.PtrArg(1), make([]byte, 16)) {
			return
		}
		c.Ret(0)
	}
	m["setitimer"] = func(c *api.Call) {
		which := int(c.Int(0))
		if which < 0 || which > 2 {
			c.FailErrno(api.EINVAL)
			return
		}
		b, ok := c.CopyIn(1, c.PtrArg(1), 16)
		if !ok {
			return
		}
		if int32(le32(b[4:])) >= 1000000 || int32(le32(b[12:])) >= 1000000 {
			c.FailErrno(api.EINVAL)
			return
		}
		if old := c.PtrArg(2); old != 0 {
			if !c.CopyOut(2, old, make([]byte, 16)) {
				return
			}
		}
		c.Ret(0)
	}
	m["ptrace"] = func(c *api.Call) {
		req := int(c.Int(0))
		switch req {
		case 0: // PTRACE_TRACEME
			c.Ret(0)
		case 1, 2, 3: // PEEK*
			pid := int(c.Int(1))
			if pid != c.P.PID {
				c.FailErrno(api.ESRCH)
				return
			}
			addr := c.PtrArg(2)
			if !c.K.Probe(c.P.AS, addr, 4, false) {
				c.FailErrno(api.EIO)
				return
			}
			v, _ := c.P.AS.ReadU32(addr)
			c.Ret(int64(v))
		case 7, 8: // CONT / KILL
			if int(c.Int(1)) != c.P.PID {
				c.FailErrno(api.ESRCH)
				return
			}
			c.Ret(0)
		default:
			if req < 0 || req > 24 {
				c.FailErrno(api.EIO)
				return
			}
			c.FailErrno(api.ESRCH)
		}
	}
}

func execImpl(hasEnv bool) Impl {
	return func(c *api.Call) {
		path, ok := pathArg(c, 0)
		if !ok {
			return
		}
		argv := c.PtrArg(1)
		if argv == 0 {
			c.FailErrno(api.EFAULT)
			return
		}
		if !scanPtrArray(c, 1, argv) {
			return
		}
		if hasEnv {
			envp := c.PtrArg(2)
			if envp != 0 && !scanPtrArray(c, 2, envp) {
				return
			}
		}
		n, err := c.K.FS.Stat(path)
		if err != nil {
			c.FailErrno(errnoFor(err))
			return
		}
		if n.IsDir() {
			c.FailErrno(api.EACCES)
			return
		}
		if n.Mode()&0o1 == 0 {
			c.FailErrno(api.EACCES)
			return
		}
		// A successful exec replaces the image; the call never returns.
		// For the harness this is a normal completion.
		c.Ret(0)
	}
}

// scanPtrArray walks a NULL-terminated pointer array, validating each
// string, as execve's kernel-side argument copy does.  The walk is
// bounded by the probe failing at the first unmapped word.
func scanPtrArray(c *api.Call, param int, base mem.Addr) bool {
	for i := uint32(0); i < 4096; i++ {
		addr := base + mem.Addr(4*i)
		if !c.K.Probe(c.P.AS, addr, 4, false) {
			c.FailErrno(api.EFAULT)
			return false
		}
		v, _ := c.P.AS.ReadU32(addr)
		if v == 0 {
			return true
		}
		if !c.K.Probe(c.P.AS, mem.Addr(v), 1, false) {
			c.FailErrno(api.EFAULT)
			return false
		}
	}
	c.FailErrno(api.E2BIG)
	return false
}

func waitCommon(c *api.Call, pid, statusParam int, opts uint32) {
	// The test process has no children; POSIX mandates ECHILD.  (The
	// status pointer is only written when a child is reaped, so it is
	// never dereferenced here — matching Linux.)
	_ = pid
	_ = opts
	_ = statusParam
	c.FailErrno(api.ECHILD)
}
