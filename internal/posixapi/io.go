package posixapi

import (
	"ballista/internal/api"
	"ballista/internal/sim/kern"
	"ballista/internal/sim/mem"
)

func registerIOPrim(m map[string]Impl) {
	m["close"] = func(c *api.Call) {
		if !c.P.CloseFD(int(c.Int(0))) {
			c.FailErrno(api.EBADF)
			return
		}
		c.Ret(0)
	}
	m["dup"] = func(c *api.Call) {
		f := fdArg(c, 0)
		if f == nil {
			return
		}
		nf := *f
		fd := c.P.AddFD(&nf)
		if fd < 0 {
			c.FailErrno(api.EMFILE)
			return
		}
		c.Ret(int64(fd))
	}
	m["dup2"] = func(c *api.Call) {
		f := fdArg(c, 0)
		if f == nil {
			return
		}
		nfd := int(c.Int(1))
		if nfd < 0 || nfd > 65535 {
			c.FailErrno(api.EBADF)
			return
		}
		if nfd == int(c.Int(0)) {
			c.Ret(int64(nfd))
			return
		}
		c.P.CloseFD(nfd)
		nf := *f
		c.P.AddFDAt(nfd, &nf)
		c.Ret(int64(nfd))
	}
	m["fcntl"] = func(c *api.Call) {
		f := fdArg(c, 0)
		if f == nil {
			return
		}
		switch c.Int(1) {
		case 0: // F_DUPFD
			nf := *f
			fd := c.P.AddFD(&nf)
			if fd < 0 {
				c.FailErrno(api.EMFILE)
				return
			}
			c.Ret(int64(fd))
		case 1: // F_GETFD
			if f.CloseOnExec {
				c.Ret(1)
				return
			}
			c.Ret(0)
		case 2: // F_SETFD
			f.CloseOnExec = c.Int(2)&1 != 0
			c.Ret(0)
		case 3: // F_GETFL
			c.Ret(int64(f.Flags))
		case 4: // F_SETFL
			f.Flags = int(c.Int(2))
			c.Ret(0)
		default:
			c.FailErrno(api.EINVAL)
		}
	}
	m["fdatasync"] = fsyncImpl
	m["fsync"] = fsyncImpl
	m["lseek"] = func(c *api.Call) {
		f := fdArg(c, 0)
		if f == nil {
			return
		}
		if f.Pipe != nil {
			c.FailErrno(api.ESPIPE)
			return
		}
		whence := int(c.Int(2))
		if whence < 0 || whence > 2 {
			c.FailErrno(api.EINVAL)
			return
		}
		pos, err := f.File.Seek(int64(c.Int(1)), whence)
		if err != nil {
			c.FailErrno(api.EINVAL)
			return
		}
		c.Ret(pos)
	}
	m["pipe"] = func(c *api.Call) {
		p := &kern.Pipe{ReadersOpen: 1, WritersOpen: 1, Capacity: 65536, Input: true}
		rfd := c.P.AddFD(&kern.FD{Pipe: p, Read: true})
		if rfd < 0 {
			c.FailErrno(api.EMFILE)
			return
		}
		wfd := c.P.AddFD(&kern.FD{Pipe: p, Write: true})
		if wfd < 0 {
			// Two slots are needed; give back the first rather than leak it.
			c.P.CloseFD(rfd)
			c.FailErrno(api.EMFILE)
			return
		}
		out := append(u32b(uint32(rfd)), u32b(uint32(wfd))...)
		if !c.CopyOut(0, c.PtrArg(0), out) {
			c.P.CloseFD(rfd)
			c.P.CloseFD(wfd)
			return
		}
		c.Ret(0)
	}
	m["read"] = func(c *api.Call) {
		f := fdArg(c, 0)
		if f == nil {
			return
		}
		if !f.Read {
			c.FailErrno(api.EBADF)
			return
		}
		n := c.U32(2)
		if int32(n) < 0 {
			c.FailErrno(api.EINVAL)
			return
		}
		if n == 0 {
			c.Ret(0)
			return
		}
		want := n
		if want > ioClamp {
			want = ioClamp
		}
		// Probe before transfer, as the kernel does.
		if !c.K.Probe(c.P.AS, c.PtrArg(1), minU32(want, 4096), true) {
			c.FailErrno(api.EFAULT)
			return
		}
		var data []byte
		if f.Pipe != nil {
			if len(f.Pipe.Buf) == 0 {
				if f.Pipe.WritersOpen > 0 {
					c.Hang() // blocking read with no writer ever writing
					return
				}
				c.Ret(0)
				return
			}
			take := int(want)
			if take > len(f.Pipe.Buf) {
				take = len(f.Pipe.Buf)
			}
			data = f.Pipe.Buf[:take]
			f.Pipe.Buf = f.Pipe.Buf[take:]
		} else {
			var err error
			if data, err = f.File.Read(int(want)); err != nil {
				c.FailErrno(errnoFor(err))
				return
			}
		}
		if len(data) > 0 && !c.CopyOut(1, c.PtrArg(1), data) {
			return
		}
		c.Ret(int64(len(data)))
	}
	m["write"] = func(c *api.Call) {
		f := fdArg(c, 0)
		if f == nil {
			return
		}
		if !f.Write {
			c.FailErrno(api.EBADF)
			return
		}
		n := c.U32(2)
		if int32(n) < 0 {
			c.FailErrno(api.EINVAL)
			return
		}
		if n == 0 {
			c.Ret(0)
			return
		}
		want := n
		if want > ioClamp {
			want = ioClamp
		}
		data, ok := c.CopyIn(1, c.PtrArg(1), want)
		if !ok {
			return
		}
		if f.Pipe != nil {
			if f.Pipe.ReadersOpen == 0 {
				c.Signal(api.SIGPIPE)
				return
			}
			room := f.Pipe.Capacity - len(f.Pipe.Buf)
			take := len(data)
			if take > room {
				take = room
			}
			f.Pipe.Buf = append(f.Pipe.Buf, data[:take]...)
			c.Ret(int64(take))
			return
		}
		got, err := f.File.Write(data)
		if err != nil {
			c.FailErrno(errnoFor(err))
			return
		}
		c.Ret(int64(got))
	}
}

func fsyncImpl(c *api.Call) {
	f := fdArg(c, 0)
	if f == nil {
		return
	}
	if f.Pipe != nil {
		c.FailErrno(api.EINVAL)
		return
	}
	// Record the commit barrier in the persistence model; the in-cache
	// tree is already current, so this never fails on an open file.
	if f.File != nil {
		_ = f.File.Sync()
	}
	c.Ret(0)
}

func registerMemMgmt(m map[string]Impl) {
	m["mmap"] = func(c *api.Call) {
		addr := c.PtrArg(0)
		length := c.U32(1)
		prot := c.U32(2)
		flags := c.U32(3)
		if length == 0 || prot&^uint32(0x7) != 0 {
			c.FailErrnoRet(-1, api.EINVAL)
			return
		}
		shared := flags & 0x3
		if shared != 1 && shared != 2 {
			c.FailErrnoRet(-1, api.EINVAL)
			return
		}
		anon := flags&0x20 != 0
		if !anon {
			if fdArg(c, 4) == nil {
				return
			}
			if off := int64(c.Int(5)); off < 0 || off&0xFFF != 0 {
				c.FailErrnoRet(-1, api.EINVAL)
				return
			}
		}
		fixed := flags&0x10 != 0
		if fixed {
			if addr == 0 || uint32(addr)&0xFFF != 0 || mem.RegionOf(addr) != mem.RegionUser {
				c.FailErrnoRet(-1, api.EINVAL)
				return
			}
			if err := c.P.AS.Map(addr, length, memProt(prot)); err != nil {
				c.FailErrnoRet(-1, api.ENOMEM)
				return
			}
			c.Ret(int64(uint32(addr)))
			return
		}
		if addr != 0 && uint32(addr)&0xFFF != 0 {
			// A non-fixed hint may be misaligned; the kernel ignores it.
			addr = 0
		}
		a, err := c.P.AS.Alloc(length, memProt(prot))
		if err != nil {
			c.FailErrnoRet(-1, api.ENOMEM)
			return
		}
		c.Ret(int64(uint32(a)))
	}
	m["munmap"] = func(c *api.Call) {
		addr := c.PtrArg(0)
		length := c.U32(1)
		if addr == 0 || uint32(addr)&0xFFF != 0 || length == 0 {
			c.FailErrno(api.EINVAL)
			return
		}
		if mem.RegionOf(addr) != mem.RegionUser {
			c.FailErrno(api.EINVAL)
			return
		}
		_ = c.P.AS.Unmap(addr, length)
		c.Ret(0)
	}
	m["mprotect"] = func(c *api.Call) {
		addr := c.PtrArg(0)
		length := c.U32(1)
		prot := c.U32(2)
		if uint32(addr)&0xFFF != 0 || prot&^uint32(0x7) != 0 {
			c.FailErrno(api.EINVAL)
			return
		}
		if length == 0 {
			c.Ret(0)
			return
		}
		if !c.P.AS.Mapped(addr, length, mem.ProtNone) {
			c.FailErrno(api.ENOMEM)
			return
		}
		_ = c.P.AS.Protect(addr, length, memProt(prot))
		c.Ret(0)
	}
	m["msync"] = func(c *api.Call) {
		addr := c.PtrArg(0)
		flags := c.U32(2)
		if uint32(addr)&0xFFF != 0 || flags&^uint32(0x7) != 0 ||
			(flags&0x1 != 0 && flags&0x4 != 0) || flags&0x5 == 0 {
			c.FailErrno(api.EINVAL)
			return
		}
		if !c.P.AS.Mapped(addr, maxU32(c.U32(1), 1), mem.ProtNone) {
			c.FailErrno(api.ENOMEM)
			return
		}
		c.Ret(0)
	}
	m["mlock"] = mlockImpl
	m["munlock"] = mlockImpl
	m["brk"] = func(c *api.Call) {
		addr := c.PtrArg(0)
		if addr != 0 && mem.RegionOf(addr) != mem.RegionUser {
			c.FailErrno(api.ENOMEM)
			return
		}
		c.Ret(0)
	}
}

func mlockImpl(c *api.Call) {
	addr := c.PtrArg(0)
	length := c.U32(1)
	if uint32(addr)&0xFFF != 0 {
		c.FailErrno(api.EINVAL)
		return
	}
	if length == 0 {
		c.Ret(0)
		return
	}
	if !c.P.AS.Mapped(addr, length, mem.ProtNone) {
		c.FailErrno(api.ENOMEM)
		return
	}
	c.Ret(0)
}

func memProt(prot uint32) mem.Prot {
	var p mem.Prot
	if prot&0x1 != 0 {
		p |= mem.ProtRead
	}
	if prot&0x2 != 0 {
		p |= mem.ProtWrite
	}
	if prot&0x4 != 0 {
		p |= mem.ProtRead // exec implies readable here
	}
	return p
}

func minU32(a, b uint32) uint32 {
	if a < b {
		return a
	}
	return b
}

func maxU32(a, b uint32) uint32 {
	if a > b {
		return a
	}
	return b
}
