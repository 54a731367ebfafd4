package winapi

import (
	"ballista/internal/api"
	"ballista/internal/sim/kern"
)

// ioClamp bounds single-transfer sizes so a huge nNumberOfBytes against
// a small mapped buffer faults at the guard page promptly.
const ioClamp = 1 << 20

func registerIO(m map[string]Impl) {
	m["AttachThreadInput"] = func(c *api.Call) {
		a, b := int(c.Int(0)), int(c.Int(1))
		if a == b || a != c.P.Thread.TID && b != c.P.Thread.TID {
			c.FailMaybeSilent(0, api.ErrorInvalidParameter, winTrue)
			return
		}
		c.Ret(winTrue)
	}
	m["CloseHandle"] = func(c *api.Call) {
		h := c.HandleAt(0)
		if h == kern.PseudoProcess || h == kern.PseudoThread {
			c.Ret(winTrue) // closing a pseudo-handle is a no-op success
			return
		}
		if !c.P.CloseHandle(h) {
			c.FailMaybeSilent(0, api.ErrorInvalidHandle, winTrue)
			return
		}
		c.Ret(winTrue)
	}
	m["DuplicateHandle"] = dupHandle
	m["FlushFileBuffers"] = func(c *api.Call) {
		o := fileObject(c, 0, winTrue)
		if o == nil {
			return
		}
		// Record the commit barrier in the persistence model (pipe-backed
		// objects have no file and nothing durable to flush).
		if o.File != nil {
			_ = o.File.Sync()
		}
		c.Ret(winTrue)
	}
	m["GetStdHandle"] = func(c *api.Call) {
		switch c.U32(0) {
		case kern.StdInput:
			c.Ret(int64(uint32(c.P.Std(0))))
		case kern.StdOutput:
			c.Ret(int64(uint32(c.P.Std(1))))
		case kern.StdError:
			c.Ret(int64(uint32(c.P.Std(2))))
		default:
			c.FailWinRet(invalidHandleRet, api.ErrorInvalidParameter)
		}
	}
	m["LockFile"] = func(c *api.Call) {
		o := object(c, 0, kern.KFile, winTrue)
		if o == nil {
			return
		}
		off := uint64(c.U32(1)) | uint64(c.U32(2))<<32
		length := uint64(c.U32(3)) | uint64(c.U32(4))<<32
		if length == 0 {
			c.FailWin(api.ErrorInvalidParameter)
			return
		}
		if err := o.File.Lock(off, length, true); err != nil {
			c.FailWin(winFSError(err))
			return
		}
		c.Ret(winTrue)
	}
	m["LockFileEx"] = func(c *api.Call) {
		o := object(c, 0, kern.KFile, winTrue)
		if o == nil {
			return
		}
		flags := c.U32(1)
		if flags&^uint32(0x3) != 0 {
			c.FailWin(api.ErrorInvalidParameter)
			return
		}
		if c.U32(2) != 0 { // dwReserved
			c.FailWin(api.ErrorInvalidParameter)
			return
		}
		ov := c.PtrArg(5)
		if ov == 0 {
			c.FailWin(api.ErrorInvalidParameter)
			return
		}
		b, ok := c.CopyIn(5, ov, 20)
		if !ok {
			return
		}
		off := uint64(le32(b[8:])) | uint64(le32(b[12:]))<<32
		length := uint64(c.U32(3)) | uint64(c.U32(4))<<32
		if length == 0 {
			c.FailWin(api.ErrorInvalidParameter)
			return
		}
		if err := o.File.Lock(off, length, flags&0x2 != 0); err != nil {
			if flags&0x1 == 0 { // not LOCKFILE_FAIL_IMMEDIATELY: block
				c.Hang()
				return
			}
			c.FailWin(winFSError(err))
			return
		}
		c.Ret(winTrue)
	}
	m["ReadFile"] = readFile
	m["ReadFileEx"] = readFileEx
	m["SetFilePointer"] = setFilePointer
	m["SetStdHandle"] = func(c *api.Call) {
		slot := -1
		switch c.U32(0) {
		case kern.StdInput:
			slot = 0
		case kern.StdOutput:
			slot = 1
		case kern.StdError:
			slot = 2
		}
		if slot < 0 {
			c.FailWin(api.ErrorInvalidParameter)
			return
		}
		c.P.SetStd(slot, c.HandleAt(1))
		c.Ret(winTrue)
	}
	m["UnlockFile"] = func(c *api.Call) {
		o := object(c, 0, kern.KFile, winTrue)
		if o == nil {
			return
		}
		off := uint64(c.U32(1)) | uint64(c.U32(2))<<32
		length := uint64(c.U32(3)) | uint64(c.U32(4))<<32
		if err := o.File.Unlock(off, length); err != nil {
			c.FailWin(api.ErrorNotLocked)
			return
		}
		c.Ret(winTrue)
	}
	m["UnlockFileEx"] = func(c *api.Call) {
		o := object(c, 0, kern.KFile, winTrue)
		if o == nil {
			return
		}
		if c.U32(1) != 0 {
			c.FailWin(api.ErrorInvalidParameter)
			return
		}
		ov := c.PtrArg(4)
		if ov == 0 {
			c.FailWin(api.ErrorInvalidParameter)
			return
		}
		b, ok := c.CopyIn(4, ov, 20)
		if !ok {
			return
		}
		off := uint64(le32(b[8:])) | uint64(le32(b[12:]))<<32
		length := uint64(c.U32(2)) | uint64(c.U32(3))<<32
		if err := o.File.Unlock(off, length); err != nil {
			c.FailWin(api.ErrorNotLocked)
			return
		}
		c.Ret(winTrue)
	}
	m["WriteFile"] = writeFile
	m["WriteFileEx"] = writeFileEx
}

func dupHandle(c *api.Call) {
	if object(c, 0, kern.KProcess, winTrue) == nil {
		return
	}
	src := c.P.Handle(c.HandleAt(1))
	// Table 3: DuplicateHandle on the 9x family corrupted shared handle-
	// table state when handed an invalid source handle ("*": harness-only
	// accumulation).
	if c.DefectCorrupt(src == nil) {
		return
	}
	if src == nil {
		c.FailWin(api.ErrorInvalidHandle)
		return
	}
	if object(c, 2, kern.KProcess, winTrue) == nil {
		return
	}
	if c.U32(6)&^uint32(0x3) != 0 {
		c.FailWin(api.ErrorInvalidParameter)
		return
	}
	nh := c.P.AddHandle(src)
	if nh == 0 && c.Traits.ProbeKernel {
		c.FailWin(api.ErrorNoSystemResources)
		return
	}
	// On the 9x family the null handle is written out below and the call
	// still reports TRUE — a handle-table lie under scarcity.
	if !c.CopyOut(3, c.PtrArg(3), u32b(uint32(nh))) {
		return
	}
	if c.U32(6)&0x1 != 0 { // DUPLICATE_CLOSE_SOURCE
		c.P.CloseHandle(c.HandleAt(1))
	}
	c.Ret(winTrue)
}

func readFile(c *api.Call) {
	o := fileObject(c, 0, winTrue)
	if o == nil {
		return
	}
	n := c.U32(2)
	lpRead := c.PtrArg(3)
	ov := c.PtrArg(4)
	if lpRead == 0 && ov == 0 {
		c.FailWin(api.ErrorInvalidParameter)
		return
	}
	if ov != 0 {
		if _, ok := c.CopyIn(4, ov, 20); !ok {
			return
		}
	}
	want := n
	if want > ioClamp {
		want = ioClamp
	}
	var data []byte
	switch o.Kind {
	case kern.KPipe:
		p := o.Pipe
		if !p.Input {
			c.FailWin(api.ErrorAccessDenied)
			return
		}
		if len(p.Buf) == 0 {
			if p.WritersOpen > 0 {
				c.Hang() // console read with no input ever coming
				return
			}
			data = nil
		} else {
			take := int(want)
			if take > len(p.Buf) {
				take = len(p.Buf)
			}
			data = p.Buf[:take]
			p.Buf = p.Buf[take:]
		}
	default:
		if o.File.Closed() || !o.File.Readable {
			c.FailWin(api.ErrorAccessDenied)
			return
		}
		var err error
		if data, err = o.File.Read(int(want)); err != nil {
			c.FailWin(winFSError(err))
			return
		}
	}
	if len(data) > 0 && !c.CopyOut(1, c.PtrArg(1), data) {
		return
	}
	if lpRead != 0 {
		if !c.CopyOut(3, lpRead, u32b(uint32(len(data)))) {
			return
		}
	}
	c.Ret(winTrue)
}

func readFileEx(c *api.Call) {
	o := fileObject(c, 0, winTrue)
	if o == nil {
		return
	}
	ov := c.PtrArg(3)
	if ov == 0 {
		c.FailWin(api.ErrorInvalidParameter)
		return
	}
	if _, ok := c.CopyIn(3, ov, 20); !ok {
		return
	}
	cb := c.PtrArg(4)
	if cb == 0 {
		c.FailWin(api.ErrorInvalidParameter)
		return
	}
	want := c.U32(2)
	if want > ioClamp {
		want = ioClamp
	}
	if o.Kind == kern.KFile {
		if !o.File.Readable || o.File.Closed() {
			c.FailWin(api.ErrorAccessDenied)
			return
		}
		data, err := o.File.Read(int(want))
		if err != nil {
			c.FailWin(winFSError(err))
			return
		}
		if len(data) > 0 && !c.CopyOut(1, c.PtrArg(1), data) {
			return
		}
	}
	// The completion routine runs as an APC: a garbage code pointer is an
	// unhandled fault in the requesting thread.
	if _, ok := c.UserRead(cb, 1); !ok {
		return
	}
	c.Ret(winTrue)
}

func setFilePointer(c *api.Call) {
	o := object(c, 0, kern.KFile, 0)
	if o == nil {
		return
	}
	method := c.U32(3)
	if method > 2 {
		c.FailWinRet(int64(int32(-1)), api.ErrorInvalidParameter)
		return
	}
	dist := int64(c.Int(1))
	if hi := c.PtrArg(2); hi != 0 {
		b, ok := c.CopyIn(2, hi, 4)
		if !ok {
			return
		}
		dist |= int64(int32(le32(b))) << 32
	}
	pos, err := o.File.Seek(dist, int(method))
	if err != nil {
		c.FailWinRet(int64(int32(-1)), api.ErrorNegativeSeek)
		return
	}
	if hi := c.PtrArg(2); hi != 0 {
		if !c.CopyOut(2, hi, u32b(uint32(pos>>32))) {
			return
		}
	}
	c.Ret(int64(uint32(pos)))
}

func writeFile(c *api.Call) {
	o := fileObject(c, 0, winTrue)
	if o == nil {
		return
	}
	n := c.U32(2)
	lpWritten := c.PtrArg(3)
	ov := c.PtrArg(4)
	if lpWritten == 0 && ov == 0 {
		c.FailWin(api.ErrorInvalidParameter)
		return
	}
	if ov != 0 {
		if _, ok := c.CopyIn(4, ov, 20); !ok {
			return
		}
	}
	want := n
	if want > ioClamp {
		want = ioClamp
	}
	var data []byte
	if want > 0 {
		var ok bool
		data, ok = c.CopyIn(1, c.PtrArg(1), want)
		if !ok {
			return
		}
	}
	switch o.Kind {
	case kern.KPipe:
		p := o.Pipe
		if p.Input {
			c.FailWin(api.ErrorAccessDenied)
			return
		}
		room := p.Capacity - len(p.Buf)
		if room > 0 {
			take := len(data)
			if take > room {
				take = room
			}
			p.Buf = append(p.Buf, data[:take]...)
		}
	default:
		if o.File.Closed() || !o.File.Writable {
			c.FailWin(api.ErrorAccessDenied)
			return
		}
		if _, err := o.File.Write(data); err != nil {
			c.FailWin(winFSError(err))
			return
		}
	}
	if lpWritten != 0 {
		if !c.CopyOut(3, lpWritten, u32b(uint32(len(data)))) {
			return
		}
	}
	c.Ret(winTrue)
}

func writeFileEx(c *api.Call) {
	o := fileObject(c, 0, winTrue)
	if o == nil {
		return
	}
	ov := c.PtrArg(3)
	if ov == 0 {
		c.FailWin(api.ErrorInvalidParameter)
		return
	}
	if _, ok := c.CopyIn(3, ov, 20); !ok {
		return
	}
	cb := c.PtrArg(4)
	if cb == 0 {
		c.FailWin(api.ErrorInvalidParameter)
		return
	}
	want := c.U32(2)
	if want > ioClamp {
		want = ioClamp
	}
	if want > 0 {
		data, ok := c.CopyIn(1, c.PtrArg(1), want)
		if !ok {
			return
		}
		if o.Kind == kern.KFile && o.File.Writable && !o.File.Closed() {
			_, _ = o.File.Write(data)
		}
	}
	if _, ok := c.UserRead(cb, 1); !ok {
		return
	}
	c.Ret(winTrue)
}
