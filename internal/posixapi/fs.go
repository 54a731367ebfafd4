package posixapi

import (
	"ballista/internal/api"
	"ballista/internal/sim/fs"
	"ballista/internal/sim/kern"
	"ballista/internal/sim/mem"
)

// DIR layout (mirrors internal/suite.MakeDIR).
const (
	dirMagic  = 0x4D524944
	dOffMagic = 0
	dOffBuf   = 4
	dOffPos   = 8
	dOffPath  = 12
)

func registerFileDir(m map[string]Impl) {
	m["open"] = func(c *api.Call) {
		path, ok := pathArg(c, 0)
		if !ok {
			return
		}
		flags := c.U32(1)
		acc := flags & 0x3
		if acc == 3 {
			c.FailErrno(api.EINVAL)
			return
		}
		readable := acc == 0 || acc == 2
		writable := acc == 1 || acc == 2
		fsys := c.K.FS
		if flags&0x40 != 0 { // O_CREAT
			if flags&0x80 != 0 { // O_EXCL
				if _, err := fsys.Stat(path); err == nil {
					c.FailErrno(api.EEXIST)
					return
				}
			}
			if _, err := fsys.Create(path, uint16(c.U32(2)>>6&0x7), flags&0x200 != 0); err != nil {
				c.FailErrno(errnoFor(err))
				return
			}
		}
		of, err := fsys.Open(path, readable, writable)
		if err != nil {
			c.FailErrno(errnoFor(err))
			return
		}
		if flags&0x240 == 0x200 { // O_TRUNC without O_CREAT
			// Truncate only once the open has passed its permission
			// check, so a refused open leaves the file intact.
			fsys.SetData(of.Node(), nil)
		}
		of.Append = flags&0x400 != 0
		fd := c.P.AddFD(&kern.FD{File: of, Read: readable, Write: writable, Flags: int(flags)})
		if fd < 0 {
			// Descriptor table full (kern.fd scarcity): back the open out
			// and report the documented code.
			_ = of.Close()
			c.FailErrno(api.EMFILE)
			return
		}
		c.Ret(int64(fd))
	}
	m["creat"] = func(c *api.Call) {
		path, ok := pathArg(c, 0)
		if !ok {
			return
		}
		if _, err := c.K.FS.Create(path, uint16(c.U32(1)>>6&0x7), true); err != nil {
			c.FailErrno(errnoFor(err))
			return
		}
		of, err := c.K.FS.Open(path, false, true)
		if err != nil {
			c.FailErrno(errnoFor(err))
			return
		}
		fd := c.P.AddFD(&kern.FD{File: of, Write: true})
		if fd < 0 {
			_ = of.Close()
			c.FailErrno(api.EMFILE)
			return
		}
		c.Ret(int64(fd))
	}
	m["unlink"] = pathOp(func(f *fs.FileSystem, p string) error { return f.Remove(p) })
	m["rmdir"] = pathOp(func(f *fs.FileSystem, p string) error { return f.Rmdir(p) })
	m["link"] = pathOp2(func(f *fs.FileSystem, a, b string) error { return f.Link(a, b) })
	m["rename"] = pathOp2(func(f *fs.FileSystem, a, b string) error { return f.Rename(a, b) })
	m["symlink"] = pathOp2(func(f *fs.FileSystem, a, b string) error {
		// Symlinks are modelled as hard links to existing targets.
		return f.Link(a, b)
	})
	m["readlink"] = func(c *api.Call) {
		path, ok := pathArg(c, 0)
		if !ok {
			return
		}
		if _, err := c.K.FS.Stat(path); err != nil {
			c.FailErrno(errnoFor(err))
			return
		}
		// No true symlinks in the model.
		c.FailErrno(api.EINVAL)
	}
	m["mkdir"] = func(c *api.Call) {
		path, ok := pathArg(c, 0)
		if !ok {
			return
		}
		if err := c.K.FS.Mkdir(path, uint16(c.U32(1)>>6&0x7)); err != nil {
			c.FailErrno(errnoFor(err))
			return
		}
		c.Ret(0)
	}
	m["chdir"] = func(c *api.Call) {
		path, ok := pathArg(c, 0)
		if !ok {
			return
		}
		n, err := c.K.FS.Stat(path)
		if err != nil {
			c.FailErrno(errnoFor(err))
			return
		}
		if !n.IsDir() {
			c.FailErrno(api.ENOTDIR)
			return
		}
		c.P.Cwd = path
		c.Ret(0)
	}
	m["fchdir"] = func(c *api.Call) {
		f := fdArg(c, 0)
		if f == nil {
			return
		}
		if f.File == nil || !f.File.Node().IsDir() {
			c.FailErrno(api.ENOTDIR)
			return
		}
		c.Ret(0)
	}
	m["getcwd"] = func(c *api.Call) {
		size := c.U32(1)
		cwd := c.P.Cwd
		if size == 0 {
			c.FailErrnoRet(0, api.EINVAL)
			return
		}
		if int(size) < len(cwd)+1 {
			c.FailErrnoRet(0, api.ERANGE)
			return
		}
		if !c.CopyOut(0, c.PtrArg(0), append([]byte(cwd), 0)) {
			return
		}
		c.Ret(int64(uint32(c.PtrArg(0))))
	}
	m["chmod"] = func(c *api.Call) {
		path, ok := pathArg(c, 0)
		if !ok {
			return
		}
		n, err := c.K.FS.Stat(path)
		if err != nil {
			c.FailErrno(errnoFor(err))
			return
		}
		c.K.FS.SetMode(n, uint16(c.U32(1)>>6&0x7))
		c.Ret(0)
	}
	m["fchmod"] = func(c *api.Call) {
		f := fdArg(c, 0)
		if f == nil {
			return
		}
		if f.File == nil {
			c.FailErrno(api.EINVAL)
			return
		}
		c.K.FS.SetMode(f.File.Node(), uint16(c.U32(1)>>6&0x7))
		c.Ret(0)
	}
	m["chown"] = chownPath
	m["lchown"] = chownPath
	m["fchown"] = func(c *api.Call) {
		if fdArg(c, 0) == nil {
			return
		}
		if !validID(c.Int(1)) || !validID(c.Int(2)) {
			c.FailErrno(api.EINVAL)
			return
		}
		c.Ret(0)
	}
	m["stat"] = statPath
	m["lstat"] = statPath
	m["fstat"] = func(c *api.Call) {
		f := fdArg(c, 0)
		if f == nil {
			return
		}
		var n *fs.Node
		if f.File != nil {
			n = f.File.Node()
		}
		if !c.CopyOut(1, c.PtrArg(1), statBytes(n)) {
			return
		}
		c.Ret(0)
	}
	m["access"] = func(c *api.Call) {
		path, ok := pathArg(c, 0)
		if !ok {
			return
		}
		amode := c.U32(1)
		if amode&^uint32(0x7) != 0 {
			c.FailErrno(api.EINVAL)
			return
		}
		n, err := c.K.FS.Stat(path)
		if err != nil {
			c.FailErrno(errnoFor(err))
			return
		}
		if amode&0x2 != 0 && n.Mode()&fs.ModeWrite == 0 {
			c.FailErrno(api.EACCES)
			return
		}
		if amode&0x1 != 0 && n.Mode()&fs.ModeExec == 0 {
			c.FailErrno(api.EACCES)
			return
		}
		c.Ret(0)
	}
	m["utime"] = func(c *api.Call) {
		path, ok := pathArg(c, 0)
		if !ok {
			return
		}
		n, err := c.K.FS.Stat(path)
		if err != nil {
			c.FailErrno(errnoFor(err))
			return
		}
		if p := c.PtrArg(1); p != 0 {
			b, ok := c.CopyIn(1, p, 8)
			if !ok {
				return
			}
			n.AccessTime = uint64(le32(b))
			n.WriteTime = uint64(le32(b[4:]))
		} else {
			c.K.FS.Touch(n)
		}
		c.Ret(0)
	}
	m["utimes"] = func(c *api.Call) {
		path, ok := pathArg(c, 0)
		if !ok {
			return
		}
		n, err := c.K.FS.Stat(path)
		if err != nil {
			c.FailErrno(errnoFor(err))
			return
		}
		if p := c.PtrArg(1); p != 0 {
			b, ok := c.CopyIn(1, p, 16)
			if !ok {
				return
			}
			if int32(le32(b[4:])) >= 1000000 || int32(le32(b[12:])) >= 1000000 {
				c.FailErrno(api.EINVAL)
				return
			}
			n.AccessTime = uint64(le32(b))
			n.WriteTime = uint64(le32(b[8:]))
		} else {
			c.K.FS.Touch(n)
		}
		c.Ret(0)
	}
	m["truncate"] = func(c *api.Call) {
		path, ok := pathArg(c, 0)
		if !ok {
			return
		}
		length := int64(c.Int(1))
		if length < 0 {
			c.FailErrno(api.EINVAL)
			return
		}
		of, err := c.K.FS.Open(path, false, true)
		if err != nil {
			c.FailErrno(errnoFor(err))
			return
		}
		_ = of.Truncate(length)
		_ = of.Close()
		c.Ret(0)
	}
	m["ftruncate"] = func(c *api.Call) {
		f := fdArg(c, 0)
		if f == nil {
			return
		}
		length := int64(c.Int(1))
		if length < 0 || f.File == nil {
			c.FailErrno(api.EINVAL)
			return
		}
		if err := f.File.Truncate(length); err != nil {
			c.FailErrno(errnoFor(err))
			return
		}
		c.Ret(0)
	}
	m["mkfifo"] = func(c *api.Call) {
		path, ok := pathArg(c, 0)
		if !ok {
			return
		}
		if _, err := c.K.FS.Stat(path); err == nil {
			c.FailErrno(api.EEXIST)
			return
		}
		if _, err := c.K.FS.Create(path, uint16(c.U32(1)>>6&0x7), false); err != nil {
			c.FailErrno(errnoFor(err))
			return
		}
		c.Ret(0)
	}
	m["opendir"] = func(c *api.Call) {
		// opendir is glibc code, not a raw system call: the path is read
		// in user mode.
		path, ok := c.UserReadCString(c.PtrArg(0))
		if !ok {
			return
		}
		n, err := c.K.FS.Stat(path)
		if err != nil {
			c.FailErrnoRet(0, errnoFor(err))
			return
		}
		if !n.IsDir() {
			c.FailErrnoRet(0, api.ENOTDIR)
			return
		}
		d, merr := makeDIR(c, path)
		if merr != nil {
			c.FailErrnoRet(0, api.ENOMEM)
			return
		}
		c.Ret(int64(uint32(d)))
	}
	m["readdir"] = readdir
	m["closedir"] = func(c *api.Call) {
		d, ok := loadDIR(c)
		if !ok {
			return
		}
		if c.P.AS.BlockSize(d.addr) > 0 {
			_ = c.P.AS.Free(d.addr)
		}
		c.Ret(0)
	}
	m["rewinddir"] = func(c *api.Call) {
		d, ok := loadDIR(c)
		if !ok {
			return
		}
		_ = c.P.AS.WriteU32(d.addr+dOffPos, 0)
		c.Ret(0)
	}
}

func chownPath(c *api.Call) {
	path, ok := pathArg(c, 0)
	if !ok {
		return
	}
	if _, err := c.K.FS.Stat(path); err != nil {
		c.FailErrno(errnoFor(err))
		return
	}
	if !validID(c.Int(1)) || !validID(c.Int(2)) {
		c.FailErrno(api.EINVAL)
		return
	}
	c.Ret(0)
}

func validID(v int32) bool { return v >= -1 && v <= 65535 }

func statPath(c *api.Call) {
	path, ok := pathArg(c, 0)
	if !ok {
		return
	}
	n, err := c.K.FS.Stat(path)
	if err != nil {
		c.FailErrno(errnoFor(err))
		return
	}
	if !c.CopyOut(1, c.PtrArg(1), statBytes(n)) {
		return
	}
	c.Ret(0)
}

// statBytes renders an 88-byte struct stat.
func statBytes(n *fs.Node) []byte {
	b := make([]byte, 88)
	if n == nil {
		return b
	}
	mode := uint32(n.Mode()) << 6
	if n.IsDir() {
		mode |= 0x4000
	} else {
		mode |= 0x8000
	}
	copy(b[16:], u32b(mode))
	copy(b[20:], u32b(uint32(n.Nlink())))
	copy(b[44:], u32b(uint32(n.Size())))
	copy(b[64:], u32b(uint32(n.AccessTime)))
	copy(b[72:], u32b(uint32(n.WriteTime)))
	copy(b[80:], u32b(uint32(n.CreateTime)))
	return b
}

type dirState struct {
	addr mem.Addr
	buf  mem.Addr
	pos  uint32
	path string
}

// loadDIR reads a DIR* the way glibc does: trusting its fields.  The
// struct read and the internal-buffer dereference are user-mode accesses
// that abort on garbage.
func loadDIR(c *api.Call) (dirState, bool) {
	var d dirState
	d.addr = c.PtrArg(0)
	b, ok := c.UserRead(d.addr, 12)
	if !ok {
		return d, false
	}
	if le32(b[dOffMagic:]) != dirMagic {
		// glibc dereferences the internal buffer pointer it finds.
		d.buf = mem.Addr(le32(b[dOffBuf:]))
		if _, ok := c.UserRead(d.buf, 1); !ok {
			return d, false
		}
		c.FailErrnoRet(-1, api.EBADF)
		return d, false
	}
	d.buf = mem.Addr(le32(b[dOffBuf:]))
	d.pos = le32(b[dOffPos:])
	path, ok := c.UserReadCString(d.addr + dOffPath)
	if !ok {
		return d, false
	}
	d.path = path
	return d, true
}

func makeDIR(c *api.Call, path string) (mem.Addr, error) {
	buf, err := c.P.AS.Alloc(4096, mem.ProtRW)
	if err != nil {
		return 0, err
	}
	d, err := c.P.AS.Alloc(128, mem.ProtRW)
	if err != nil {
		return 0, err
	}
	if f := c.P.AS.WriteU32(d+dOffMagic, dirMagic); f != nil {
		return 0, f
	}
	if f := c.P.AS.WriteU32(d+dOffBuf, uint32(buf)); f != nil {
		return 0, f
	}
	if len(path) > 110 {
		path = path[:110]
	}
	if f := c.P.AS.WriteCString(d+dOffPath, path); f != nil {
		return 0, f
	}
	return d, nil
}

func readdir(c *api.Call) {
	d, ok := loadDIR(c)
	if !ok {
		return
	}
	names, err := c.K.FS.List(d.path)
	if err != nil {
		c.FailErrnoRet(0, errnoFor(err))
		return
	}
	if int(d.pos) >= len(names) {
		c.Ret(0) // end of directory: NULL, errno unchanged
		return
	}
	name := names[d.pos]
	// struct dirent rendered into the DIR's internal buffer.
	ent := make([]byte, 12+len(name)+1)
	copy(ent[0:], u32b(d.pos+1)) // d_ino
	copy(ent[4:], u32b(d.pos))   // d_off
	ent[8] = byte(12 + len(name) + 1)
	copy(ent[12:], name)
	if !c.UserWrite(d.buf, ent) {
		return
	}
	_ = c.P.AS.WriteU32(d.addr+dOffPos, d.pos+1)
	c.Ret(int64(uint32(d.buf)))
}

func pathOp(f func(*fs.FileSystem, string) error) Impl {
	return func(c *api.Call) {
		path, ok := pathArg(c, 0)
		if !ok {
			return
		}
		if err := f(c.K.FS, path); err != nil {
			c.FailErrno(errnoFor(err))
			return
		}
		c.Ret(0)
	}
}

func pathOp2(f func(*fs.FileSystem, string, string) error) Impl {
	return func(c *api.Call) {
		a, ok := pathArg(c, 0)
		if !ok {
			return
		}
		b, ok := pathArg(c, 1)
		if !ok {
			return
		}
		if err := f(c.K.FS, a, b); err != nil {
			c.FailErrno(errnoFor(err))
			return
		}
		c.Ret(0)
	}
}
