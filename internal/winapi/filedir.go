package winapi

import (
	"fmt"
	"strings"

	"ballista/internal/api"
	"ballista/internal/sim/fs"
	"ballista/internal/sim/kern"
)

// secAttrs validates an optional SECURITY_ATTRIBUTES argument; NULL is
// legitimate.
func secAttrs(c *api.Call, param int) bool {
	sa := c.PtrArg(param)
	if sa == 0 {
		return true
	}
	b, ok := c.CopyIn(param, sa, 12)
	if !ok {
		return false
	}
	if le32(b) != 12 { // nLength must hold the structure size
		c.FailWin(api.ErrorInvalidParameter)
		return false
	}
	return true
}

func registerFileDir(m map[string]Impl) {
	m["CreateFile"] = createFile
	m["DeleteFile"] = func(c *api.Call) {
		path, ok := pathArg(c, 0)
		if !ok {
			return
		}
		if err := c.K.FS.Remove(path); err != nil {
			c.FailWin(winFSError(err))
			return
		}
		c.Ret(winTrue)
	}
	m["CopyFile"] = func(c *api.Call) {
		src, ok := pathArg(c, 0)
		if !ok {
			return
		}
		dst, ok := pathArg(c, 1)
		if !ok {
			return
		}
		srcN, err := c.K.FS.Stat(src)
		if err != nil || srcN.IsDir() {
			c.FailWin(winFSError(fs.ErrNotFound))
			return
		}
		if c.Int(2) != 0 { // bFailIfExists
			if _, err := c.K.FS.Stat(dst); err == nil {
				c.FailWin(api.ErrorFileExists)
				return
			}
		}
		dstN, err := c.K.FS.Create(dst, 0o6, true)
		if err != nil {
			c.FailWin(winFSError(err))
			return
		}
		c.K.FS.CopyData(dstN, srcN)
		c.Ret(winTrue)
	}
	m["MoveFile"] = func(c *api.Call) { moveFile(c, false) }
	m["MoveFileEx"] = func(c *api.Call) {
		if c.U32(2)&^uint32(0x3) != 0 {
			c.FailWin(api.ErrorInvalidParameter)
			return
		}
		moveFile(c, c.U32(2)&0x1 != 0)
	}
	m["CreateDirectory"] = func(c *api.Call) {
		path, ok := pathArg(c, 0)
		if !ok {
			return
		}
		if !secAttrs(c, 1) {
			return
		}
		if err := c.K.FS.Mkdir(path, 0o7); err != nil {
			c.FailWin(winFSError(err))
			return
		}
		c.Ret(winTrue)
	}
	m["CreateDirectoryEx"] = func(c *api.Call) {
		if _, ok := pathArg(c, 0); !ok { // template directory
			return
		}
		path, ok := pathArg(c, 1)
		if !ok {
			return
		}
		if !secAttrs(c, 2) {
			return
		}
		if err := c.K.FS.Mkdir(path, 0o7); err != nil {
			c.FailWin(winFSError(err))
			return
		}
		c.Ret(winTrue)
	}
	m["RemoveDirectory"] = func(c *api.Call) {
		path, ok := pathArg(c, 0)
		if !ok {
			return
		}
		if err := c.K.FS.Rmdir(path); err != nil {
			c.FailWin(winFSError(err))
			return
		}
		c.Ret(winTrue)
	}
	m["GetFileAttributes"] = func(c *api.Call) {
		path, ok := pathArg(c, 0)
		if !ok {
			return
		}
		n, err := c.K.FS.Stat(path)
		if err != nil {
			c.FailWinRet(int64(int32(-1)), winFSError(err))
			return
		}
		c.Ret(int64(uint32(n.Attrs())))
	}
	m["SetFileAttributes"] = func(c *api.Call) {
		path, ok := pathArg(c, 0)
		if !ok {
			return
		}
		attrs := c.U32(1)
		if attrs&^uint32(0xFF) != 0 {
			c.FailWin(api.ErrorInvalidParameter)
			return
		}
		n, err := c.K.FS.Stat(path)
		if err != nil {
			c.FailWin(winFSError(err))
			return
		}
		c.K.FS.SetAttrs(n, fs.Attr(attrs))
		c.Ret(winTrue)
	}
	m["GetFileSize"] = func(c *api.Call) {
		o := object(c, 0, kern.KFile, 0)
		if o == nil {
			return
		}
		size := o.File.Node().Size()
		if hi := c.PtrArg(1); hi != 0 {
			if !c.CopyOut(1, hi, u32b(uint32(size>>32))) {
				return
			}
		}
		c.Ret(int64(uint32(size)))
	}
	m["GetFileTime"] = func(c *api.Call) {
		o := object(c, 0, kern.KFile, winTrue)
		if o == nil {
			return
		}
		n := o.File.Node()
		times := []uint64{n.CreateTime, n.AccessTime, n.WriteTime}
		for i := 1; i <= 3; i++ {
			if p := c.PtrArg(i); p != 0 {
				if !c.CopyOut(i, p, filetimeFrom(times[i-1])) {
					return
				}
			}
		}
		c.Ret(winTrue)
	}
	m["SetFileTime"] = func(c *api.Call) {
		o := object(c, 0, kern.KFile, winTrue)
		if o == nil {
			return
		}
		n := o.File.Node()
		for i := 1; i <= 3; i++ {
			if p := c.PtrArg(i); p != 0 {
				b, ok := c.CopyIn(i, p, 8)
				if !ok {
					return
				}
				v := uint64(le32(b)) | uint64(le32(b[4:]))<<32
				switch i {
				case 1:
					n.CreateTime = v
				case 2:
					n.AccessTime = v
				case 3:
					n.WriteTime = v
				}
			}
		}
		c.Ret(winTrue)
	}
	m["FileTimeToSystemTime"] = fileTimeToSystemTime
	m["SystemTimeToFileTime"] = func(c *api.Call) {
		b, ok := c.CopyIn(0, c.PtrArg(0), 16)
		if !ok {
			return
		}
		month := uint16(b[2]) | uint16(b[3])<<8
		day := uint16(b[6]) | uint16(b[7])<<8
		if month < 1 || month > 12 || day < 1 || day > 31 {
			c.FailWin(api.ErrorInvalidParameter)
			return
		}
		if !c.CopyOut(1, c.PtrArg(1), filetimeFrom(uint64(month)*2629800+uint64(day)*86400)) {
			return
		}
		c.Ret(winTrue)
	}
	m["FileTimeToLocalFileTime"] = filetimeShift
	m["LocalFileTimeToFileTime"] = filetimeShift
	m["CompareFileTime"] = func(c *api.Call) {
		// A user-mode KERNEL32 routine: dereferences both operands
		// directly on every Windows variant.
		a, ok := c.UserRead(c.PtrArg(0), 8)
		if !ok {
			return
		}
		b, ok := c.UserRead(c.PtrArg(1), 8)
		if !ok {
			return
		}
		av := uint64(le32(a)) | uint64(le32(a[4:]))<<32
		bv := uint64(le32(b)) | uint64(le32(b[4:]))<<32
		switch {
		case av < bv:
			c.Ret(-1)
		case av > bv:
			c.Ret(1)
		default:
			c.Ret(0)
		}
	}
	m["GetFileInformationByHandle"] = func(c *api.Call) {
		o := object(c, 0, kern.KFile, winTrue)
		if o == nil {
			return
		}
		n := o.File.Node()
		info := make([]byte, 52)
		copy(info[0:], u32b(uint32(n.Attrs())))
		copy(info[4:], filetimeFrom(n.CreateTime))
		copy(info[12:], filetimeFrom(n.AccessTime))
		copy(info[20:], filetimeFrom(n.WriteTime))
		copy(info[36:], u32b(uint32(n.Size()>>32)))
		copy(info[40:], u32b(uint32(n.Size())))
		copy(info[44:], u32b(uint32(n.Nlink())))
		// Table 3: raw kernel write on the 9x family (MechRawOut defect
		// routed inside CopyOut).
		if !c.CopyOut(1, c.PtrArg(1), info) {
			return
		}
		c.Ret(winTrue)
	}
	m["GetFileType"] = func(c *api.Call) {
		o := fileObject(c, 0, 0)
		if o == nil {
			return
		}
		if o.Kind == kern.KPipe {
			c.Ret(3) // FILE_TYPE_PIPE
			return
		}
		c.Ret(1) // FILE_TYPE_DISK
	}
	m["FindFirstFile"] = findFirstFile
	m["FindNextFile"] = findNextFile
	m["FindClose"] = func(c *api.Call) {
		if object(c, 0, kern.KFind, winTrue) == nil {
			return
		}
		c.P.CloseHandle(c.HandleAt(0))
		c.Ret(winTrue)
	}
	m["GetCurrentDirectory"] = func(c *api.Call) {
		cwd := c.P.Cwd
		need := len(cwd) + 1
		if int(c.U32(0)) < need {
			c.Ret(int64(need)) // required size, no error
			return
		}
		if !c.CopyOut(1, c.PtrArg(1), append([]byte(cwd), 0)) {
			return
		}
		c.Ret(int64(len(cwd)))
	}
	m["SetCurrentDirectory"] = func(c *api.Call) {
		path, ok := pathArg(c, 0)
		if !ok {
			return
		}
		n, err := c.K.FS.Stat(path)
		if err != nil {
			c.FailWin(winFSError(err))
			return
		}
		if !n.IsDir() {
			c.FailWin(api.ErrorPathNotFound)
			return
		}
		c.P.Cwd = path
		c.Ret(winTrue)
	}
	m["GetFullPathName"] = func(c *api.Call) {
		path, ok := pathArg(c, 0)
		if !ok {
			return
		}
		full := path
		if !strings.HasPrefix(path, "/") && !strings.Contains(path, ":") && !strings.HasPrefix(path, "\\") {
			full = c.P.Cwd + "/" + path
		}
		need := len(full) + 1
		if int(c.U32(1)) < need {
			c.Ret(int64(need))
			return
		}
		if !c.CopyOut(2, c.PtrArg(2), append([]byte(full), 0)) {
			return
		}
		if fp := c.PtrArg(3); fp != 0 {
			base := uint32(c.PtrArg(2))
			if i := strings.LastIndexAny(full, "/\\"); i >= 0 {
				base += uint32(i + 1)
			}
			if !c.CopyOut(3, fp, u32b(base)) {
				return
			}
		}
		c.Ret(int64(len(full)))
	}
	m["GetTempPath"] = func(c *api.Call) {
		tmp := "/tmp/"
		need := len(tmp) + 1
		if int(c.U32(0)) < need {
			c.Ret(int64(need))
			return
		}
		if !c.CopyOut(1, c.PtrArg(1), append([]byte(tmp), 0)) {
			return
		}
		c.Ret(int64(len(tmp)))
	}
	m["GetTempFileName"] = func(c *api.Call) {
		dir, ok := pathArg(c, 0)
		if !ok {
			return
		}
		prefix, ok := c.CopyInString(1, c.PtrArg(1))
		if !ok {
			return
		}
		if n, err := c.K.FS.Stat(dir); err != nil || !n.IsDir() {
			c.FailWinRet(0, api.ErrorPathNotFound)
			return
		}
		unique := c.U32(2)
		seq := unique
		if seq == 0 {
			seq = uint32(c.K.Tick())
		}
		if len(prefix) > 3 {
			prefix = prefix[:3]
		}
		name := fmt.Sprintf("%s/%s%04x.tmp", dir, prefix, seq&0xFFFF)
		if unique == 0 {
			if _, err := c.K.FS.Create(name, 0o6, false); err != nil {
				c.FailWinRet(0, winFSError(err))
				return
			}
		}
		if !c.CopyOut(3, c.PtrArg(3), append([]byte(name), 0)) {
			return
		}
		c.Ret(int64(seq & 0xFFFF))
	}
	m["SearchPath"] = func(c *api.Call) {
		var dirs []string
		if c.PtrArg(0) != 0 {
			p, ok := pathArg(c, 0)
			if !ok {
				return
			}
			dirs = []string{p}
		} else {
			dirs = []string{c.P.Cwd, "/bin", "/bl"}
		}
		file, ok := c.CopyInString(1, c.PtrArg(1))
		if !ok {
			return
		}
		if file == "" {
			c.FailWinRet(0, api.ErrorInvalidParameter)
			return
		}
		if c.PtrArg(2) != 0 {
			ext, ok := c.CopyInString(2, c.PtrArg(2))
			if !ok {
				return
			}
			if !strings.Contains(file, ".") {
				file += ext
			}
		}
		for _, d := range dirs {
			full := d + "/" + file
			if _, err := c.K.FS.Stat(full); err == nil {
				need := len(full) + 1
				if int(c.U32(3)) < need {
					c.Ret(int64(need))
					return
				}
				if !c.CopyOut(4, c.PtrArg(4), append([]byte(full), 0)) {
					return
				}
				c.Ret(int64(len(full)))
				return
			}
		}
		c.FailWinRet(0, api.ErrorFileNotFound)
	}
	m["GetDriveType"] = func(c *api.Call) {
		if c.PtrArg(0) == 0 {
			c.Ret(3) // DRIVE_FIXED: the current drive
			return
		}
		path, ok := c.CopyInString(0, c.PtrArg(0))
		if !ok {
			return
		}
		if _, err := c.K.FS.Stat(path); err != nil {
			c.Ret(1) // DRIVE_NO_ROOT_DIR
			return
		}
		c.Ret(3)
	}
	m["GetDiskFreeSpace"] = func(c *api.Call) {
		if c.PtrArg(0) != 0 {
			path, ok := pathArg(c, 0)
			if !ok {
				return
			}
			if _, err := c.K.FS.Stat(path); err != nil {
				c.FailWin(winFSError(err))
				return
			}
		}
		outs := []uint32{64, 512, 1 << 16, 1 << 17} // sectors/cluster etc.
		for i := 1; i <= 4; i++ {
			if p := c.PtrArg(i); p != 0 {
				if !c.CopyOut(i, p, u32b(outs[i-1])) {
					return
				}
			}
		}
		c.Ret(winTrue)
	}
	m["GetLogicalDrives"] = func(c *api.Call) {
		c.Ret(0x4) // just C:
	}
	m["SetEndOfFile"] = func(c *api.Call) {
		o := object(c, 0, kern.KFile, winTrue)
		if o == nil {
			return
		}
		if err := o.File.Truncate(-1); err != nil {
			c.FailWin(winFSError(err))
			return
		}
		c.Ret(winTrue)
	}
	m["GetShortPathName"] = func(c *api.Call) {
		path, ok := pathArg(c, 0)
		if !ok {
			return
		}
		if _, err := c.K.FS.Stat(path); err != nil {
			c.FailWinRet(0, winFSError(err))
			return
		}
		need := len(path) + 1
		if int(c.U32(2)) < need {
			c.Ret(int64(need))
			return
		}
		if !c.CopyOut(1, c.PtrArg(1), append([]byte(path), 0)) {
			return
		}
		c.Ret(int64(len(path)))
	}
}

func createFile(c *api.Call) {
	path, ok := pathArg(c, 0)
	if !ok {
		return
	}
	access := c.U32(1)
	share := c.U32(2)
	if share&^uint32(0x7) != 0 {
		c.FailWinRet(invalidHandleRet, api.ErrorInvalidParameter)
		return
	}
	if !secAttrs(c, 3) {
		return
	}
	disp := c.U32(4)
	if disp < 1 || disp > 5 {
		c.FailWinRet(invalidHandleRet, api.ErrorInvalidParameter)
		return
	}
	readable := access&0x80000000 != 0 || access == 0
	writable := access&0x40000000 != 0

	fsys := c.K.FS
	_, statErr := fsys.Stat(path)
	exists := statErr == nil
	switch disp {
	case 1: // CREATE_NEW
		if exists {
			c.FailWinRet(invalidHandleRet, api.ErrorFileExists)
			return
		}
		if _, err := fsys.Create(path, 0o6, false); err != nil {
			c.FailWinRet(invalidHandleRet, winFSError(err))
			return
		}
	case 2: // CREATE_ALWAYS
		if _, err := fsys.Create(path, 0o6, true); err != nil {
			c.FailWinRet(invalidHandleRet, winFSError(err))
			return
		}
	case 3: // OPEN_EXISTING
		if !exists {
			c.FailWinRet(invalidHandleRet, api.ErrorFileNotFound)
			return
		}
	case 4: // OPEN_ALWAYS
		if !exists {
			if _, err := fsys.Create(path, 0o6, false); err != nil {
				c.FailWinRet(invalidHandleRet, winFSError(err))
				return
			}
		}
	case 5: // TRUNCATE_EXISTING
		if !exists {
			c.FailWinRet(invalidHandleRet, api.ErrorFileNotFound)
			return
		}
		if !writable {
			c.FailWinRet(invalidHandleRet, api.ErrorAccessDenied)
			return
		}
		if _, err := fsys.Create(path, 0o6, true); err != nil {
			c.FailWinRet(invalidHandleRet, winFSError(err))
			return
		}
	}
	of, err := fsys.Open(path, readable, writable)
	if err != nil {
		c.FailWinRet(invalidHandleRet, winFSError(err))
		return
	}
	h := c.P.AddHandle(&kern.Object{Kind: kern.KFile, File: of})
	if scarceHandle(c, h, invalidHandleRet, api.ErrorTooManyOpenFiles) {
		return
	}
	c.Ret(int64(uint32(h)))
}

func moveFile(c *api.Call, replace bool) {
	src, ok := pathArg(c, 0)
	if !ok {
		return
	}
	dst, ok := pathArg(c, 1)
	if !ok {
		return
	}
	if !replace {
		if _, err := c.K.FS.Stat(dst); err == nil {
			c.FailWin(api.ErrorAlreadyExists)
			return
		}
	}
	if err := c.K.FS.Rename(src, dst); err != nil {
		c.FailWin(winFSError(err))
		return
	}
	c.Ret(winTrue)
}

func fileTimeToSystemTime(c *api.Call) {
	// A user-mode conversion routine: reads the FILETIME directly.  On
	// Windows 95 Table 3 records the SYSTEMTIME output being written by
	// an unprobed kernel-side path (MechRawOut via CopyOut); elsewhere
	// the write is an ordinary user-mode store.
	b, ok := c.UserRead(c.PtrArg(0), 8)
	if !ok {
		return
	}
	v := uint64(le32(b)) | uint64(le32(b[4:]))<<32
	if v>>63 != 0 {
		c.FailWin(api.ErrorInvalidParameter)
		return
	}
	out := systemtime(v / 10_000_000)
	if c.Def != nil {
		if !c.CopyOut(1, c.PtrArg(1), out) {
			return
		}
	} else if !c.UserWrite(c.PtrArg(1), out) {
		return
	}
	c.Ret(winTrue)
}

func filetimeShift(c *api.Call) {
	b, ok := c.UserRead(c.PtrArg(0), 8)
	if !ok {
		return
	}
	if !c.UserWrite(c.PtrArg(1), b) {
		return
	}
	c.Ret(winTrue)
}

// findData renders a 320-byte WIN32_FIND_DATA.
func findData(n *fs.Node) []byte {
	b := make([]byte, 320)
	copy(b[0:], u32b(uint32(n.Attrs())))
	copy(b[4:], filetimeFrom(n.CreateTime))
	copy(b[12:], filetimeFrom(n.AccessTime))
	copy(b[20:], filetimeFrom(n.WriteTime))
	copy(b[28:], u32b(uint32(n.Size()>>32)))
	copy(b[32:], u32b(uint32(n.Size())))
	name := n.Name()
	if len(name) > 259 {
		name = name[:259]
	}
	copy(b[44:], name)
	return b
}

func findFirstFile(c *api.Call) {
	path, ok := pathArgAllowWild(c, 0)
	if !ok {
		return
	}
	dir, pattern := splitPattern(path)
	nodes, err := c.K.FS.Glob(dir, pattern)
	if err != nil {
		c.FailWinRet(invalidHandleRet, winFSError(err))
		return
	}
	if len(nodes) == 0 {
		c.FailWinRet(invalidHandleRet, api.ErrorFileNotFound)
		return
	}
	if !c.CopyOut(1, c.PtrArg(1), findData(nodes[0])) {
		return
	}
	h := c.P.AddHandle(&kern.Object{Kind: kern.KFind, Find: &kern.FindState{Matches: nodes, Next: 1}})
	if scarceHandle(c, h, invalidHandleRet, api.ErrorNoMoreSearchHandles) {
		return
	}
	c.Ret(int64(uint32(h)))
}

func findNextFile(c *api.Call) {
	o := object(c, 0, kern.KFind, winTrue)
	if o == nil {
		return
	}
	st := o.Find
	if st.Next >= len(st.Matches) {
		c.FailWin(api.ErrorNoMoreFiles)
		return
	}
	if !c.CopyOut(1, c.PtrArg(1), findData(st.Matches[st.Next])) {
		return
	}
	st.Next++
	c.Ret(winTrue)
}

// pathArgAllowWild is pathArg minus the wildcard rejection (FindFirstFile
// accepts patterns).
func pathArgAllowWild(c *api.Call, param int) (string, bool) {
	s, ok := c.CopyInString(param, c.PtrArg(param))
	if !ok {
		return "", false
	}
	if s == "" {
		c.FailWinRet(invalidHandleRet, api.ErrorPathNotFound)
		return "", false
	}
	if len(s) > 260 {
		c.FailWinRet(invalidHandleRet, api.ErrorFilenameExcedRange)
		return "", false
	}
	for _, ch := range s {
		if ch == '<' || ch == '>' || ch == '|' {
			c.FailWinRet(invalidHandleRet, api.ErrorInvalidName)
			return "", false
		}
	}
	return s, true
}

func splitPattern(path string) (dir, pattern string) {
	norm := strings.ReplaceAll(path, "\\", "/")
	if i := strings.LastIndex(norm, "/"); i >= 0 {
		d, p := norm[:i], norm[i+1:]
		if d == "" {
			d = "/"
		}
		if p == "" {
			p = "*"
		}
		return d, p
	}
	return "/", norm
}
