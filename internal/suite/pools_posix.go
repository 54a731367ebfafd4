package suite

import (
	"ballista/internal/api"
	"ballista/internal/core"
	"ballista/internal/sim/kern"
	"ballista/internal/sim/mem"
)

// DIR struct layout shared with the posixapi package: magic, buffer
// pointer, position, then an inline path (see posixapi.ReadDIR).
const (
	DirMagic  = 0x4D524944 // "DIRM"
	dOffMagic = 0
	dOffBuf   = 4
	dOffPos   = 8
	dOffPath  = 12
	dPathRoom = 116
	DirSize   = 128
)

// garbageStream is a DIR structure's worth of garbage-file bytes.
const garbageStream = garbageFileBytes + garbageFileBytes + garbageFileBytes + "............"

// MakeDIR materializes an open DIR struct for a directory path.
func MakeDIR(p *kern.Process, path string) (mem.Addr, error) {
	buf, err := p.AS.Alloc(4096, mem.ProtRW)
	if err != nil {
		return 0, err
	}
	d, err := p.AS.Alloc(DirSize, mem.ProtRW)
	if err != nil {
		return 0, err
	}
	if f := p.AS.WriteU32(d+dOffMagic, DirMagic); f != nil {
		return 0, f
	}
	if f := p.AS.WriteU32(d+dOffBuf, uint32(buf)); f != nil {
		return 0, f
	}
	if f := p.AS.WriteU32(d+dOffPos, 0); f != nil {
		return 0, f
	}
	if len(path) >= dPathRoom {
		path = path[:dPathRoom-1]
	}
	if f := p.AS.WriteCString(d+dOffPath, path); f != nil {
		return 0, f
	}
	return d, nil
}

func registerPOSIX(r *core.Registry) {
	r.MustAdd(&core.DataType{Name: "FD", Values: []core.TestValue{
		intVal("NEG_ONE", -1, true),
		intVal("STDIN", 0, false),
		intVal("STDOUT", 1, false),
		value("OPEN_FILE", false, func(e *core.Env) (api.Arg, error) {
			fd, err := openFixtureFD(e, FixtureReadable, true, false)
			return api.Int(int64(fd)), err
		}),
		value("OPEN_WRITE", false, func(e *core.Env) (api.Arg, error) {
			fd, err := openFixtureFD(e, FixtureWritable, true, true)
			return api.Int(int64(fd)), err
		}),
		value("CLOSED_FD", true, func(e *core.Env) (api.Arg, error) {
			fd, err := openFixtureFD(e, FixtureReadable, true, false)
			if err != nil {
				return api.Arg{}, err
			}
			e.P.CloseFD(fd)
			return api.Int(int64(fd)), nil
		}),
		intVal("UNOPENED_99", 99, true),
		intVal("INT_MAX", 0x7FFFFFFF, true),
		intVal("NEG_TWO", -2, true),
	}})

	r.MustAdd(ptrPool("BUF", 4096, nil))
	r.MustAdd(ptrPool("CBUF", 4096, []byte(FixtureContent)))
	r.MustAdd(ptrPool("STATBUF", 88, nil))
	r.MustAdd(ptrPool("PIPEFDS", 8, nil))
	r.MustAdd(ptrPool("TMSPTR", 16, nil))
	r.MustAdd(ptrPool("UTSNAMEPTR", 320, nil))
	r.MustAdd(ptrPool("GIDARR", 64, nil))
	r.MustAdd(ptrPool("SIGSETPTR", 8, []byte{0, 0, 0, 0, 0, 0, 0, 0}))
	r.MustAdd(ptrPool("ITIMERPTR", 16, make([]byte, 16)))
	r.MustAdd(optOutPtrPool("STATUSPTR", 4))
	r.MustAdd(optOutPtrPool("RUSAGEPTR", 72))

	r.MustAdd(&core.DataType{Name: "OFF_T", Values: []core.TestValue{
		intVal("NEG_ONE", -1, true),
		intVal("ZERO", 0, false),
		intVal("ONE", 1, false),
		intVal("PAGE", 4096, false),
		intVal("MAXINT", 0x7FFFFFFF, true),
		intVal("MININT", -0x80000000, true),
	}})
	r.MustAdd(&core.DataType{Name: "WHENCE", Values: []core.TestValue{
		intVal("SEEK_SET", 0, false),
		intVal("SEEK_CUR", 1, false),
		intVal("SEEK_END", 2, false),
		intVal("THREE", 3, true),
		intVal("NEG_ONE", -1, true),
	}})
	r.MustAdd(&core.DataType{Name: "OPEN_FLAGS", Values: []core.TestValue{
		intVal("O_RDONLY", 0, false),
		intVal("O_WRONLY", 1, false),
		intVal("O_RDWR", 2, false),
		intVal("O_CREAT_RDWR", 0x42, false),
		intVal("O_CREAT_EXCL", 0xC2, false),
		intVal("O_TRUNC_WR", 0x201, false),
		intVal("BAD_ACCMODE", 3, true),
		intVal("ALL_BITS", 0x7FFFFFFF, true),
	}})
	r.MustAdd(&core.DataType{Name: "MODE_T", Values: []core.TestValue{
		intVal("ZERO", 0, false),
		intVal("RW_R_R", 0o644, false),
		intVal("ALL_RWX", 0o777, false),
		intVal("SETUID", 0o4755, false),
		intVal("BAD_BITS", 0xFFFF0000, true),
	}})
	r.MustAdd(&core.DataType{Name: "PID", Values: []core.TestValue{
		intVal("NEG_ONE", -1, false), // "any child" / "all processes"
		intVal("ZERO", 0, false),     // own process group
		value("SELF", false, func(e *core.Env) (api.Arg, error) {
			return api.Int(int64(e.P.PID)), nil
		}),
		intVal("INIT", 1, true),
		intVal("UNUSED_99999", 99999, true),
		intVal("INT_MAX", 0x7FFFFFFF, true),
	}})
	r.MustAdd(&core.DataType{Name: "SIG", Values: []core.TestValue{
		intVal("ZERO_PROBE", 0, false),
		intVal("SIGHUP", 1, false),
		intVal("SIGKILL", 9, true), // kill(self, 9) is legal but lethal
		intVal("SIGSEGV", 11, false),
		intVal("SIGTERM", 15, false),
		intVal("SIG31", 31, false),
		intVal("SIG32", 32, true),
		intVal("NEG_ONE", -1, true),
		intVal("SIXTY_FOUR", 64, true),
		intVal("THOUSAND", 1000, true),
	}})
	r.MustAdd(&core.DataType{Name: "UID", Values: []core.TestValue{
		intVal("ROOT", 0, false),
		intVal("CURRENT", 1000, false),
		intVal("NEG_ONE", -1, false), // "no change" in setreuid-style calls
		intVal("NOBODY", 65534, false),
		intVal("INT_MAX", 0x7FFFFFFF, true),
	}})
	r.MustAdd(&core.DataType{Name: "GID", Values: []core.TestValue{
		intVal("ROOT", 0, false),
		intVal("CURRENT", 1000, false),
		intVal("NEG_ONE", -1, false),
		intVal("NOBODY", 65534, false),
		intVal("INT_MAX", 0x7FFFFFFF, true),
	}})
	r.MustAdd(&core.DataType{Name: "AMODE", Values: []core.TestValue{
		intVal("F_OK", 0, false),
		intVal("X_OK", 1, false),
		intVal("W_OK", 2, false),
		intVal("R_OK", 4, false),
		intVal("RWX", 7, false),
		intVal("BAD_BITS", 0xFF, true),
		intVal("NEG_ONE", -1, true),
	}})

	utim := ptrPool("UTIMBUF", 8, []byte{0, 0, 0x6E, 0x38, 0, 0, 0x6E, 0x38})
	utim.Values[0] = value("NULL", false, func(*core.Env) (api.Arg, error) { return api.Ptr(0), nil }) // utime(path, NULL) = "now"
	r.MustAdd(utim)
	r.MustAdd(ptrPool("TIMEVALARR", 16, make([]byte, 16)))

	r.MustAdd(&core.DataType{Name: "DIRP", Values: []core.TestValue{
		value("NULL", true, func(*core.Env) (api.Arg, error) { return api.Ptr(0), nil }),
		value("ONE", true, func(*core.Env) (api.Arg, error) { return api.Ptr(1), nil }),
		value("UNMAPPED", true, func(*core.Env) (api.Arg, error) { return api.Ptr(addrUnmapped), nil }),
		value("VALID", false, func(e *core.Env) (api.Arg, error) {
			d, err := MakeDIR(e.P, FixtureSubdir)
			return api.Ptr(d), err
		}),
		value("GARBAGE_CONTENT", true, func(e *core.Env) (api.Arg, error) {
			a, err := allocString(e, garbageStream, uint32(len(garbageStream)), mem.ProtRW)
			return api.Ptr(a), err
		}),
		value("FREED", true, func(e *core.Env) (api.Arg, error) {
			a, err := freedBuf(e, DirSize)
			return api.Ptr(a), err
		}),
	}})

	r.MustAdd(&core.DataType{Name: "FCNTL_CMD", Values: []core.TestValue{
		intVal("F_DUPFD", 0, false),
		intVal("F_GETFD", 1, false),
		intVal("F_SETFD", 2, false),
		intVal("F_GETFL", 3, false),
		intVal("F_SETFL", 4, false),
		intVal("NINETY_NINE", 99, true),
		intVal("NEG_ONE", -1, true),
	}})
	r.MustAdd(&core.DataType{Name: "FCNTL_ARG", Values: []core.TestValue{
		intVal("ZERO", 0, false),
		intVal("ONE", 1, false),
		intVal("O_APPEND", 0x400, false),
		intVal("MAXDWORD", 0xFFFFFFFF, true),
	}})

	r.MustAdd(&core.DataType{Name: "MAPADDR", Values: []core.TestValue{
		value("NULL", false, func(*core.Env) (api.Arg, error) { return api.Ptr(0), nil }),
		value("MAPPED_BASE", false, func(e *core.Env) (api.Arg, error) {
			a, err := allocBuf(e, 2*mem.PageSize, mem.ProtRW)
			return api.Ptr(a), err
		}),
		value("MISALIGNED", true, func(e *core.Env) (api.Arg, error) {
			a, err := allocBuf(e, mem.PageSize, mem.ProtRW)
			return api.Ptr(a + 13), err
		}),
		value("UNMAPPED_ALIGNED", false, func(*core.Env) (api.Arg, error) { return api.Ptr(0x7F600000), nil }),
		value("SYSTEM_ARENA", true, func(e *core.Env) (api.Arg, error) {
			a, err := systemPtr(e)
			return api.Ptr(a), err
		}),
		value("KERNEL_RANGE", true, func(*core.Env) (api.Arg, error) { return api.Ptr(addrKernel), nil }),
	}})
	r.MustAdd(&core.DataType{Name: "MPROT", Values: []core.TestValue{
		intVal("PROT_NONE", 0, false),
		intVal("PROT_READ", 1, false),
		intVal("PROT_WRITE", 2, false),
		intVal("PROT_RW", 3, false),
		intVal("PROT_EXEC", 4, false),
		intVal("BAD_BITS", 0xFF0, true),
	}})
	r.MustAdd(&core.DataType{Name: "MFLAGS", Values: []core.TestValue{
		intVal("SHARED", 1, false),
		intVal("PRIVATE", 2, false),
		intVal("PRIVATE_ANON", 0x22, false),
		intVal("FIXED_PRIVATE", 0x12, false),
		intVal("ZERO", 0, true),
		intVal("BAD_BITS", 0xFF00, true),
	}})
	r.MustAdd(&core.DataType{Name: "MSFLAGS", Values: []core.TestValue{
		intVal("MS_ASYNC", 1, false),
		intVal("MS_INVALIDATE", 2, false),
		intVal("MS_SYNC", 4, false),
		intVal("ASYNC_AND_SYNC", 5, true), // mutually exclusive
		intVal("BAD_BITS", 0xF0, true),
	}})

	r.MustAdd(argvPool("ARGV"))
	r.MustAdd(argvPool("ENVP"))

	r.MustAdd(&core.DataType{Name: "WAITOPTS", Values: []core.TestValue{
		intVal("ZERO", 0, false),
		intVal("WNOHANG", 1, false),
		intVal("WUNTRACED", 2, false),
		intVal("BAD_BITS", 0xFF0, true),
	}})
	r.MustAdd(&core.DataType{Name: "SIGHOW", Values: []core.TestValue{
		intVal("SIG_BLOCK", 0, false),
		intVal("SIG_UNBLOCK", 1, false),
		intVal("SIG_SETMASK", 2, false),
		intVal("THREE", 3, true),
		intVal("NEG_ONE", -1, true),
	}})
	r.MustAdd(&core.DataType{Name: "SECONDS", Values: []core.TestValue{
		intVal("ZERO", 0, false),
		intVal("ONE", 1, false),
		intVal("HUNDRED", 100, false),
		intVal("MAXDWORD", 0xFFFFFFFF, true),
	}})

	sigact := optOutPtrPool("SIGACTPTR", 16)
	r.MustAdd(sigact)

	tsp := ptrPool("TIMESPECPTR", 16, timespecBytes(1, 500000))
	tsp.Values = append(tsp.Values,
		value("NEG_SEC", true, func(e *core.Env) (api.Arg, error) {
			a, err := allocFilled(e, timespecBytes(-1, 0), mem.ProtRW)
			return api.Ptr(a), err
		}),
		value("NSEC_TOO_BIG", true, func(e *core.Env) (api.Arg, error) {
			a, err := allocFilled(e, timespecBytes(0, 2000000000), mem.ProtRW)
			return api.Ptr(a), err
		}),
	)
	r.MustAdd(tsp)

	r.MustAdd(&core.DataType{Name: "ITIMER_WHICH", Values: []core.TestValue{
		intVal("REAL", 0, false),
		intVal("VIRTUAL", 1, false),
		intVal("PROF", 2, false),
		intVal("THREE", 3, true),
		intVal("NEG_ONE", -1, true),
	}})
	r.MustAdd(&core.DataType{Name: "PTRACE_REQ", Values: []core.TestValue{
		intVal("TRACEME", 0, false),
		intVal("PEEKTEXT", 1, false),
		intVal("CONT", 7, false),
		intVal("KILL", 8, false),
		intVal("NINETY_NINE", 99, true),
		intVal("NEG_ONE", -1, true),
	}})
	r.MustAdd(&core.DataType{Name: "RLIMIT_RES", Values: []core.TestValue{
		intVal("CPU", 0, false),
		intVal("FSIZE", 1, false),
		intVal("DATA", 2, false),
		intVal("STACK", 3, false),
		intVal("NOFILE", 7, false),
		intVal("NINETY_NINE", 99, true),
		intVal("NEG_ONE", -1, true),
	}})
	rl := ptrPool("RLIMITPTR", 16, rlimitBytes(1<<20, 1<<21))
	rl.Values = append(rl.Values, value("CUR_ABOVE_MAX", true, func(e *core.Env) (api.Arg, error) {
		a, err := allocFilled(e, rlimitBytes(1<<21, 1<<20), mem.ProtRW)
		return api.Ptr(a), err
	}))
	r.MustAdd(rl)

	r.MustAdd(&core.DataType{Name: "SYSCONF_NAME", Values: []core.TestValue{
		intVal("ARG_MAX", 0, false),
		intVal("CHILD_MAX", 1, false),
		intVal("CLK_TCK", 2, false),
		intVal("OPEN_MAX", 4, false),
		intVal("PAGESIZE", 30, false),
		intVal("NINE_NINETY_NINE", 999, true),
		intVal("NEG_ONE", -1, true),
	}})
	r.MustAdd(&core.DataType{Name: "PATHCONF_NAME", Values: []core.TestValue{
		intVal("LINK_MAX", 0, false),
		intVal("NAME_MAX", 3, false),
		intVal("PATH_MAX", 4, false),
		intVal("NINE_NINETY_NINE", 999, true),
		intVal("NEG_ONE", -1, true),
	}})
}

func openFixtureFD(e *core.Env, path string, readable, writable bool) (int, error) {
	of, err := e.K.FS.Open(path, readable, writable)
	if err != nil {
		return 0, err
	}
	return e.P.AddFD(&kern.FD{File: of, Read: readable, Write: writable}), nil
}

// argvPool builds NULL-terminated string-array values for the exec
// family.
func argvPool(name string) *core.DataType {
	return &core.DataType{Name: name, Values: []core.TestValue{
		value("NULL", true, func(*core.Env) (api.Arg, error) { return api.Ptr(0), nil }),
		value("ONE", true, func(*core.Env) (api.Arg, error) { return api.Ptr(1), nil }),
		value("UNMAPPED", true, func(*core.Env) (api.Arg, error) { return api.Ptr(addrUnmapped), nil }),
		value("VALID", false, func(e *core.Env) (api.Arg, error) {
			s0, err := allocCString(e, "prog", mem.ProtRW)
			if err != nil {
				return api.Arg{}, err
			}
			s1, err := allocCString(e, "-x", mem.ProtRW)
			if err != nil {
				return api.Arg{}, err
			}
			a, err := allocBuf(e, 12, mem.ProtRW)
			if err != nil {
				return api.Arg{}, err
			}
			_ = e.P.AS.WriteU32(a, uint32(s0))
			_ = e.P.AS.WriteU32(a+4, uint32(s1))
			_ = e.P.AS.WriteU32(a+8, 0)
			return api.Ptr(a), nil
		}),
		value("MISSING_TERMINATOR", true, func(e *core.Env) (api.Arg, error) {
			// A page of pointers to one string, none of them NULL; the
			// scan runs into the guard page.
			s0, err := allocCString(e, "arg", mem.ProtRW)
			if err != nil {
				return api.Arg{}, err
			}
			a, err := allocBuf(e, mem.PageSize, mem.ProtRW)
			if err != nil {
				return api.Arg{}, err
			}
			for off := mem.Addr(0); off < mem.PageSize; off += 4 {
				_ = e.P.AS.WriteU32(a+off, uint32(s0))
			}
			return api.Ptr(a), nil
		}),
		value("GARBAGE_ENTRY", true, func(e *core.Env) (api.Arg, error) {
			a, err := allocBuf(e, 12, mem.ProtRW)
			if err != nil {
				return api.Arg{}, err
			}
			_ = e.P.AS.WriteU32(a, uint32(addrUnmapped))
			_ = e.P.AS.WriteU32(a+4, 0)
			return api.Ptr(a), nil
		}),
	}}
}

func timespecBytes(sec, nsec int32) []byte {
	b := make([]byte, 16)
	put := func(off int, v int32) {
		u := uint32(v)
		b[off] = byte(u)
		b[off+1] = byte(u >> 8)
		b[off+2] = byte(u >> 16)
		b[off+3] = byte(u >> 24)
	}
	put(0, sec)
	put(4, nsec)
	return b
}

func rlimitBytes(cur, maxv uint32) []byte {
	b := make([]byte, 16)
	put := func(off int, v uint32) {
		b[off] = byte(v)
		b[off+1] = byte(v >> 8)
		b[off+2] = byte(v >> 16)
		b[off+3] = byte(v >> 24)
	}
	put(0, cur)
	put(8, maxv)
	return b
}
