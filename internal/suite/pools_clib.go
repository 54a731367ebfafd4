package suite

import (
	"math"
	"strings"

	"ballista/internal/api"
	"ballista/internal/clib"
	"ballista/internal/core"
	"ballista/internal/sim/kern"
	"ballista/internal/sim/mem"
)

// garbageFileBytes is the paper's killer test value: "the actual
// parameter was a string buffer typecast to a file pointer".  The bytes
// that land in the FILE struct's buffer-pointer field decode to an
// unmapped user-arena address.
const garbageFileBytes = "Ballista! invalid file pointer value."

func registerCLib(r *core.Registry) {
	r.MustAdd(&core.DataType{Name: "CINT", Values: []core.TestValue{
		intVal("ZERO", 0, false),
		intVal("ONE", 1, false),
		intVal("UPPER_A", 65, false),
		intVal("LOWER_Z", 122, false),
		intVal("ASCII_MAX", 127, false),
		intVal("HIGH_BIT", 128, false),
		intVal("BYTE_MAX", 255, false),
		intVal("EOF_VAL", -1, false),
		intVal("NEG_TWO", -2, false),
		intVal("JUST_PAST_TABLE", 256, true),
		intVal("THOUSAND", 1000, true),
		intVal("INT_MAX", 0x7FFFFFFF, true),
		intVal("INT_MIN", -0x80000000, true),
	}})
	r.MustAdd(&core.DataType{Name: "CLONG", Values: []core.TestValue{
		intVal("ZERO", 0, false),
		intVal("ONE", 1, false),
		intVal("NEG_ONE", -1, false),
		intVal("PAGE", 4096, false),
		intVal("LONG_MAX", 0x7FFFFFFF, true),
		intVal("LONG_MIN", -0x80000000, true),
	}})
	r.MustAdd(&core.DataType{Name: "DOUBLE", Values: []core.TestValue{
		floatVal("ZERO", 0, false),
		floatVal("ONE", 1, false),
		floatVal("NEG_ONE", -1, false),
		floatVal("HALF", 0.5, false),
		floatVal("NEG_HALF", -0.5, false),
		floatVal("PI", 3.14159265358979, false),
		floatVal("HUGE", 1e308, false),
		floatVal("NEG_HUGE", -1e308, false),
		floatVal("DENORMAL", 5e-324, false),
		floatVal("NAN", math.NaN(), true),
		floatVal("POS_INF", math.Inf(1), true),
		floatVal("NEG_INF", math.Inf(-1), true),
	}})

	r.MustAdd(cstringPool("CSTRING"))
	r.MustAdd(&core.DataType{Name: "TOKBUF", Values: []core.TestValue{
		value("NULL_CONTINUATION", false, func(*core.Env) (api.Arg, error) { return api.Ptr(0), nil }),
		value("MUTABLE", false, func(e *core.Env) (api.Arg, error) {
			a, err := allocCString(e, "alpha,beta,,gamma", mem.ProtRW)
			return api.Ptr(a), err
		}),
		value("READONLY", true, func(e *core.Env) (api.Arg, error) {
			a, err := allocCString(e, "alpha,beta", mem.ProtRead)
			return api.Ptr(a), err
		}),
		value("UNMAPPED", true, func(*core.Env) (api.Arg, error) { return api.Ptr(addrUnmapped), nil }),
		value("ONE", true, func(*core.Env) (api.Arg, error) { return api.Ptr(1), nil }),
		value("FREED", true, func(e *core.Env) (api.Arg, error) {
			a, err := freedBuf(e, 64)
			return api.Ptr(a), err
		}),
	}})

	// Memory buffers: valid storage of assorted capacities placed against
	// the guard page, so overruns fault at the advertised size.  The
	// paper's very low Windows C-memory Abort rates rule out wild-pointer
	// values in this pool; Linux's higher rate comes from glibc's
	// unvalidated heap functions (see HEAPBLK).
	r.MustAdd(&core.DataType{Name: "MEMBUF", Values: []core.TestValue{
		strbufEnd("ROOM64", 64, false),
		strbufEnd("ROOM256", 256, false),
		value("PAGE4K", false, func(e *core.Env) (api.Arg, error) {
			a, err := allocBuf(e, 4096, mem.ProtRW)
			return api.Ptr(a), err
		}),
		value("BUF16K", false, func(e *core.Env) (api.Arg, error) {
			a, err := allocBuf(e, 16384, mem.ProtRW)
			return api.Ptr(a), err
		}),
	}})
	r.MustAdd(&core.DataType{Name: "CMEMBUF", Values: []core.TestValue{
		value("CONTENT64", false, func(e *core.Env) (api.Arg, error) {
			a, err := endBuf(e, 64)
			if err != nil {
				return api.Arg{}, err
			}
			_ = e.P.AS.Write(a, []byte(FixtureContent)[:64])
			return api.Ptr(a), nil
		}),
		strbufEnd("ZERO256", 256, false),
		value("PAGE4K", false, func(e *core.Env) (api.Arg, error) {
			a, err := allocString(e, FixtureContent, uint32(len(FixtureContent)), mem.ProtRW)
			return api.Ptr(a), err
		}),
		value("BUF16K", false, func(e *core.Env) (api.Arg, error) {
			a, err := allocBuf(e, 16384, mem.ProtRead)
			return api.Ptr(a), err
		}),
	}})
	r.MustAdd(&core.DataType{Name: "MEMLEN", Values: []core.TestValue{
		intVal("ZERO", 0, false),
		intVal("ONE", 1, false),
		intVal("FOUR", 4, false),
		intVal("EIGHT", 8, false),
		intVal("SIXTEEN", 16, false),
		intVal("SIXTY_FOUR", 64, false),
		intVal("K256", 256, false),
		intVal("MAXUINT32", 0xFFFFFFFF, true),
	}})

	r.MustAdd(&core.DataType{Name: "HEAPBLK", Values: []core.TestValue{
		value("NULL", false, func(*core.Env) (api.Arg, error) { return api.Ptr(0), nil }),
		value("VALID", false, func(e *core.Env) (api.Arg, error) {
			a, err := allocBuf(e, 64, mem.ProtRW)
			return api.Ptr(a), err
		}),
		value("ALREADY_FREED", true, func(e *core.Env) (api.Arg, error) {
			a, err := freedBuf(e, 64)
			return api.Ptr(a), err
		}),
		value("INTERIOR", true, func(e *core.Env) (api.Arg, error) {
			a, err := allocBuf(e, 64, mem.ProtRW)
			return api.Ptr(a + 8), err
		}),
		value("GARBAGE", true, func(*core.Env) (api.Arg, error) { return api.Ptr(addrUnmapped), nil }),
		value("NOT_HEAP", true, func(e *core.Env) (api.Arg, error) {
			// A pointer to mapped memory that is not an allocation base:
			// page 2 of a two-page block.
			a, err := allocBuf(e, 2*mem.PageSize, mem.ProtRW)
			return api.Ptr(a + mem.PageSize), err
		}),
		value("ONE", true, func(*core.Env) (api.Arg, error) { return api.Ptr(1), nil }),
	}})

	r.MustAdd(&core.DataType{Name: "FILEPTR", Values: []core.TestValue{
		value("NULL", true, func(*core.Env) (api.Arg, error) { return api.Ptr(0), nil }),
		value("ONE", true, func(*core.Env) (api.Arg, error) { return api.Ptr(1), nil }),
		value("UNMAPPED", true, func(*core.Env) (api.Arg, error) { return api.Ptr(addrUnmapped), nil }),
		value("BUFFER_CAST", true, func(e *core.Env) (api.Arg, error) {
			a, err := allocString(e, garbageFileBytes, uint32(len(garbageFileBytes)), mem.ProtRW)
			return api.Ptr(a), err
		}),
		value("ZERO_FILLED", true, func(e *core.Env) (api.Arg, error) {
			a, err := allocBuf(e, clib.FileSize, mem.ProtRW)
			return api.Ptr(a), err
		}),
		value("CLOSED", true, func(e *core.Env) (api.Arg, error) {
			f, err := makeOpenFile(e, FixtureReadable, true, false)
			if err != nil {
				return api.Arg{}, err
			}
			clib.CloseFile(e.P, e.Profile.Traits.CLibValidatesStreams, f)
			return api.Ptr(f), nil
		}),
		value("FREED", true, func(e *core.Env) (api.Arg, error) {
			a, err := freedBuf(e, clib.FileSize)
			return api.Ptr(a), err
		}),
		value("OPEN_READ", false, func(e *core.Env) (api.Arg, error) {
			f, err := makeOpenFile(e, FixtureReadable, true, false)
			return api.Ptr(f), err
		}),
		value("OPEN_WRITE", false, func(e *core.Env) (api.Arg, error) {
			f, err := makeOpenFile(e, FixtureWritable, false, true)
			return api.Ptr(f), err
		}),
		value("STDIN", false, func(e *core.Env) (api.Arg, error) {
			f, err := clib.MakeFile(e.P, 0, true, false)
			return api.Ptr(f), err
		}),
		value("STDOUT", false, func(e *core.Env) (api.Arg, error) {
			f, err := clib.MakeFile(e.P, 1, false, true)
			return api.Ptr(f), err
		}),
		value("STDERR", false, func(e *core.Env) (api.Arg, error) {
			f, err := clib.MakeFile(e.P, 2, false, true)
			return api.Ptr(f), err
		}),
	}})

	r.MustAdd(&core.DataType{Name: "FILEMODE", Values: []core.TestValue{
		value("NULL", true, func(*core.Env) (api.Arg, error) { return api.Ptr(0), nil }),
		strVal("R", "r", false),
		strVal("W", "w", false),
		strVal("A", "a", false),
		strVal("RB", "rb", false),
		strVal("R_PLUS", "r+", false),
		strVal("W_PLUS", "w+", false),
		strVal("EMPTY", "", true),
		strVal("GARBAGE_MODE", "q#!", true),
		value("UNMAPPED", true, func(*core.Env) (api.Arg, error) { return api.Ptr(addrUnmapped), nil }),
	}})

	r.MustAdd(&core.DataType{Name: "FMT", Values: []core.TestValue{
		value("NULL", true, func(*core.Env) (api.Arg, error) { return api.Ptr(0), nil }),
		strVal("EMPTY", "", false),
		strVal("PLAIN", "plain text, no conversions", false),
		strVal("PCT_D", "value=%d", false),
		strVal("PCT_S", "%s", true),
		strVal("PCT_N", "%n", true),
		strVal("PCT_S_TRIPLE", "%s%s%s", true),
		strVal("PCT_PCT", "100%%", false),
		strVal("MIXED", "%d of %u at %x", false),
		value("UNMAPPED", true, func(*core.Env) (api.Arg, error) { return api.Ptr(addrUnmapped), nil }),
	}})

	r.MustAdd(&core.DataType{Name: "TIME_T", Values: []core.TestValue{
		intVal("ZERO", 0, false),
		intVal("ONE", 1, false),
		intVal("Y2K", 946684800, false),
		intVal("NEG_ONE", -1, false),
		intVal("INT_MAX", 0x7FFFFFFF, true),
		intVal("INT_MIN", -0x80000000, true),
	}})
	r.MustAdd(&core.DataType{Name: "TIMETPTR", Values: []core.TestValue{
		value("NULL", false, func(*core.Env) (api.Arg, error) { return api.Ptr(0), nil }),
		value("VALID", false, func(e *core.Env) (api.Arg, error) {
			a, err := allocFilled(e, []byte{0, 0, 0x6E, 0x38}, mem.ProtRW) // ~2000 AD
			return api.Ptr(a), err
		}),
		value("GARBAGE_CONTENT", false, func(e *core.Env) (api.Arg, error) {
			a, err := allocFilled(e, []byte{0xFF, 0xFF, 0xFF, 0x7F}, mem.ProtRW)
			return api.Ptr(a), err
		}),
		value("NEGATIVE_CONTENT", false, func(e *core.Env) (api.Arg, error) {
			a, err := allocFilled(e, []byte{0xFF, 0xFF, 0xFF, 0xFF}, mem.ProtRW)
			return api.Ptr(a), err
		}),
		value("READONLY", true, func(e *core.Env) (api.Arg, error) {
			a, err := allocFilled(e, []byte{0, 0, 0, 0}, mem.ProtRead)
			return api.Ptr(a), err
		}),
		value("UNMAPPED", true, func(*core.Env) (api.Arg, error) { return api.Ptr(addrUnmapped), nil }),
	}})
	r.MustAdd(&core.DataType{Name: "TMPTR", Values: []core.TestValue{
		value("VALID", false, func(e *core.Env) (api.Arg, error) {
			a, err := allocFilled(e, tmBytes(30, 15, 12, 15, 5, 99, 2, 165, 0), mem.ProtRW)
			return api.Ptr(a), err
		}),
		value("EPOCH", false, func(e *core.Env) (api.Arg, error) {
			a, err := allocFilled(e, tmBytes(0, 0, 0, 1, 0, 70, 4, 0, 0), mem.ProtRW)
			return api.Ptr(a), err
		}),
		value("MONTH_13", true, func(e *core.Env) (api.Arg, error) {
			a, err := allocFilled(e, tmBytes(0, 0, 0, 1, 13, 99, 0, 0, 0), mem.ProtRW)
			return api.Ptr(a), err
		}),
		value("WDAY_NEG", true, func(e *core.Env) (api.Arg, error) {
			a, err := allocFilled(e, tmBytes(0, 0, 0, 1, 0, 99, -5, 0, 0), mem.ProtRW)
			return api.Ptr(a), err
		}),
		value("ALL_MAXINT", true, func(e *core.Env) (api.Arg, error) {
			x := int32(0x7FFFFFFF)
			a, err := allocFilled(e, tmBytes(x, x, x, x, x, x, x, x, x), mem.ProtRW)
			return api.Ptr(a), err
		}),
		value("NULL", true, func(*core.Env) (api.Arg, error) { return api.Ptr(0), nil }),
		value("UNMAPPED", true, func(*core.Env) (api.Arg, error) { return api.Ptr(addrUnmapped), nil }),
	}})

	r.MustAdd(ptrPool("FPOSPTR", 8, []byte{0, 0, 0, 0, 0, 0, 0, 0}))
	r.MustAdd(ptrPool("INTPTR", 4, nil))
	r.MustAdd(ptrPool("DOUBLEPTR", 8, nil))

	r.MustAdd(&core.DataType{Name: "SEEKORIGIN", Values: []core.TestValue{
		intVal("SEEK_SET", 0, false),
		intVal("SEEK_CUR", 1, false),
		intVal("SEEK_END", 2, false),
		intVal("THREE", 3, true),
		intVal("NEG_ONE", -1, true),
		intVal("HUGE", 0x7FFFFFFF, true),
	}})
	r.MustAdd(&core.DataType{Name: "BUFMODE", Values: []core.TestValue{
		intVal("IOFBF", 0, false),
		intVal("IOLBF", 1, false),
		intVal("IONBF", 2, false),
		intVal("THREE", 3, true),
		intVal("NEG_ONE", -1, true),
	}})

	// PATH is shared by C fopen/freopen and the POSIX surface.
	r.MustAdd(pathPool("PATH", "/"))
}

// strVal materializes a constant string (wide-aware) in user memory.
func strVal(name, s string, exceptional bool) core.TestValue {
	return value(name, exceptional, func(e *core.Env) (api.Arg, error) {
		a, err := allocCString(e, s, mem.ProtRW)
		return api.Ptr(a), err
	})
}

// The long strings of the input-string, path and environment-name pools.
// Their constructors name them rather than capture them, so building a
// registry allocates no closure for them.
var (
	pageSizedString = repeatAlphabet('a', 3000)
	huge16KString   = repeatAlphabet('A', 16384)
	tooLongPath     = ScratchDir + "/" + strings.Repeat("p", 512)
	hugeEnvName     = strings.Repeat("E", 8192)
)

// cstringPool is the shared input-string pool: content variants over
// valid storage.  AT_PAGE_END places the terminator in the last byte of
// a page, so CRT string intrinsics that read a word past the NUL
// (Traits.StrWordReads) fault where byte-wise code does not — one of the
// mechanisms behind the Windows-vs-glibc C-string asymmetry.
func cstringPool(name string) *core.DataType {
	return &core.DataType{Name: name, Values: []core.TestValue{
		strVal("EMPTY", "", false),
		strVal("SHORT", "abc", false),
		strVal("WHITESPACE", " \t ", false),
		strVal("PUNCT", "!@#$^&()[]{};:,.~", false),
		strVal("SENTENCE", "the quick brown fox jumps over the lazy dog", false),
		strVal("NONASCII", "\xfe\xed\xfa\xce\xc0\xff\xee", false),
		value("PAGE_SIZED", false, func(e *core.Env) (api.Arg, error) {
			a, err := allocCString(e, pageSizedString, mem.ProtRW)
			return api.Ptr(a), err
		}),
		value("HUGE_16K", false, func(e *core.Env) (api.Arg, error) {
			a, err := allocCString(e, huge16KString, mem.ProtRW)
			return api.Ptr(a), err
		}),
		value("AT_PAGE_END", true, func(e *core.Env) (api.Arg, error) {
			return strAtPageEnd(e, 63)
		}),
		strVal("FORMAT_CHARS", "%s%d%n", false),
	}}
}

// strAtPageEnd materializes a string of n characters whose terminator is
// the last byte (or UTF-16 unit) of the mapped page.
func strAtPageEnd(e *core.Env, n uint32) (api.Arg, error) {
	width := uint32(1)
	if e.Wide {
		width = 2
	}
	room := (n + 1) * width
	a, err := endBuf(e, room)
	if err != nil {
		return api.Arg{}, err
	}
	b := make([]byte, room)
	for i := uint32(0); i < n; i++ {
		b[i*width] = byte('e')
	}
	if f := e.P.AS.Write(a, b); f != nil {
		return api.Arg{}, f
	}
	return api.Ptr(a), nil
}

// pathPool builds a path-string pool rooted at the fixture tree.
func pathPool(name, sep string) *core.DataType {
	_ = sep
	return &core.DataType{Name: name, Values: []core.TestValue{
		value("NULL", true, func(*core.Env) (api.Arg, error) { return api.Ptr(0), nil }),
		value("ONE", true, func(*core.Env) (api.Arg, error) { return api.Ptr(1), nil }),
		value("UNMAPPED", true, func(*core.Env) (api.Arg, error) { return api.Ptr(addrUnmapped), nil }),
		strVal("EMPTY", "", true),
		strVal("EXISTING_FILE", FixtureReadable, false),
		strVal("EXISTING_DIR", FixtureSubdir, false),
		strVal("READONLY_FILE", FixtureReadOnly, false),
		strVal("NEW_FILE", ScratchDir+"/fresh.txt", false),
		strVal("MISSING_DIR_COMPONENT", "/no/such/dir/file.txt", false),
		value("TOO_LONG", true, func(e *core.Env) (api.Arg, error) {
			a, err := allocCString(e, tooLongPath, mem.ProtRW)
			return api.Ptr(a), err
		}),
		strVal("ILLEGAL_CHARS", "bad<|>*?name", true),
	}}
}

func tmBytes(fields ...int32) []byte {
	b := make([]byte, 0, 36)
	for _, f := range fields {
		v := uint32(f)
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return b
}

// makeOpenFile opens a fixture path and wraps it in a FILE struct.
func makeOpenFile(e *core.Env, path string, readable, writable bool) (mem.Addr, error) {
	of, err := e.K.FS.Open(path, readable, writable)
	if err != nil {
		return 0, err
	}
	fd := e.P.AddFD(&kern.FD{File: of, Read: readable, Write: writable})
	return clib.MakeFile(e.P, fd, readable, writable)
}
