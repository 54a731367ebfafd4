package clib

import (
	"ballista/internal/api"
	"ballista/internal/catalog"
	"ballista/internal/sim/kern"
	"ballista/internal/sim/mem"
)

// Simulated FILE structure layout (24 bytes in user memory):
//
//	+0  magic   uint32 — FileMagic while open, FileFreedMagic after an
//	                     msvcrt fclose (glibc frees the block instead)
//	+4  fd      int32  — underlying descriptor in the process FD table
//	+8  flags   uint32 — open-mode bits
//	+12 bufptr  uint32 — the stream buffer; glibc and the CE kernel use
//	                     it without validation
//	+16 ungot   int32  — one pushed-back character, -1 when empty
//	+20 state   uint32 — bit 0: EOF, bit 1: error
const (
	FileMagic      = 0x454C4946 // "FILE"
	FileFreedMagic = 0xDEADBEEF

	fOffMagic  = 0
	fOffFD     = 4
	fOffFlags  = 8
	fOffBuf    = 12
	fOffUngot  = 16
	fOffState  = 20
	FileSize   = 24
	fBufSize   = 4096
	fFlagRead  = 1
	fFlagWrite = 2

	fStateEOF = 1
	fStateErr = 2
)

// MakeFile materializes an open FILE struct (plus its stream buffer) in
// the process address space, wired to descriptor fd.  Test value
// constructors and fopen share it.
func MakeFile(p *kern.Process, fd int, readable, writable bool) (mem.Addr, error) {
	buf, err := p.AS.Alloc(fBufSize, mem.ProtRW)
	if err != nil {
		return 0, err
	}
	f, err := p.AS.Alloc(FileSize, mem.ProtRW)
	if err != nil {
		return 0, err
	}
	var flags uint32
	if readable {
		flags |= fFlagRead
	}
	if writable {
		flags |= fFlagWrite
	}
	if fault := writeFileStruct(p, f, FileMagic, int32(fd), flags, uint32(buf)); fault != nil {
		return 0, fault
	}
	return f, nil
}

func writeFileStruct(p *kern.Process, f mem.Addr, magic uint32, fd int32, flags, buf uint32) *mem.Fault {
	if fault := p.AS.WriteU32(f+fOffMagic, magic); fault != nil {
		return fault
	}
	if fault := p.AS.WriteU32(f+fOffFD, uint32(fd)); fault != nil {
		return fault
	}
	if fault := p.AS.WriteU32(f+fOffFlags, flags); fault != nil {
		return fault
	}
	if fault := p.AS.WriteU32(f+fOffBuf, buf); fault != nil {
		return fault
	}
	if fault := p.AS.WriteU32(f+fOffUngot, 0xFFFFFFFF); fault != nil {
		return fault
	}
	return p.AS.WriteU32(f+fOffState, 0)
}

// CloseFile applies the personality's fclose to a FILE struct:
// msvcrt marks the magic freed and closes the descriptor; glibc/CE also
// release the struct, leaving a dangling pointer.
func CloseFile(p *kern.Process, validates bool, f mem.Addr) {
	fd, fault := p.AS.ReadU32(f + fOffFD)
	if fault == nil {
		p.CloseFD(int(int32(fd)))
	}
	if buf, fault := p.AS.ReadU32(f + fOffBuf); fault == nil && p.AS.BlockSize(mem.Addr(buf)) > 0 {
		_ = p.AS.Free(mem.Addr(buf))
	}
	if validates {
		_ = p.AS.WriteU32(f+fOffMagic, FileFreedMagic)
		return
	}
	if p.AS.BlockSize(f) > 0 {
		_ = p.AS.Free(f)
	}
}

// stream is a validated view of a FILE argument.
type stream struct {
	addr  mem.Addr
	fd    int
	flags uint32
	buf   mem.Addr
	ungot int32
	state uint32
}

// streamErr reports why a FILE argument was rejected.
type streamErr int

const (
	streamOK streamErr = iota
	// streamFault: reading the struct itself faulted (abort already
	// raised on the call).
	streamFault
	// streamBadMagic: msvcrt rejected the stream.
	streamBadMagic
	// streamCrashed: the CE kernel path crashed the machine (already
	// recorded on the call).
	streamCrashed
)

// loadStream implements the personality split on a FILE* argument.
//
//   - All personalities read the struct through user memory: an unmapped
//     FILE* aborts everywhere.
//   - msvcrt (CLibValidatesStreams) then checks the magic and rejects
//     invalid or closed streams with an error return — the caller
//     receives streamBadMagic.
//   - glibc trusts the fields; the caller will typically dereference
//     bufptr and abort on garbage.
//   - The CE CRT (StdioRawKernel) hands bufptr to the kernel unprobed
//     when rawKernel is requested: garbage bufptr = machine crash.
func loadStream(c *api.Call, f mem.Addr, rawKernel bool) (stream, streamErr) {
	var s stream
	s.addr = f
	b, ok := c.UserRead(f, FileSize)
	if !ok {
		return s, streamFault
	}
	s.fd = int(int32(le32(b[fOffFD:])))
	s.flags = le32(b[fOffFlags:])
	s.buf = mem.Addr(le32(b[fOffBuf:]))
	s.ungot = int32(le32(b[fOffUngot:]))
	s.state = le32(b[fOffState:])
	magic := le32(b[fOffMagic:])

	if c.Traits.CLibValidatesStreams {
		if magic != FileMagic {
			return s, streamBadMagic
		}
		if c.P.FD(s.fd) == nil {
			return s, streamBadMagic
		}
		return s, streamOK
	}

	if rawKernel && c.Traits.StdioRawKernel {
		// The CE kernel touches the stream buffer without probing.
		if _, res := c.K.RawRead(c.P.AS, s.buf, 1); res == kern.RawCrashed {
			c.CrashedOut()
			return s, streamCrashed
		} else if res == kern.RawFault {
			c.MemFault(&mem.Fault{Addr: s.buf, Kind: mem.FaultUnmapped})
			return s, streamFault
		}
		return s, streamOK
	}

	// glibc path: touch the stream buffer in user mode.
	if _, ok := c.UserRead(s.buf, 1); !ok {
		return s, streamFault
	}
	return s, streamOK
}

// ceRaw reports whether this function+variant is one of the seventeen CE
// raw-kernel stream functions.
func ceRaw(c *api.Call) bool {
	return c.Traits.StdioRawKernel && catalog.CEStdioRawKernel(c.Name, c.Wide)
}

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// streamRead reads up to n bytes from the stream's descriptor, honouring
// ungetc and the console-blocking trait.  It returns the bytes read and
// false if the call reached a terminal outcome (hang or abort).
func streamRead(c *api.Call, s *stream, n int) ([]byte, bool) {
	if n <= 0 {
		return nil, true
	}
	var out []byte
	if s.ungot >= 0 {
		out = append(out, byte(s.ungot))
		_ = c.P.AS.WriteU32(s.addr+fOffUngot, 0xFFFFFFFF)
		n--
	}
	fd := c.P.FD(s.fd)
	if fd == nil {
		// glibc reading through a garbage descriptor: report EOF+error
		// state rather than fault (the fault opportunities were bufptr).
		setState(c, s, fStateErr)
		return out, true
	}
	if fd.Pipe != nil {
		if len(fd.Pipe.Buf) == 0 {
			if fd.Pipe.WritersOpen > 0 && c.Traits.StdinBlocks {
				c.Hang()
				return nil, false
			}
			setState(c, s, fStateEOF)
			return out, true
		}
		take := n
		if take > len(fd.Pipe.Buf) {
			take = len(fd.Pipe.Buf)
		}
		out = append(out, fd.Pipe.Buf[:take]...)
		fd.Pipe.Buf = fd.Pipe.Buf[take:]
		return out, true
	}
	if fd.File == nil || !fd.File.Readable {
		setState(c, s, fStateErr)
		return out, true
	}
	data, err := fd.File.Read(n)
	if err != nil {
		setState(c, s, fStateErr)
		return out, true
	}
	if len(data) == 0 {
		setState(c, s, fStateEOF)
	}
	if out == nil {
		return data, true
	}
	return append(out, data...), true
}

// streamWrite writes bytes to the stream's descriptor.
func streamWrite(c *api.Call, s *stream, data []byte) (int, bool) {
	fd := c.P.FD(s.fd)
	if fd == nil {
		setState(c, s, fStateErr)
		return 0, true
	}
	if fd.Pipe != nil {
		room := fd.Pipe.Capacity - len(fd.Pipe.Buf)
		if room > 0 {
			take := len(data)
			if take > room {
				take = room
			}
			fd.Pipe.Buf = append(fd.Pipe.Buf, data[:take]...)
		}
		return len(data), true
	}
	if fd.File == nil || !fd.File.Writable {
		setState(c, s, fStateErr)
		return 0, true
	}
	n, err := fd.File.Write(data)
	if err != nil {
		setState(c, s, fStateErr)
		return n, true
	}
	return n, true
}

func setState(c *api.Call, s *stream, bit uint32) {
	s.state |= bit
	_ = c.P.AS.WriteU32(s.addr+fOffState, s.state)
}
