package clib

import (
	"strings"

	"ballista/internal/api"
	"ballista/internal/sim/mem"
)

// charWidth returns the encoding width for the current variant (2 for
// the CE UNICODE surface).
func charWidth(c *api.Call) uint32 {
	if c.Wide {
		return 2
	}
	return 1
}

// encode renders a Go string in the variant's encoding, without a
// terminator.
func encode(c *api.Call, s string) []byte {
	if !c.Wide {
		return []byte(s)
	}
	b := make([]byte, 0, 2*len(s))
	for _, r := range s {
		b = append(b, byte(r), byte(uint16(r)>>8))
	}
	return b
}

// terminator returns the variant's NUL.
func terminator(c *api.Call) []byte {
	if c.Wide {
		return []byte{0, 0}
	}
	return []byte{0}
}

// readStr reads a string argument the way the personality's string
// routines do: byte-wise for glibc; with a trailing word read for the
// MSVC intrinsics (Traits.StrWordReads), which faults when the
// terminator sits in the last bytes of a mapping.
func readStr(c *api.Call, addr mem.Addr) (string, bool) {
	s, ok := c.UserString(addr)
	if !ok {
		return "", false
	}
	if c.Traits.StrWordReads {
		end := addr + mem.Addr((uint32(len(s))+1)*charWidth(c))
		if !c.P.AS.Mapped(end, 3, mem.ProtRead) {
			c.MemFault(&mem.Fault{Addr: end, Kind: mem.FaultUnmapped})
			return "", false
		}
	}
	return s, true
}

func registerString(m map[string]Impl) {
	m["strlen"] = func(c *api.Call) {
		s, ok := readStr(c, c.PtrArg(0))
		if !ok {
			return
		}
		c.Ret(int64(len(s)))
	}
	m["strcmp"] = func(c *api.Call) {
		a, ok := readStr(c, c.PtrArg(0))
		if !ok {
			return
		}
		b, ok := readStr(c, c.PtrArg(1))
		if !ok {
			return
		}
		c.Ret(int64(strings.Compare(a, b)))
	}
	m["strncmp"] = func(c *api.Call) {
		n := int(c.U32(2))
		a, ok := readStr(c, c.PtrArg(0))
		if !ok {
			return
		}
		b, ok := readStr(c, c.PtrArg(1))
		if !ok {
			return
		}
		if n < len(a) {
			a = a[:n]
		}
		if n < len(b) {
			b = b[:n]
		}
		c.Ret(int64(strings.Compare(a, b)))
	}
	m["strcpy"] = func(c *api.Call) {
		src, ok := readStr(c, c.PtrArg(1))
		if !ok {
			return
		}
		dst := c.PtrArg(0)
		if !c.UserWrite(dst, append(encode(c, src), terminator(c)...)) {
			return
		}
		c.Ret(int64(uint32(dst)))
	}
	m["strncpy"] = cStrncpy
	m["strcat"] = func(c *api.Call) {
		dst := c.PtrArg(0)
		old, ok := readStr(c, dst)
		if !ok {
			return
		}
		src, ok := readStr(c, c.PtrArg(1))
		if !ok {
			return
		}
		at := dst + mem.Addr(uint32(len(old))*charWidth(c))
		if !c.UserWrite(at, append(encode(c, src), terminator(c)...)) {
			return
		}
		c.Ret(int64(uint32(dst)))
	}
	m["strncat"] = func(c *api.Call) {
		n := int(c.U32(2))
		dst := c.PtrArg(0)
		old, ok := readStr(c, dst)
		if !ok {
			return
		}
		src, ok := readStr(c, c.PtrArg(1))
		if !ok {
			return
		}
		if n < len(src) {
			src = src[:n]
		}
		at := dst + mem.Addr(uint32(len(old))*charWidth(c))
		if !c.UserWrite(at, append(encode(c, src), terminator(c)...)) {
			return
		}
		c.Ret(int64(uint32(dst)))
	}
	m["strchr"] = func(c *api.Call) {
		s, ok := readStr(c, c.PtrArg(0))
		if !ok {
			return
		}
		if i := strings.IndexByte(s, byte(c.Int(1))); i >= 0 {
			c.Ret(int64(uint32(c.PtrArg(0)) + uint32(i)*charWidth(c)))
			return
		}
		c.Ret(0)
	}
	m["strrchr"] = func(c *api.Call) {
		s, ok := readStr(c, c.PtrArg(0))
		if !ok {
			return
		}
		if i := strings.LastIndexByte(s, byte(c.Int(1))); i >= 0 {
			c.Ret(int64(uint32(c.PtrArg(0)) + uint32(i)*charWidth(c)))
			return
		}
		c.Ret(0)
	}
	m["strstr"] = func(c *api.Call) {
		hay, ok := readStr(c, c.PtrArg(0))
		if !ok {
			return
		}
		needle, ok := readStr(c, c.PtrArg(1))
		if !ok {
			return
		}
		if i := strings.Index(hay, needle); i >= 0 {
			c.Ret(int64(uint32(c.PtrArg(0)) + uint32(i)*charWidth(c)))
			return
		}
		c.Ret(0)
	}
	m["strspn"] = func(c *api.Call) {
		s, ok := readStr(c, c.PtrArg(0))
		if !ok {
			return
		}
		set, ok := readStr(c, c.PtrArg(1))
		if !ok {
			return
		}
		n := 0
		for n < len(s) && strings.IndexByte(set, s[n]) >= 0 {
			n++
		}
		c.Ret(int64(n))
	}
	m["strcspn"] = func(c *api.Call) {
		s, ok := readStr(c, c.PtrArg(0))
		if !ok {
			return
		}
		set, ok := readStr(c, c.PtrArg(1))
		if !ok {
			return
		}
		n := 0
		for n < len(s) && strings.IndexByte(set, s[n]) < 0 {
			n++
		}
		c.Ret(int64(n))
	}
	m["strpbrk"] = func(c *api.Call) {
		s, ok := readStr(c, c.PtrArg(0))
		if !ok {
			return
		}
		set, ok := readStr(c, c.PtrArg(1))
		if !ok {
			return
		}
		if i := strings.IndexAny(s, set); i >= 0 {
			c.Ret(int64(uint32(c.PtrArg(0)) + uint32(i)*charWidth(c)))
			return
		}
		c.Ret(0)
	}
	m["strtok"] = func(c *api.Call) {
		if c.PtrArg(0) == 0 {
			// Continuation call with no saved state: both CRTs return
			// NULL.
			c.Ret(0)
			return
		}
		s, ok := readStr(c, c.PtrArg(0))
		if !ok {
			return
		}
		delims, ok := readStr(c, c.PtrArg(1))
		if !ok {
			return
		}
		start := 0
		for start < len(s) && strings.IndexByte(delims, s[start]) >= 0 {
			start++
		}
		if start == len(s) {
			c.Ret(0)
			return
		}
		end := start
		for end < len(s) && strings.IndexByte(delims, s[end]) < 0 {
			end++
		}
		// strtok writes a terminator into the caller's buffer.
		if end < len(s) {
			if !c.UserWrite(c.PtrArg(0)+mem.Addr(uint32(end)*charWidth(c)), terminator(c)) {
				return
			}
		}
		c.Ret(int64(uint32(c.PtrArg(0)) + uint32(start)*charWidth(c)))
	}
}

// cStrncpy pads to exactly n characters, so an n larger than the
// destination block is a wild write.  On Windows 98/98 SE (and the CE
// UNICODE variant) Table 3 records the wild write reaching shared state:
// the MechCorrupt defect fires when an overrun is observed.
func cStrncpy(c *api.Call) {
	n64 := uint64(c.U32(2))
	dst := c.PtrArg(0)
	src, ok := readStr(c, c.PtrArg(1))
	if !ok {
		return
	}
	w := uint64(charWidth(c))
	span := n64 * w
	if span > maxSpan {
		span = maxSpan
	}
	overrun := span > 0 && !c.P.AS.Mapped(dst, uint32(span), mem.ProtWrite) &&
		c.P.AS.Mapped(dst, 1, mem.ProtWrite)
	if c.DefectCorrupt(overrun) {
		return
	}
	if span == 0 {
		c.Ret(int64(uint32(dst)))
		return
	}
	if !c.UserWritePadded(dst, encode(c, src), uint32(span), 0) {
		return
	}
	c.Ret(int64(uint32(dst)))
}
