package clib

import (
	"ballista/internal/api"
	"ballista/internal/sim/mem"
)

// mallocLimit rejects requests the simulated CRT heap cannot satisfy.
const mallocLimit = 1 << 28

func registerMemory(m map[string]Impl) {
	m["malloc"] = cMalloc
	m["calloc"] = cCalloc
	m["realloc"] = cRealloc
	m["free"] = cFree
	m["memcpy"] = cMemcpy
	m["memmove"] = cMemcpy // identical observable behaviour here
	m["memset"] = cMemset
	m["memcmp"] = cMemcmp
	m["memchr"] = cMemchr
}

func cMalloc(c *api.Call) {
	size := uint64(c.U32(0))
	if size > mallocLimit {
		c.FailErrnoRet(0, api.ENOMEM)
		return
	}
	a, err := c.P.AS.Alloc(uint32(size), mem.ProtRW)
	if err != nil {
		c.FailErrnoRet(0, api.ENOMEM)
		return
	}
	c.Ret(int64(uint32(a)))
}

func cCalloc(c *api.Call) {
	n, size := uint64(c.U32(0)), uint64(c.U32(1))
	total := n * size
	if total > mallocLimit || (size != 0 && total/size != n) {
		c.FailErrnoRet(0, api.ENOMEM)
		return
	}
	a, err := c.P.AS.Alloc(uint32(total), mem.ProtRW)
	if err != nil {
		c.FailErrnoRet(0, api.ENOMEM)
		return
	}
	c.Ret(int64(uint32(a))) // Alloc'd pages are zeroed
}

// heapCheck applies the personality split to a heap-block argument:
// msvcrt validates the pointer against the allocator's block table and
// reports failure; glibc reads the chunk header just below the pointer
// and trusts what it finds — dangling and wild pointers abort.
func heapCheck(c *api.Call, a mem.Addr) bool {
	if c.P.AS.BlockSize(a) > 0 {
		return true
	}
	if c.Traits.CLibValidatesHeap {
		c.FailErrnoRet(0, api.EINVAL)
		return false
	}
	// glibc: read the "chunk header".
	if _, ok := c.UserRead(a-8, 16); !ok {
		return false
	}
	// Mapped memory that is not a block base: corrupt chunk metadata.
	c.Signal(api.SIGABRT)
	return false
}

func cFree(c *api.Call) {
	a := c.PtrArg(0)
	if a == 0 {
		c.Ret(0) // free(NULL) is defined to do nothing
		return
	}
	if !heapCheck(c, a) {
		return
	}
	_ = c.P.AS.Free(a)
	c.Ret(0)
}

func cRealloc(c *api.Call) {
	a := c.PtrArg(0)
	size := uint64(c.U32(1))
	if a == 0 {
		cMalloc(shiftArgs(c))
		return
	}
	if !heapCheck(c, a) {
		return
	}
	if size > mallocLimit {
		c.FailErrnoRet(0, api.ENOMEM)
		return
	}
	old := c.P.AS.BlockSize(a)
	nb, err := c.P.AS.Alloc(uint32(size), mem.ProtRW)
	if err != nil {
		c.FailErrnoRet(0, api.ENOMEM)
		return
	}
	n := old
	if uint64(n) > size {
		n = uint32(size)
	}
	if n > 0 {
		if data, fault := c.P.AS.Read(a, n); fault == nil {
			_ = c.P.AS.Write(nb, data)
		}
	}
	_ = c.P.AS.Free(a)
	c.Ret(int64(uint32(nb)))
}

// shiftArgs builds a view of the call with the first argument dropped
// (realloc(NULL, n) == malloc(n)).
func shiftArgs(c *api.Call) *api.Call {
	c.Args = c.Args[1:]
	return c
}

func cMemcpy(c *api.Call) {
	n := clampSpan(uint64(c.U32(2)))
	dst := c.PtrArg(0)
	if n == 0 {
		c.Ret(int64(uint32(dst)))
		return
	}
	data, ok := c.UserRead(c.PtrArg(1), n)
	if !ok {
		return
	}
	if !c.UserWrite(dst, data) {
		return
	}
	c.Ret(int64(uint32(dst)))
}

func cMemset(c *api.Call) {
	n := clampSpan(uint64(c.U32(2)))
	dst := c.PtrArg(0)
	if n == 0 {
		c.Ret(int64(uint32(dst)))
		return
	}
	if !c.UserWritePadded(dst, nil, n, byte(c.Int(1))) {
		return
	}
	c.Ret(int64(uint32(dst)))
}

func cMemcmp(c *api.Call) {
	n := clampSpan(uint64(c.U32(2)))
	if n == 0 {
		c.Ret(0)
		return
	}
	a, ok := c.UserRead(c.PtrArg(0), n)
	if !ok {
		return
	}
	b, ok := c.UserRead(c.PtrArg(1), n)
	if !ok {
		return
	}
	for i := uint32(0); i < n; i++ {
		switch {
		case a[i] < b[i]:
			c.Ret(-1)
			return
		case a[i] > b[i]:
			c.Ret(1)
			return
		}
	}
	c.Ret(0)
}

func cMemchr(c *api.Call) {
	n := clampSpan(uint64(c.U32(2)))
	if n == 0 {
		c.Ret(0)
		return
	}
	b, ok := c.UserRead(c.PtrArg(0), n)
	if !ok {
		return
	}
	want := byte(c.Int(1))
	for i := uint32(0); i < n; i++ {
		if b[i] == want {
			c.Ret(int64(uint32(c.PtrArg(0)) + i))
			return
		}
	}
	c.Ret(0)
}

func clampSpan(n uint64) uint32 {
	if n > maxSpan {
		return maxSpan
	}
	return uint32(n)
}
