package mem

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// maskMemory maps size bytes at base with prot RW, fills them with '?'
// and then applies prot, so any byte a read reports that the test did not
// write itself shows up as '?' (the wazero mask-memory idiom).
func maskMemory(t *testing.T, as *AddressSpace, base Addr, size uint32, prot Prot) {
	t.Helper()
	if err := as.Map(base, size, ProtRW); err != nil {
		t.Fatalf("Map(%#x, %d): %v", uint32(base), size, err)
	}
	if f := as.Write(base, bytes.Repeat([]byte{'?'}, int(size))); f != nil {
		t.Fatalf("mask %#x: %v", uint32(base), f)
	}
	if prot != ProtRW {
		if err := as.Protect(base, size, prot); err != nil {
			t.Fatalf("Protect(%#x): %v", uint32(base), err)
		}
	}
}

// region is a span of simulated memory whose exact byte image a case
// asserts after the read.
type region struct {
	base Addr
	size uint32
}

// TestReadSemantics pins what every read path reports, byte for byte:
// the value, the exact *Fault, one Stats.Faults increment per failed
// read, and that the read leaves the masked memory image untouched.  A
// faster scan that faults one byte later, or at a different kind, would
// change a test case's CRASH class.
func TestReadSemantics(t *testing.T) {
	const (
		lastSysPage = KernelBase - PageSize // last page below the kernel range
		limitPages  = CStringLimit / PageSize
	)
	cstring := func(as *AddressSpace, p Addr) (any, *Fault) { return as.CString(p) }
	u16 := func(as *AddressSpace, p Addr) (any, *Fault) { return as.ReadU16(p) }
	u32 := func(as *AddressSpace, p Addr) (any, *Fault) { return as.ReadU32(p) }
	wstring := func(as *AddressSpace, p Addr) (any, *Fault) { return as.WString(p) }
	read16 := func(as *AddressSpace, p Addr) (any, *Fault) { return as.Read(p, 16) }

	cases := []struct {
		name string
		// setup builds the space and returns the pointer under test and
		// the regions whose image the case asserts.
		setup func(t *testing.T, as *AddressSpace) (Addr, []region)
		// image[i] is what the i-th region setup returned must hold
		// after the call.
		image []string
		read  func(as *AddressSpace, p Addr) (any, *Fault)
		want  any
		fault *Fault
	}{
		{
			name: "cstring crossing a page boundary",
			setup: func(t *testing.T, as *AddressSpace) (Addr, []region) {
				maskMemory(t, as, UserBase, 2*PageSize, ProtRW)
				p := UserBase + PageSize - 4
				_ = as.WriteCString(p, "crossing")
				return p - 2, []region{{p - 2, 13}}
			},
			image: []string{"??crossing\x00??"},
			read:  cstring,
			want:  "??crossing",
		},
		{
			name: "cstring faults at the unmapped page after its first",
			setup: func(t *testing.T, as *AddressSpace) (Addr, []region) {
				maskMemory(t, as, UserBase, PageSize, ProtRW)
				p := UserBase + PageSize - 5
				return p, []region{{p, 5}}
			},
			image: []string{"?????"},
			read:  cstring,
			want:  "",
			fault: &Fault{Addr: UserBase + PageSize, Kind: FaultUnmapped},
		},
		{
			name: "cstring faults at a no-access page partway through",
			setup: func(t *testing.T, as *AddressSpace) (Addr, []region) {
				maskMemory(t, as, UserBase, PageSize, ProtRW)
				maskMemory(t, as, UserBase+PageSize, PageSize, ProtNone)
				p := UserBase + PageSize - 3
				return p, []region{{p, 3}}
			},
			image: []string{"???"},
			read:  cstring,
			want:  "",
			fault: &Fault{Addr: UserBase + PageSize, Kind: FaultProtection},
		},
		{
			name: "cstring faults mid-page on its first byte when unreadable",
			setup: func(t *testing.T, as *AddressSpace) (Addr, []region) {
				maskMemory(t, as, UserBase, PageSize, ProtWrite)
				return UserBase + 100, nil
			},
			read:  cstring,
			want:  "",
			fault: &Fault{Addr: UserBase + 100, Kind: FaultProtection},
		},
		{
			name: "cstring from the null page",
			setup: func(t *testing.T, as *AddressSpace) (Addr, []region) {
				return 0, nil
			},
			read:  cstring,
			want:  "",
			fault: &Fault{Addr: 0, Kind: FaultUnmapped},
		},
		{
			name: "cstring inside the null guard region",
			setup: func(t *testing.T, as *AddressSpace) (Addr, []region) {
				return 0x10, nil
			},
			read:  cstring,
			want:  "",
			fault: &Fault{Addr: 0x10, Kind: FaultUnmapped},
		},
		{
			name: "cstring running into the kernel range",
			setup: func(t *testing.T, as *AddressSpace) (Addr, []region) {
				maskMemory(t, as, lastSysPage, PageSize, ProtRW)
				p := KernelBase - 16
				return p, []region{{p, 16}}
			},
			image: []string{strings.Repeat("?", 16)},
			read:  cstring,
			want:  "",
			fault: &Fault{Addr: KernelBase, Kind: FaultKernelRange},
		},
		{
			name: "cstring starting in the kernel range",
			setup: func(t *testing.T, as *AddressSpace) (Addr, []region) {
				return KernelBase + 0x123, nil
			},
			read:  cstring,
			want:  "",
			fault: &Fault{Addr: KernelBase + 0x123, Kind: FaultKernelRange},
		},
		{
			name: "cstring in the 9x system arena",
			setup: func(t *testing.T, as *AddressSpace) (Addr, []region) {
				a, err := as.AllocSystem(PageSize, ProtRW)
				if err != nil {
					t.Fatal(err)
				}
				if RegionOf(a) != RegionSystem {
					t.Fatalf("AllocSystem = %#x, outside the system arena", uint32(a))
				}
				_ = as.Write(a, bytes.Repeat([]byte{'?'}, PageSize))
				_ = as.WriteCString(a+8, "shared")
				return a + 8, []region{{a, 18}}
			},
			image: []string{"????????shared\x00???"},
			read:  cstring,
			want:  "shared",
		},
		{
			name: "cstring stops at CStringLimit before an unmapped page",
			setup: func(t *testing.T, as *AddressSpace) (Addr, []region) {
				maskMemory(t, as, UserBase, limitPages*PageSize, ProtRW)
				return UserBase, nil
			},
			read: cstring,
			want: strings.Repeat("?", CStringLimit),
		},
		{
			name: "cstring one byte short of the limit faults",
			setup: func(t *testing.T, as *AddressSpace) (Addr, []region) {
				maskMemory(t, as, UserBase, limitPages*PageSize, ProtRW)
				return UserBase + 1, nil
			},
			read:  cstring,
			want:  "",
			fault: &Fault{Addr: UserBase + limitPages*PageSize, Kind: FaultUnmapped},
		},
		{
			name: "cstring ending exactly at a page end before a never-written page",
			setup: func(t *testing.T, as *AddressSpace) (Addr, []region) {
				maskMemory(t, as, UserBase, PageSize, ProtRW)
				if err := as.Map(UserBase+PageSize, PageSize, ProtRead); err != nil {
					t.Fatal(err)
				}
				p := UserBase + PageSize - 3
				return p, []region{{p, 3}}
			},
			image: []string{"???"},
			read:  cstring,
			want:  "???",
		},
		{
			name: "cstring of a mapped page never written",
			setup: func(t *testing.T, as *AddressSpace) (Addr, []region) {
				if err := as.Map(UserBase, PageSize, ProtRead); err != nil {
					t.Fatal(err)
				}
				return UserBase + 40, nil
			},
			read: cstring,
			want: "",
		},
		{
			name: "read of a mapped page never written is zeros",
			setup: func(t *testing.T, as *AddressSpace) (Addr, []region) {
				if err := as.Map(UserBase, 2*PageSize, ProtRead); err != nil {
					t.Fatal(err)
				}
				return UserBase + PageSize - 8, nil
			},
			read: read16,
			want: make([]byte, 16),
		},
		{
			name: "read16 straddling into an unmapped page",
			setup: func(t *testing.T, as *AddressSpace) (Addr, []region) {
				maskMemory(t, as, UserBase, PageSize, ProtRW)
				return UserBase + PageSize - 8, nil
			},
			read:  read16,
			want:  []byte(nil),
			fault: &Fault{Addr: UserBase + PageSize, Kind: FaultUnmapped},
		},
		{
			name: "u16 within a page",
			setup: func(t *testing.T, as *AddressSpace) (Addr, []region) {
				maskMemory(t, as, UserBase, 2*PageSize, ProtRW)
				p := UserBase + PageSize - 1
				_ = as.Write(p, []byte{0x34, 0x12})
				return p, []region{{p - 1, 4}}
			},
			image: []string{"?\x34\x12?"},
			read:  u16,
			want:  uint16(0x1234),
		},
		{
			name: "u16 straddling into an unmapped page",
			setup: func(t *testing.T, as *AddressSpace) (Addr, []region) {
				maskMemory(t, as, UserBase, PageSize, ProtRW)
				return UserBase + PageSize - 1, nil
			},
			read:  u16,
			want:  uint16(0),
			fault: &Fault{Addr: UserBase + PageSize, Kind: FaultUnmapped},
		},
		{
			name: "u32 crossing a page boundary",
			setup: func(t *testing.T, as *AddressSpace) (Addr, []region) {
				maskMemory(t, as, UserBase, 2*PageSize, ProtRW)
				p := UserBase + PageSize - 2
				_ = as.WriteU32(p, 0xDEADBEEF)
				return p, []region{{p - 1, 6}}
			},
			image: []string{"?\xef\xbe\xad\xde?"},
			read:  u32,
			want:  uint32(0xDEADBEEF),
		},
		{
			name: "u32 straddling into an unmapped page",
			setup: func(t *testing.T, as *AddressSpace) (Addr, []region) {
				maskMemory(t, as, UserBase, PageSize, ProtRW)
				return UserBase + PageSize - 3, nil
			},
			read:  u32,
			want:  uint32(0),
			fault: &Fault{Addr: UserBase + PageSize, Kind: FaultUnmapped},
		},
		{
			name: "u32 straddling into the kernel range",
			setup: func(t *testing.T, as *AddressSpace) (Addr, []region) {
				maskMemory(t, as, lastSysPage, PageSize, ProtRW)
				return KernelBase - 2, nil
			},
			read:  u32,
			want:  uint32(0),
			fault: &Fault{Addr: KernelBase, Kind: FaultKernelRange},
		},
		{
			name: "wstring straddling into an unmapped page",
			setup: func(t *testing.T, as *AddressSpace) (Addr, []region) {
				maskMemory(t, as, UserBase, PageSize, ProtRW)
				return UserBase + PageSize - 5, nil
			},
			read:  wstring,
			want:  []uint16(nil),
			fault: &Fault{Addr: UserBase + PageSize, Kind: FaultUnmapped},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			as := New()
			st := &Stats{}
			as.SetStats(st)
			p, regions := tc.setup(t, as)
			before := st.Faults

			got, f := tc.read(as, p)

			wantFaults := uint64(0)
			if tc.fault != nil {
				wantFaults = 1
			}
			if d := st.Faults - before; d != wantFaults {
				t.Errorf("Stats.Faults moved by %d, want %d", d, wantFaults)
			}
			if !reflect.DeepEqual(f, tc.fault) {
				t.Errorf("fault = %v, want %v", f, tc.fault)
			}
			if !reflect.DeepEqual(got, tc.want) {
				if s, ok := got.(string); ok && len(s) > 64 {
					t.Errorf("value = %d-byte string, want %d bytes", len(s), len(tc.want.(string)))
				} else {
					t.Errorf("value = %#v, want %#v", got, tc.want)
				}
			}
			for i, r := range regions {
				img, rf := as.Read(r.base, r.size)
				if rf != nil {
					t.Fatalf("reading back region %d: %v", i, rf)
				}
				if string(img) != tc.image[i] {
					t.Errorf("region %d image = %q, want %q", i, img, tc.image[i])
				}
			}
		})
	}
}

// TestReadAllocs gates the per-case string paths: scalar reads allocate
// nothing, a C string costs only the returned string, whether it ends on
// its first page or spans five, and writing one costs nothing.
func TestReadAllocs(t *testing.T) {
	as := New()
	a, err := as.Alloc(2*PageSize, ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	_ = as.WriteCString(a+PageSize-40, "ends on its first page")
	long := strings.Repeat("0123456789abcdef", 1024)
	b, err := as.Alloc(5*PageSize, ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	_ = as.WriteCString(b+10, long)
	for _, tc := range []struct {
		name string
		want float64
		fn   func()
	}{
		{"ReadU8", 0, func() { _, _ = as.ReadU8(a + PageSize - 1) }},
		{"ReadU16", 0, func() { _, _ = as.ReadU16(a + PageSize - 1) }},
		{"ReadU32", 0, func() { _, _ = as.ReadU32(a + PageSize - 2) }},
		// Only the *Fault: the range is checked before anything of size
		// bytes is allocated.
		{"Read of 4 GiB at a bad pointer", 1, func() { _, _ = as.Read(0x10, 0xFFFFFFFF) }},
		{"CString", 1, func() {
			if s, f := as.CString(a + PageSize - 40); f != nil || s != "ends on its first page" {
				t.Fatalf("CString = %q, %v", s, f)
			}
		}},
		{"CString over five pages", 1, func() {
			if s, f := as.CString(b + 10); f != nil || s != long {
				t.Fatalf("CString = %d bytes, %v", len(s), f)
			}
		}},
		{"WriteCString over five pages", 0, func() { _ = as.WriteCString(b+10, long) }},
	} {
		if got := testing.AllocsPerRun(100, tc.fn); got != tc.want {
			t.Errorf("%s: %v allocs/op, want %v", tc.name, got, tc.want)
		}
	}
}
