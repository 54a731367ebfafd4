package osprofile

import (
	"strings"
	"testing"

	"ballista/internal/api"
	"ballista/internal/sim/kern"
)

func TestProfileArchitectures(t *testing.T) {
	tests := []struct {
		os        OS
		probing   bool
		shared    bool
		unix      bool
		validates bool // msvcrt stream validation
	}{
		{Linux, true, false, true, false},
		{Win95, false, true, false, true},
		{Win98, false, true, false, true},
		{Win98SE, false, true, false, true},
		{WinNT, true, false, false, true},
		{Win2000, true, false, false, true},
		{WinCE, false, true, false, false},
	}
	for _, tt := range tests {
		p := Get(tt.os)
		if p.Traits.ProbeKernel != tt.probing {
			t.Errorf("%s: ProbeKernel = %v", tt.os, p.Traits.ProbeKernel)
		}
		if p.Traits.SharedArena != tt.shared {
			t.Errorf("%s: SharedArena = %v", tt.os, p.Traits.SharedArena)
		}
		if p.Arch.SharedSystemArena != tt.shared {
			t.Errorf("%s: Arch.SharedSystemArena = %v", tt.os, p.Arch.SharedSystemArena)
		}
		if p.Traits.Unix != tt.unix {
			t.Errorf("%s: Unix = %v", tt.os, p.Traits.Unix)
		}
		if p.Traits.CLibValidatesStreams != tt.validates {
			t.Errorf("%s: CLibValidatesStreams = %v", tt.os, p.Traits.CLibValidatesStreams)
		}
	}
}

func TestCTypeBoundsCheckedEverywhereButGlibc(t *testing.T) {
	for _, o := range All() {
		want := o != Linux
		if got := Get(o).Traits.CTypeBoundsChecked; got != want {
			t.Errorf("%s: CTypeBoundsChecked = %v, want %v", o, got, want)
		}
	}
}

func TestOnlyCEHasRawStdio(t *testing.T) {
	for _, o := range All() {
		want := o == WinCE
		if got := Get(o).Traits.StdioRawKernel; got != want {
			t.Errorf("%s: StdioRawKernel = %v, want %v", o, got, want)
		}
		if got := Get(o).Traits.WidePreferred; got != want {
			t.Errorf("%s: WidePreferred = %v, want %v", o, got, want)
		}
	}
}

// TestDefectDeltas pins the paper's narrative about how the defect set
// evolved across the 9x family.
func TestDefectDeltas(t *testing.T) {
	has := func(o OS, fn string) bool { return Get(o).Defect(fn) != nil }

	// fwrite crashed 95 and 98; "eliminated ... in the C library function
	// fwrite()" in 98 SE.
	if !has(Win95, "fwrite") || !has(Win98, "fwrite") || has(Win98SE, "fwrite") {
		t.Error("fwrite defect evolution wrong")
	}
	// strncpy crashed 98 and 98 SE but not 95.
	if has(Win95, "strncpy") || !has(Win98, "strncpy") || !has(Win98SE, "strncpy") {
		t.Error("strncpy defect evolution wrong")
	}
	// CreateThread is new in 98 SE.
	if has(Win95, "CreateThread") || has(Win98, "CreateThread") || !has(Win98SE, "CreateThread") {
		t.Error("CreateThread defect evolution wrong")
	}
	// Windows 95's exclusives.
	for _, fn := range []string{"FileTimeToSystemTime", "HeapCreate", "ReadProcessMemory"} {
		if !has(Win95, fn) || has(Win98, fn) {
			t.Errorf("%s should be Windows 95 only", fn)
		}
	}
	// The NT family and Linux carry no defects at all.
	for _, o := range []OS{Linux, WinNT, Win2000} {
		if n := len(Get(o).DefectFunctions()); n != 0 {
			t.Errorf("%s has %d defects, want 0", o, n)
		}
	}
	// CE's strncpy defect is UNICODE-only.
	d := Get(WinCE).Defect("strncpy")
	if d == nil || !d.WideOnly {
		t.Error("CE strncpy defect should be WideOnly")
	}
}

// TestImmediateVsHarnessOnly pins the `*` mechanics: Listing 1's
// GetThreadContext is an immediate raw-out defect; DuplicateHandle is
// sub-threshold corruption.
func TestImmediateVsHarnessOnly(t *testing.T) {
	p := Get(Win98)
	gtc := p.Defect("GetThreadContext")
	if gtc == nil || gtc.Mech != api.MechRawOut || gtc.Param != 1 {
		t.Errorf("GetThreadContext defect: %+v", gtc)
	}
	dup := p.Defect("DuplicateHandle")
	if dup == nil || dup.Mech != api.MechCorrupt || dup.Amount > kern.DefaultCorruptionLimit {
		t.Errorf("DuplicateHandle defect should be harness-only corruption: %+v", dup)
	}
	hc := Get(Win95).Defect("HeapCreate")
	if hc == nil || hc.Amount <= kern.DefaultCorruptionLimit {
		t.Errorf("Win95 HeapCreate should crash immediately: %+v", hc)
	}
}

func TestDefectReturnsCopy(t *testing.T) {
	p := Get(Win98)
	d1 := p.Defect("GetThreadContext")
	d1.Param = 99 // mutating the returned value must not poison the table
	d2 := p.Defect("GetThreadContext")
	if d2.Param == 99 {
		t.Error("Defect returned a shared pointer into the table")
	}
}

// TestDefectFreeLookupAllocatesNothing: every case looks up its MuT's
// defect, and most MuTs carry none, so a miss must not allocate on any
// profile.
func TestDefectFreeLookupAllocatesNothing(t *testing.T) {
	for _, o := range All() {
		p := Get(o)
		if allocs := testing.AllocsPerRun(100, func() {
			if p.Defect("CloseHandle") != nil {
				t.Fatalf("%s: CloseHandle carries a defect", o)
			}
		}); allocs != 0 {
			t.Errorf("%s: Defect(CloseHandle) allocates %.1f times, want 0", o, allocs)
		}
	}
}

func TestAblateProbing(t *testing.T) {
	p := AblateProbing(WinNT, Win98)
	if p.Traits.ProbeKernel || !p.Traits.SharedArena {
		t.Errorf("ablated traits: %+v", p.Traits)
	}
	if !p.Arch.SharedSystemArena {
		t.Error("ablated arch not shared-arena")
	}
	if p.Defect("GetThreadContext") == nil {
		t.Error("ablation did not inherit the donor defect table")
	}
	if !strings.Contains(p.Name, "probing off") {
		t.Errorf("ablated profile name %q", p.Name)
	}
	// The canonical profile is untouched.
	if Get(WinNT).Defect("GetThreadContext") != nil || !Get(WinNT).Traits.ProbeKernel {
		t.Error("AblateProbing mutated the canonical NT profile")
	}
}

func TestStubPolicySplitsDiffer(t *testing.T) {
	// 95/98/98SE share stub budgets but differ from CE.
	w98 := Get(Win98).Traits
	ce := Get(WinCE).Traits
	if w98.StubErrorBP == 0 || w98.StubSilentBP == 0 {
		t.Error("9x stub budgets unset")
	}
	if w98.StubErrorBP == ce.StubErrorBP && w98.StubSilentBP == ce.StubSilentBP {
		t.Error("CE should differ from the desktop 9x stub split")
	}
	// Probing kernels have no stub budgets.
	if nt := Get(WinNT).Traits; nt.StubErrorBP != 0 || nt.StubSilentBP != 0 {
		t.Error("NT should have no stub budgets")
	}
}

func TestStringerAndOrder(t *testing.T) {
	if len(All()) != 7 {
		t.Fatalf("All() = %d systems", len(All()))
	}
	if All()[0] != Linux || All()[6] != WinCE {
		t.Error("reporting order wrong")
	}
	if len(DesktopWindows()) != 5 {
		t.Error("DesktopWindows should have 5 variants")
	}
	for _, o := range DesktopWindows() {
		if o == Linux || o == WinCE {
			t.Errorf("%s is not desktop Windows", o)
		}
	}
	if OS(99).String() != "unknown OS" {
		t.Error("unknown OS stringer")
	}
}

func TestParseWireNames(t *testing.T) {
	for _, o := range All() {
		got, ok := Parse(o.WireName())
		if !ok || got != o {
			t.Errorf("Parse(WireName(%s)) = %v, %v", o, got, ok)
		}
	}
	if _, ok := Parse("beos"); ok {
		t.Error("Parse accepted an unknown OS")
	}
	if got, ok := Parse("WINNT"); !ok || got != WinNT {
		t.Error("Parse should be case-insensitive")
	}
}
