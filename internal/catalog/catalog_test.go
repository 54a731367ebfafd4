package catalog

import (
	"testing"

	"ballista/internal/osprofile"
)

// TestPaperCounts pins the catalog to the paper's Table 1 census.  The
// post-paper sockets group is filtered out: the paper's numbers must
// stay reproducible as the catalog grows past them.
func TestPaperCounts(t *testing.T) {
	tests := []struct {
		name string
		got  int
		want int
	}{
		{"Win32 system calls", len(paperOnly(Win32MuTs())), 143},
		{"POSIX system calls", len(paperOnly(POSIXMuTs())), 91},
		{"C library functions", len(paperOnly(CLibMuTs())), 94},
		{"Windows 95 MuTs", len(catalogFor(osprofile.Win95)), 227},
		{"Windows 98 MuTs", len(catalogFor(osprofile.Win98)), 237},
		{"Windows NT MuTs", len(catalogFor(osprofile.WinNT)), 237},
		{"Windows 2000 MuTs", len(catalogFor(osprofile.Win2000)), 237},
		{"Windows CE MuTs", len(catalogFor(osprofile.WinCE)), 153},
		{"Linux MuTs", len(catalogFor(osprofile.Linux)), 185},
		{"CE wide pairs", WidePairCount(osprofile.WinCE), 26},
	}
	for _, tt := range tests {
		if tt.got != tt.want {
			t.Errorf("%s = %d, want %d", tt.name, tt.got, tt.want)
		}
	}
}

// paperOnly strips post-paper groups from a MuT list.
func paperOnly(ms []MuT) []MuT {
	var out []MuT
	for _, m := range ms {
		if m.Group != GrpSockets {
			out = append(out, m)
		}
	}
	return out
}

func catalogFor(o osprofile.OS) []MuT { return paperOnly(MuTsFor(o)) }

// TestSocketGroup pins the sockets extension: ten Winsock calls, eight
// BSD calls, an eight-name cross-surface intersection for the
// differential voter, and support on every OS profile.
func TestSocketGroup(t *testing.T) {
	winNames := make(map[string]bool)
	nWin := 0
	for _, m := range Win32MuTs() {
		if m.Group == GrpSockets {
			winNames[m.Name] = true
			nWin++
		}
	}
	if nWin != 10 {
		t.Errorf("Winsock group = %d MuTs, want 10", nWin)
	}
	shared := 0
	nPosix := 0
	for _, m := range POSIXMuTs() {
		if m.Group != GrpSockets {
			continue
		}
		nPosix++
		if winNames[m.Name] {
			shared++
		}
	}
	if nPosix != 8 {
		t.Errorf("BSD sockets group = %d MuTs, want 8", nPosix)
	}
	if shared != 8 {
		t.Errorf("cross-surface socket name intersection = %d, want 8", shared)
	}
	for _, o := range osprofile.All() {
		n := 0
		for _, m := range MuTsFor(o) {
			if m.Group == GrpSockets {
				n++
			}
		}
		want := 10
		if o == osprofile.Linux {
			want = 8
		}
		if n != want {
			t.Errorf("%s: socket MuTs = %d, want %d", o, n, want)
		}
	}
}

func TestGroupCounts(t *testing.T) {
	count := func(api API, g Group) int {
		n := 0
		for _, m := range ForAPI(api) {
			if m.Group == g {
				n++
			}
		}
		return n
	}
	tests := []struct {
		api  API
		g    Group
		want int
	}{
		// The paper's published I/O Primitives lists.
		{Win32, GrpIOPrimitives, 15},
		{POSIX, GrpIOPrimitives, 10},
		// C library groups per §4 (CE tested 10 of the file I/O group and
		// all 14 stream functions).
		{CLib, GrpCChar, 13},
		{CLib, GrpCString, 14},
		{CLib, GrpCMemory, 9},
		{CLib, GrpCMath, 22},
		{CLib, GrpCTime, 9},
		{CLib, GrpCFileIO, 13},
		{CLib, GrpCStreamIO, 14},
	}
	for _, tt := range tests {
		if got := count(tt.api, tt.g); got != tt.want {
			t.Errorf("%v %v = %d, want %d", tt.api, tt.g, got, tt.want)
		}
	}
}

// TestCESubsetCounts checks CE's split: 71 system calls + 82 C functions,
// 108 C functions counting UNICODE/ASCII pairs separately.
func TestCESubsetCounts(t *testing.T) {
	sys, clib, wide := 0, 0, 0
	for _, m := range catalogFor(osprofile.WinCE) {
		switch m.API {
		case Win32:
			sys++
		case CLib:
			clib++
			if m.HasWide {
				wide++
			}
		}
	}
	if sys != 71 {
		t.Errorf("CE system calls = %d, want 71", sys)
	}
	if clib != 82 {
		t.Errorf("CE C functions = %d, want 82", clib)
	}
	if clib+wide != 108 {
		t.Errorf("CE C functions counting pairs separately = %d, want 108", clib+wide)
	}
}

// TestDefectFunctionsExist ensures every Table 3 defect names a function
// that exists (and is supported) on its OS.
func TestDefectFunctionsExist(t *testing.T) {
	for _, o := range osprofile.All() {
		p := osprofile.Get(o)
		supported := make(map[string]bool)
		for _, m := range MuTsFor(o) {
			supported[m.Name] = true
		}
		for _, fn := range p.DefectFunctions() {
			if !supported[fn] {
				t.Errorf("%s: defect function %q not in its catalog", o, fn)
			}
		}
	}
}

// TestTable3CatastrophicCounts pins the per-OS Catastrophic MuT counts
// from Table 1: W95=8, W98=7, W98SE=7, CE=28 (10 system calls + 17 FILE*
// functions + UNICODE strncpy), Linux/NT/2000 = 0.
func TestTable3CatastrophicCounts(t *testing.T) {
	staticCounts := map[osprofile.OS]int{
		osprofile.Linux:   0,
		osprofile.Win95:   8,
		osprofile.Win98:   7,
		osprofile.Win98SE: 7,
		osprofile.WinNT:   0,
		osprofile.Win2000: 0,
		osprofile.WinCE:   11, // 10 system calls + strncpy (wide)
	}
	for o, want := range staticCounts {
		if got := len(osprofile.Get(o).DefectFunctions()); got != want {
			t.Errorf("%s: defect table size = %d, want %d", o, got, want)
		}
	}

	// CE's seventeen FILE* functions come from the StdioRawKernel trait.
	unique := make(map[string]bool)
	sep := 0
	for _, m := range CLibMuTs() {
		if !Supported(osprofile.WinCE, m) {
			continue
		}
		if CEStdioRawKernel(m.Name, false) {
			unique[m.Name] = true
			sep++
		}
		if m.HasWide && CEStdioRawKernel(m.Name, true) {
			unique[m.Name] = true
			sep++
		}
	}
	if len(unique) != 17 {
		t.Errorf("CE raw-stream FILE* functions = %d, want 17", len(unique))
	}
	// Plus UNICODE strncpy: 18 unique, 27 counting variants separately.
	if got := sep + 1; got != 27 {
		t.Errorf("CE Catastrophic C functions counting variants separately = %d, want 27", got)
	}
}

// TestMaxParams: every MuT's parameters fit in MaxParams argument words,
// and the widest MuT uses all of them.
func TestMaxParams(t *testing.T) {
	widest := 0
	for _, a := range []API{Win32, POSIX, CLib} {
		for _, m := range ForAPI(a) {
			if len(m.Params) > MaxParams {
				t.Errorf("%s %s takes %d parameters, more than MaxParams (%d)", a, m.Name, len(m.Params), MaxParams)
			}
			widest = max(widest, len(m.Params))
		}
	}
	if widest != MaxParams {
		t.Errorf("the widest MuT takes %d parameters; set MaxParams to it, not %d", widest, MaxParams)
	}
}
