// Package osprofile defines the seven simulated operating-system variants
// the paper tests — Windows 95, 98, 98 SE, NT 4.0, 2000, CE 2.11 and
// Linux (RedHat 6.0 with glibc) — as behaviour profiles: the kernel
// architecture, the C-library personality, the user-mode stub policy for
// non-probing kernels, and the per-function defect tables transcribed
// from the paper's Table 3.
package osprofile

import (
	"strings"

	"ballista/internal/api"
	"ballista/internal/sim/kern"
)

// OS identifies a simulated operating system variant.
type OS int

// The seven systems under test, in the paper's reporting order.
const (
	Linux OS = iota
	Win95
	Win98
	Win98SE
	WinNT
	Win2000
	WinCE
)

// All lists every OS in reporting order.
func All() []OS {
	return []OS{Linux, Win95, Win98, Win98SE, WinNT, Win2000, WinCE}
}

// DesktopWindows lists the five desktop Windows variants (the set the
// paper's Figure 2 silent-failure voting runs over).
func DesktopWindows() []OS {
	return []OS{Win95, Win98, Win98SE, WinNT, Win2000}
}

// String returns the marketing name.
func (o OS) String() string {
	switch o {
	case Linux:
		return "Linux"
	case Win95:
		return "Windows 95"
	case Win98:
		return "Windows 98"
	case Win98SE:
		return "Windows 98 SE"
	case WinNT:
		return "Windows NT"
	case Win2000:
		return "Windows 2000"
	case WinCE:
		return "Windows CE"
	default:
		return "unknown OS"
	}
}

// Windows reports whether the variant exposes the Win32 API (vs POSIX).
func (o OS) Windows() bool { return o != Linux }

// Profile is a fully-resolved OS behaviour model.
type Profile struct {
	OS     OS
	Name   string
	Arch   kern.Arch
	Traits api.Traits

	// defects maps function name -> Table 3 defect.
	defects map[string]api.DefectSpec
}

// Defect returns the Table 3 defect for a function, or nil.
func (p *Profile) Defect(fn string) *api.DefectSpec {
	d, ok := p.defects[fn]
	if !ok {
		return nil
	}
	// Only a hit allocates its copy: taking the address of d itself
	// would move d to the heap on every call.
	out := new(api.DefectSpec)
	*out = d
	return out
}

// DefectFunctions returns the names of all functions carrying defects,
// for the Table 3 reproduction.
func (p *Profile) DefectFunctions() []string {
	out := make([]string, 0, len(p.defects))
	for fn := range p.defects {
		out = append(out, fn)
	}
	return out
}

// NewKernel boots a machine of this profile's architecture.
func (p *Profile) NewKernel() *kern.Kernel { return kern.New(p.Arch) }

// Get returns the profile for an OS variant.
func Get(o OS) *Profile {
	switch o {
	case Linux:
		return linuxProfile()
	case Win95:
		return win9xProfile(Win95)
	case Win98:
		return win9xProfile(Win98)
	case Win98SE:
		return win9xProfile(Win98SE)
	case WinNT:
		return ntProfile(WinNT)
	case Win2000:
		return ntProfile(Win2000)
	case WinCE:
		return ceProfile()
	default:
		return nil
	}
}

func linuxProfile() *Profile {
	name := Linux.String()
	return &Profile{
		OS:   Linux,
		Name: name,
		Arch: kern.ArchUnix,
		Traits: api.Traits{
			OSName:      name,
			Unix:        true,
			ProbeKernel: true,
			// glibc personality: dereference-first stdio and heap, raw
			// ctype table lookups, blocking console reads, errno (not
			// trap) floating-point domain errors.
			CLibValidatesStreams: false,
			CLibValidatesHeap:    false,
			CTypeBoundsChecked:   false,
			StdinBlocks:          true,
			MathSEH:              false,
		},
		defects: nil, // no Catastrophic failures observed on Linux
	}
}

func ntProfile(o OS) *Profile {
	name := o.String()
	return &Profile{
		OS:   o,
		Name: name,
		Arch: kern.ArchNT,
		Traits: api.Traits{
			OSName:      name,
			ProbeKernel: true,
			// msvcrt personality: validated streams and heap, bounds-
			// checked ctype tables, EOF console reads, SEH floating-point
			// domain errors.
			CLibValidatesStreams: true,
			CLibValidatesHeap:    true,
			CTypeBoundsChecked:   true,
			MathSEH:              true,
			StrWordReads:         true,
		},
		defects: nil, // no Catastrophic failures observed on NT/2000
	}
}

// Stub-policy basis points for the non-probing kernels: of the invalid-
// pointer paths not covered by a probing kernel, this fraction returns an
// error code, this fraction silently reports success, and the remainder
// dereferences and takes an access violation.  The split is the paper's
// observed 9x behaviour: lower Abort rates than NT but substantial Silent
// rates.
const (
	stub9xErrorBP  = 4200
	stub9xSilentBP = 3300
	stubCEErrorBP  = 3600
	stubCESilentBP = 2400
	// wrongCode9xBP: fraction of 9x error sites that misreport the error
	// code (Hindering failures, CRASH's "H").
	wrongCode9xBP = 1600
	wrongCodeCEBP = 2100
)

func win9xProfile(o OS) *Profile {
	name := o.String()
	p := &Profile{
		OS:   o,
		Name: name,
		Arch: kern.Arch9x,
		Traits: api.Traits{
			OSName:       name,
			ProbeKernel:  false,
			SharedArena:  true,
			StubErrorBP:  stub9xErrorBP,
			StubSilentBP: stub9xSilentBP,
			WrongCodeBP:  wrongCode9xBP,
			// Same msvcrt as the NT family.
			CLibValidatesStreams: true,
			CLibValidatesHeap:    true,
			CTypeBoundsChecked:   true,
			MathSEH:              true,
			StrWordReads:         true,
		},
	}
	p.defects = desktopDefects(o)
	return p
}

func ceProfile() *Profile {
	name := WinCE.String()
	p := &Profile{
		OS:   WinCE,
		Name: name,
		Arch: kern.ArchCE,
		Traits: api.Traits{
			OSName:       name,
			ProbeKernel:  false,
			SharedArena:  true,
			StubErrorBP:  stubCEErrorBP,
			StubSilentBP: stubCESilentBP,
			WrongCodeBP:  wrongCodeCEBP,
			// The CE CRT: bounds-checked ctype, but its stdio layer hands
			// stream buffer pointers straight to the kernel — the cause
			// of the paper's seventeen Catastrophic C functions.
			CLibValidatesStreams: false,
			CLibValidatesHeap:    true,
			CTypeBoundsChecked:   true,
			MathSEH:              true,
			StrWordReads:         true,
			StdioRawKernel:       true,
			WidePreferred:        true,
		},
	}
	p.defects = ceDefects()
	return p
}

// AblateProbing builds the DESIGN.md §7 ablation profile: the given OS
// with kernel pointer probing switched off and the shared-arena
// architecture substituted, inheriting the donor's Table 3 defect table.
// Running the NT profile through this ablation demonstrates that probing
// is what separates "thrown exception" from "machine crash": NT minus
// probing behaves like Windows 98.
func AblateProbing(o OS, donor OS) *Profile {
	p := Get(o)
	d := Get(donor)
	p.Name = p.Name + " (probing off)"
	p.Arch = kern.Arch9x
	p.Traits.ProbeKernel = false
	p.Traits.SharedArena = true
	p.Traits.StubErrorBP = d.Traits.StubErrorBP
	p.Traits.StubSilentBP = d.Traits.StubSilentBP
	p.defects = d.defects
	return p
}

// Parse resolves a command-line / wire OS name ("win98", "linux", ...).
func Parse(name string) (OS, bool) {
	switch strings.ToLower(name) {
	case "linux":
		return Linux, true
	case "win95", "windows95":
		return Win95, true
	case "win98", "windows98":
		return Win98, true
	case "win98se", "windows98se":
		return Win98SE, true
	case "winnt", "nt", "windowsnt":
		return WinNT, true
	case "win2000", "win2k", "windows2000":
		return Win2000, true
	case "wince", "ce", "windowsce":
		return WinCE, true
	default:
		return Linux, false
	}
}

// WireName returns the canonical short name Parse accepts.
func (o OS) WireName() string {
	switch o {
	case Linux:
		return "linux"
	case Win95:
		return "win95"
	case Win98:
		return "win98"
	case Win98SE:
		return "win98se"
	case WinNT:
		return "winnt"
	case Win2000:
		return "win2000"
	case WinCE:
		return "wince"
	default:
		return "unknown"
	}
}
