// Package catalog defines the Modules under Test (MuTs): the 143 Win32
// system calls, 94 C library functions and 91 POSIX system calls the
// paper selected, each with its functional group and the Ballista data
// type of every parameter.
//
// The counts reproduce the paper's Table 1 exactly: desktop Windows tests
// 143 + 94 = 237 MuTs (Windows 95 lacks 10 of the system calls, testing
// 227); Windows CE supports 71 system calls and 82 C functions (108 when
// the 26 UNICODE/ASCII pairs are counted separately); Linux tests 91
// system calls plus the same 94 C functions.
package catalog

import "fmt"

// API identifies which surface a MuT belongs to.
type API int

// API surfaces.
const (
	CLib API = iota
	Win32
	POSIX
)

// String names the surface.
func (a API) String() string {
	switch a {
	case CLib:
		return "C library"
	case Win32:
		return "Win32"
	case POSIX:
		return "POSIX"
	default:
		return fmt.Sprintf("API(%d)", int(a))
	}
}

// Group is one of the paper's twelve functional groupings used for
// normalized cross-API comparison (Table 2 / Figure 1).
type Group int

// The twelve functional groups, in the paper's Figure 1 order: five
// system-call groups followed by seven C library groups.
const (
	GrpMemoryManagement Group = iota
	GrpFileDirAccess
	GrpIOPrimitives
	GrpProcessPrimitives
	GrpProcessEnvironment
	GrpCChar
	GrpCFileIO
	GrpCMemory
	GrpCStreamIO
	GrpCMath
	GrpCTime
	GrpCString

	// GrpSockets extends the catalog beyond the paper's twelve groups:
	// the Winsock surface on Windows profiles and the BSD sockets surface
	// on Linux, both backed by the sim/net substrate.  It is declared
	// after the paper groups so their values (and every wire format keyed
	// on them) are unchanged.
	GrpSockets
)

// Groups lists all groups in reporting order: the paper's system-call
// groups, then sockets (the post-paper system-call extension), then the
// C library groups.
func Groups() []Group {
	return []Group{
		GrpMemoryManagement, GrpFileDirAccess, GrpIOPrimitives,
		GrpProcessPrimitives, GrpProcessEnvironment, GrpSockets,
		GrpCChar, GrpCFileIO, GrpCMemory, GrpCStreamIO,
		GrpCMath, GrpCTime, GrpCString,
	}
}

// String returns the paper's group label.
func (g Group) String() string {
	switch g {
	case GrpMemoryManagement:
		return "Memory Management"
	case GrpFileDirAccess:
		return "File/Directory Access"
	case GrpIOPrimitives:
		return "I/O Primitives"
	case GrpProcessPrimitives:
		return "Process Primitives"
	case GrpProcessEnvironment:
		return "Process Environment"
	case GrpCChar:
		return "C char"
	case GrpCFileIO:
		return "C file I/O management"
	case GrpCMemory:
		return "C memory management"
	case GrpCStreamIO:
		return "C stream I/O"
	case GrpCMath:
		return "C math"
	case GrpCTime:
		return "C time"
	case GrpCString:
		return "C string"
	case GrpSockets:
		return "Sockets"
	default:
		return fmt.Sprintf("Group(%d)", int(g))
	}
}

// SystemCallGroup reports whether the group holds system calls (vs C
// library functions).
func (g Group) SystemCallGroup() bool {
	switch g {
	case GrpMemoryManagement, GrpFileDirAccess, GrpIOPrimitives,
		GrpProcessPrimitives, GrpProcessEnvironment, GrpSockets:
		return true
	default:
		return false
	}
}

// MaxParams is the most parameters any MuT takes, so a test case's
// argument words fit in a fixed-size array.
const MaxParams = 10

// MuT is one Module under Test.
type MuT struct {
	Name  string
	API   API
	Group Group
	// Params names the Ballista data type of each parameter; the suite
	// package resolves names to test-value pools.
	Params []string
	// HasWide: the C function has a UNICODE sibling on Windows CE.
	HasWide bool
}

func mut(api API, g Group, name string, params ...string) MuT {
	return MuT{Name: name, API: api, Group: g, Params: params}
}

// ByName returns the MuT definition for a name on a surface.
func ByName(a API, name string) (MuT, bool) {
	for _, m := range ForAPI(a) {
		if m.Name == name {
			return m, true
		}
	}
	return MuT{}, false
}

// ForAPI returns the full MuT list for one surface.
func ForAPI(a API) []MuT {
	switch a {
	case CLib:
		return CLibMuTs()
	case Win32:
		return Win32MuTs()
	case POSIX:
		return POSIXMuTs()
	default:
		return nil
	}
}
