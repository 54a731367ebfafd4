// Package core implements the Ballista testing engine — the paper's
// primary contribution as ported to Windows: data-type-based test value
// pools with constructors and cleanup, exhaustive/sampled test case
// generation capped at 5000 cases per Module under Test, isolated
// execution of each case in a fresh simulated process, and CRASH-scale
// classification of the outcome.
package core

import (
	"fmt"

	"ballista/internal/api"
	"ballista/internal/osprofile"
	"ballista/internal/sim/kern"
)

// Env is the per-test-case environment handed to test value constructors:
// the shared machine, the fresh process the case will run in, and the OS
// profile.  Constructors register any state they build (temp files,
// handles) for cleanup, mirroring the paper's constructor/cleanup phases.
type Env struct {
	K       *kern.Kernel
	P       *kern.Process
	Profile *osprofile.Profile
	// Wide marks the UNICODE variant of a paired C function (Windows CE).
	Wide bool

	cleanups []func()
}

// OnCleanup registers an action to run when the test case is torn down
// (deleting temp files, closing handles), in LIFO order.
func (e *Env) OnCleanup(f func()) { e.cleanups = append(e.cleanups, f) }

// Cleanup tears down constructor state.  It is a no-op on a crashed
// machine — there is nothing left to clean, the paper's harness rebooted
// instead.  Either way the actions are dropped so they retain nothing,
// and the list keeps its capacity for the next case.
func (e *Env) Cleanup() {
	if !e.K.Crashed() {
		for i := len(e.cleanups) - 1; i >= 0; i-- {
			e.cleanups[i]()
		}
	}
	clear(e.cleanups)
	e.cleanups = e.cleanups[:0]
}

// Constructor materializes a test value into an argument word inside the
// test process, creating any system state the value needs (open files,
// kernel objects, memory blocks).
type Constructor func(e *Env) (api.Arg, error)

// TestValue is one named element of a data type's pool.
type TestValue struct {
	// Name is the Ballista-style mnemonic, e.g. "FILE_CLOSED" or
	// "BUF_NULL".
	Name string
	// Exceptional marks values outside the parameter's legitimate domain.
	// Pools deliberately mix exceptional and non-exceptional values so
	// robust handling of one parameter cannot mask failures on another
	// (paper §2).
	Exceptional bool
	Make        Constructor
}

// DataType is a named pool of test values.  Ballista selects test cases
// by data type rather than by function semantics, which is what makes
// the approach scale sub-linearly and permits cross-API comparison.
type DataType struct {
	Name   string
	Values []TestValue
}

// Exceptional reports whether value index i is exceptional.
func (dt *DataType) Exceptional(i int) bool { return dt.Values[i].Exceptional }

// Registry resolves data type names (as used in the catalog) to pools.
type Registry struct {
	types map[string]*DataType
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{types: make(map[string]*DataType)}
}

// Add registers a data type; re-registering a name is a programming
// error reported at registration time.
func (r *Registry) Add(dt *DataType) error {
	if dt.Name == "" || len(dt.Values) == 0 {
		return fmt.Errorf("core: data type %q must have a name and at least one value", dt.Name)
	}
	if _, ok := r.types[dt.Name]; ok {
		return fmt.Errorf("core: data type %q registered twice", dt.Name)
	}
	r.types[dt.Name] = dt
	return nil
}

// MustAdd is Add for package-level pool construction, where a duplicate
// is unrecoverable.
func (r *Registry) MustAdd(dt *DataType) {
	if err := r.Add(dt); err != nil {
		panic(err)
	}
}

// Lookup resolves a type name.
func (r *Registry) Lookup(name string) (*DataType, bool) {
	dt, ok := r.types[name]
	return dt, ok
}

// Names returns the registered type names (unordered).
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.types))
	for n := range r.types {
		out = append(out, n)
	}
	return out
}

// ValueCount returns the total number of distinct test values across all
// registered types (the paper reports 3,430 for POSIX and 1,073 for
// Windows at much larger per-type pools).
func (r *Registry) ValueCount() int {
	n := 0
	for _, dt := range r.types {
		n += len(dt.Values)
	}
	return n
}
