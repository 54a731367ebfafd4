package core_test

import (
	"fmt"
	"testing"

	"ballista"
	"ballista/internal/catalog"
	"ballista/internal/chaos"
	"ballista/internal/core"
)

// TestIdentifiedCaseValidated: every entry point that runs a caller-
// named test case rejects a case of the wrong arity or with an index
// outside its parameter's value list with an error, never a panic.
func TestIdentifiedCaseValidated(t *testing.T) {
	m, ok := catalog.ByName(catalog.Win32, "GetThreadContext")
	if !ok {
		t.Fatal("GetThreadContext not in catalog")
	}
	entries := map[string]func(r *core.Runner, tc core.Case) error{
		"RunCase": func(r *core.Runner, tc core.Case) error {
			_, err := r.RunCase(m, tc, false)
			return err
		},
		"RunProbe": func(r *core.Runner, tc core.Case) error {
			_, _, err := r.RunProbe(m, tc, false)
			return err
		},
		"RunScarceProbe": func(r *core.Runner, tc core.Case) error {
			_, err := r.RunScarceProbe(m, tc, false, &chaos.Plan{})
			return err
		},
		"RunSequence": func(r *core.Runner, tc core.Case) error {
			_, err := r.RunSequence([]catalog.MuT{m}, []core.Case{tc}, false)
			return err
		},
	}
	cases := map[string]core.Case{
		"short":        {5},
		"long":         {5, 0, 0},
		"negative":     {-1, 0},
		"out of range": {5, 1 << 20},
	}
	for entry, run := range entries {
		for name, tc := range cases {
			err := func() (err error) {
				defer func() {
					if p := recover(); p != nil {
						err = fmt.Errorf("panic: %v", p)
						t.Errorf("%s with a %s case panicked: %v", entry, name, p)
					}
				}()
				return run(ballista.NewRunner(ballista.WinNT), tc)
			}()
			if err == nil {
				t.Errorf("%s accepted a %s case %v", entry, name, tc)
			}
		}
	}
}
