package core

import (
	"fmt"
	"testing"

	"ballista/internal/osprofile"
	"ballista/internal/sim/mem"
)

// loadRunner builds a bare runner with the given load profile; no
// registry or dispatcher is needed to exercise applyLoad directly.
func loadRunner(lp *LoadProfile) *Runner {
	return NewRunner(Config{OS: osprofile.WinNT, Load: lp}, NewRegistry(), nil, nil)
}

// loadEnv builds a fresh process environment on the runner's machine,
// the way execCase does before imposing load.
func loadEnv(r *Runner) *Env {
	k := r.Machine()
	return &Env{K: k, P: k.NewProcess(), Profile: r.Profile()}
}

func TestApplyLoadMemoryQuota(t *testing.T) {
	r := loadRunner(&LoadProfile{ProcessMemoryQuota: 64 << 10})
	env := loadEnv(r)
	r.applyLoad(env)

	// Inside the quota allocation works...
	if _, err := env.P.AS.Alloc(16<<10, mem.ProtRW); err != nil {
		t.Fatalf("in-quota alloc failed: %v", err)
	}
	// ...but the quota is a hard ceiling.
	if _, err := env.P.AS.Alloc(256<<10, mem.ProtRW); err == nil {
		t.Error("alloc past the 64 KiB quota succeeded")
	}

	// A process without load pressure has no ceiling.
	free := loadEnv(loadRunner(nil))
	if _, err := free.P.AS.Alloc(256<<10, mem.ProtRW); err != nil {
		t.Errorf("unloaded process alloc failed: %v", err)
	}
}

func TestApplyLoadHandlePressure(t *testing.T) {
	const pressure = 37
	r := loadRunner(&LoadProfile{HandlePressure: pressure})
	env := loadEnv(r)
	before := env.P.HandleCount()
	r.applyLoad(env)
	if got := env.P.HandleCount() - before; got != pressure {
		t.Errorf("applyLoad opened %d handles, want %d", got, pressure)
	}

	// Each new process feels the pressure independently.
	env2 := loadEnv(r)
	r.applyLoad(env2)
	if got := env2.P.HandleCount(); got < pressure {
		t.Errorf("second process has %d handles, want >= %d", got, pressure)
	}
}

func TestApplyLoadPreloadFiles(t *testing.T) {
	const files = 25
	r := loadRunner(&LoadProfile{PreloadFiles: files})
	env := loadEnv(r)
	r.applyLoad(env)

	names, err := env.K.FS.List("/load")
	if err != nil {
		t.Fatalf("/load missing after applyLoad: %v", err)
	}
	if len(names) != files {
		t.Fatalf("preloaded %d files, want %d", len(names), files)
	}
	n, err := env.K.FS.Stat(fmt.Sprintf("/load/f%05d.dat", files-1))
	if err != nil {
		t.Fatal(err)
	}
	if string(n.Data()) != "load fixture" {
		t.Errorf("preload file content %q", n.Data())
	}

	// Preloading is per machine, not per case: a second application on
	// the same kernel must not double the population.
	r.applyLoad(loadEnv(r))
	if names, _ = env.K.FS.List("/load"); len(names) != files {
		t.Errorf("second applyLoad changed /load to %d files, want %d", len(names), files)
	}

	// A rebooted machine is preloaded afresh.
	r.ResetMachine()
	env3 := loadEnv(r)
	r.applyLoad(env3)
	if names, _ = env3.K.FS.List("/load"); len(names) != files {
		t.Errorf("post-reboot machine has %d preload files, want %d", len(names), files)
	}
}

func TestApplyLoadNilProfileIsNoOp(t *testing.T) {
	r := loadRunner(nil)
	env := loadEnv(r)
	before := env.P.HandleCount()
	r.applyLoad(env)
	if env.P.HandleCount() != before {
		t.Error("nil load profile opened handles")
	}
	if _, err := env.K.FS.Stat("/load"); err == nil {
		t.Error("nil load profile created /load")
	}
}

// TestResetMachineReturnsEpochs pins the farm's reboot accounting hook:
// ResetMachine reports how many reboots the discarded machine lifetime
// accumulated and forces the next case onto a fresh kernel.
func TestResetMachineReturnsEpochs(t *testing.T) {
	r := loadRunner(nil)
	k := r.Machine()
	if n := r.ResetMachine(); n != 0 {
		t.Errorf("fresh machine reported %d reboots", n)
	}
	if r.Machine() == k {
		t.Error("ResetMachine kept the old kernel")
	}

	// Simulated reboots are visible through the epoch count.
	r.Machine().Epoch += 3
	if n := r.ResetMachine(); n != 3 {
		t.Errorf("ResetMachine reported %d reboots, want 3", n)
	}
}
