package suite_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"ballista/internal/chaos"
	"ballista/internal/explore"
	"ballista/internal/osprofile"
	"ballista/internal/sim/fs"
	"ballista/internal/sim/kern"
	"ballista/internal/suite"
)

// machineDigest renders everything a fixture install can change: the
// repaired tree state (treeDigest), every node's three timestamps, the
// clock, the dirty flag, the node count, the network and the explore
// state fingerprint.
func machineDigest(k *kern.Kernel) string {
	var b strings.Builder
	b.WriteString(treeDigest(k.FS))
	var walk func(path string)
	walk = func(path string) {
		n, err := k.FS.Stat(path)
		if err != nil {
			return
		}
		fmt.Fprintf(&b, "%s times=%d/%d/%d\n", path, n.CreateTime, n.AccessTime, n.WriteTime)
		names, _ := k.FS.List(path)
		if path != "/" {
			path += "/"
		}
		for _, name := range names {
			walk(path + name)
		}
	}
	walk("/")
	fmt.Fprintf(&b, "ticks=%d dirty=%v nodes=%d net=%s fingerprint=%x\n",
		k.Ticks(), k.FS.Dirty(), k.FS.NodeCount(), netDigest(k), explore.KernelFingerprint(k))
	return b.String()
}

// install boots a brand-new machine for o and applies the fixtures with
// setup.
func install(o osprofile.OS, setup func(*kern.Kernel)) *kern.Kernel {
	k := osprofile.Get(o).NewKernel()
	setup(k)
	return k
}

// mutateFixtures changes an installed tree the three ways a shared
// template would leak into later installs: file bytes overwritten in
// place, a node's mode, and a directory's children map.
func mutateFixtures(k *kern.Kernel) error {
	w, err := k.FS.Open(suite.FixtureWritable, true, true)
	if err != nil {
		return err
	}
	if _, err := w.Write([]byte("XXXX")); err != nil {
		return err
	}
	n, err := k.FS.Stat(suite.FixtureReadable)
	if err != nil {
		return err
	}
	k.FS.SetMode(n, 0o1)
	return k.FS.Rename(suite.FixtureSubdir+"/a.txt", suite.FixtureDir+"/moved.txt")
}

// TestFixtureTemplateIsSound is the oracle for the brand-new machine's
// template copy: on every profile, a fresh machine that copies the
// template must equal one that runs the full repair, in tree state,
// timestamps, clock, dirty flag, node count and state fingerprint.  A
// third install after the first was mutated must still equal the
// repair, so no install shares data bytes, nodes or maps with the
// template.
func TestFixtureTemplateIsSound(t *testing.T) {
	for _, o := range osprofile.All() {
		want := machineDigest(install(o, suite.SetupFixturesWithoutTemplate))
		a := install(o, suite.SetupFixtures)
		if got := machineDigest(a); got != want {
			t.Fatalf("%s: template install differs from the full repair:\ntemplate:\n%s\nrepair:\n%s", o, got, want)
		}
		if err := mutateFixtures(a); err != nil {
			t.Fatalf("%s: %v", o, err)
		}
		if machineDigest(a) == want {
			t.Fatalf("%s: precondition: the mutations changed nothing", o)
		}
		if got := machineDigest(install(o, suite.SetupFixtures)); got != want {
			t.Fatalf("%s: install after mutating an earlier one differs from the full repair:\ngot:\n%s\nwant:\n%s", o, got, want)
		}
	}
}

// TestFixtureTemplateConcurrentInstalls installs and mutates fixtures on
// fresh machines from several goroutines at once; under -race it proves
// the installs only read the shared template.
func TestFixtureTemplateConcurrentInstalls(t *testing.T) {
	const goroutines, installs = 4, 16
	want := machineDigest(install(osprofile.Win98, suite.SetupFixturesWithoutTemplate))
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < installs; i++ {
				k := install(osprofile.Win98, suite.SetupFixtures)
				if got := machineDigest(k); got != want {
					t.Errorf("concurrent install differs from the full repair:\n%s", got)
					return
				}
				if err := mutateFixtures(k); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// diskDecisions reports how many fs.disk decision points the machine
// consumed, given an injector armed with diskProbeRule.  It drains the
// rule's remaining slack, so call it once, after the install.
func diskDecisions(inj *chaos.Injector) int {
	for n := 0; ; n++ {
		if _, ok := inj.Fault(chaos.OpFSDisk, "disk"); ok {
			return diskProbeRule.After - n
		}
	}
}

// diskProbeRule never fires during an install; it fires on the first
// fs.disk decision past After, which lets diskDecisions count them.
var diskProbeRule = chaos.Rule{Op: chaos.OpFSDisk, RatePerMille: 1000, After: 1000}

// TestFixtureTemplateNotTaken: a machine that is not brand-new takes the
// full repair.  Each case prepares two machines the same way and
// requires SetupFixtures to leave exactly what the repair without the
// template leaves, including the timestamps and clock a wrongly taken
// copy would get wrong, the chaos decisions consumed and the
// persistence records.
func TestFixtureTemplateNotTaken(t *testing.T) {
	for _, tc := range []struct {
		name string
		// prep readies a machine using setup for any earlier install,
		// and returns a probe of extra state to compare afterwards.
		prep func(t *testing.T, k *kern.Kernel, setup func(*kern.Kernel)) func() string
	}{
		{"chaos injector", func(_ *testing.T, k *kern.Kernel, _ func(*kern.Kernel)) func() string {
			inj := (&chaos.Plan{Seed: 3, Rules: []chaos.Rule{diskProbeRule}}).NewInjector(nil)
			k.SetInjector(inj)
			return func() string { return fmt.Sprintf("disk decisions=%d", diskDecisions(inj)) }
		}},
		{"persistence log", func(_ *testing.T, k *kern.Kernel, _ func(*kern.Kernel)) func() string {
			log := fs.NewPersistLog()
			k.FS.SetPersistLog(log)
			return func() string { return fmt.Sprintf("records=%+v", log.Records()) }
		}},
		{"ticked clock", func(_ *testing.T, k *kern.Kernel, _ func(*kern.Kernel)) func() string {
			k.Tick()
			return nil
		}},
		{"root attributes", func(t *testing.T, k *kern.Kernel, _ func(*kern.Kernel)) func() string {
			root, err := k.FS.Stat("/")
			if err != nil {
				t.Fatal(err)
			}
			k.FS.SetAttrs(root, fs.AttrDirectory|fs.AttrHidden)
			return nil
		}},
		{"after a reboot", func(t *testing.T, k *kern.Kernel, setup func(*kern.Kernel)) func() string {
			setup(k)
			if _, err := k.FS.Create(suite.ScratchDir+"/stray", 0o6, false); err != nil {
				t.Fatal(err)
			}
			k.Crash("test")
			k.Reboot()
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, o := range osprofile.All() {
				var digests [2]string
				for i, setup := range []func(*kern.Kernel){suite.SetupFixturesWithoutTemplate, suite.SetupFixtures} {
					k := osprofile.Get(o).NewKernel()
					probe := tc.prep(t, k, setup)
					setup(k)
					digests[i] = machineDigest(k)
					if probe != nil {
						digests[i] += probe()
					}
				}
				if digests[1] != digests[0] {
					t.Fatalf("%s: SetupFixtures differs from the full repair:\ngot:\n%s\nwant:\n%s", o, digests[1], digests[0])
				}
				if strings.Contains(digests[0], "disk decisions=0") || strings.Contains(digests[0], "records=[]") {
					t.Fatalf("%s: precondition: the repair left no trace to compare:\n%s", o, digests[0])
				}
			}
		})
	}
}

// TestFreshMachineFixtureAllocs pins the allocations of the first
// fixture install on a brand-new machine, which copies the template
// (34 on go1.24), and requires it to stay below the full repair it
// replaces (38).
func TestFreshMachineFixtureAllocs(t *testing.T) {
	const runs, pinned = 50, 34
	suite.SetupFixtures(osprofile.Get(osprofile.WinNT).NewKernel()) // build the template
	allocs := func(setup func(*kern.Kernel)) float64 {
		ks := make([]*kern.Kernel, runs+1)
		for i := range ks {
			ks[i] = osprofile.Get(osprofile.WinNT).NewKernel()
		}
		i := 0
		return testing.AllocsPerRun(runs, func() {
			setup(ks[i])
			i++
		})
	}
	copied, repaired := allocs(suite.SetupFixtures), allocs(suite.SetupFixturesWithoutTemplate)
	if copied > pinned || copied >= repaired {
		t.Errorf("fresh-machine install allocates %.0f times (full repair %.0f), want at most %d", copied, repaired, pinned)
	}
}
