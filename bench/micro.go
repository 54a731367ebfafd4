package main

import (
	"fmt"
	"strings"
	"testing"

	"ballista/internal/core"
	"ballista/internal/crashsim"
	"ballista/internal/explore"
	"ballista/internal/osprofile"
	"ballista/internal/sim/kern"
	"ballista/internal/sim/mem"
	"ballista/internal/suite"
)

// micros are the per-layer micro-benchmarks.  The traced run measures
// each one through testing.Benchmark; BenchmarkMicro in bench_test.go
// runs the same functions under go test -bench.
var micros = []struct {
	name string
	fn   func(b *testing.B)
}{
	{"boot_nt", func(b *testing.B) { benchBoot(b, osprofile.WinNT) }},
	{"boot_linux", func(b *testing.B) { benchBoot(b, osprofile.Linux) }},
	{"registry", benchRegistry},
	{"fixture_restore", benchFixtureRestore},
	{"process", benchProcess},
	{"fs_stat", benchFSStat},
	{"mem_cstring", benchCString},
	{"generate", benchGenerate},
	{"fingerprint", benchFingerprint},
	{"crash_eval", benchCrashEval},
}

// sink keeps benchmark results alive so the compiler cannot drop the
// measured calls.
var sink any

func benchBoot(b *testing.B, o osprofile.OS) {
	p := osprofile.Get(o)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = p.NewKernel()
	}
}

func benchRegistry(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = suite.NewRegistry()
	}
}

// fixturedNT boots a WinNT kernel and applies the fixtures once.
func fixturedNT() *kern.Kernel {
	k := osprofile.Get(osprofile.WinNT).NewKernel()
	suite.SetupFixtures(k)
	return k
}

// benchFixtureRestore applies the fixtures to a kernel that already has
// them: the per-case restore every shared-machine case pays.
func benchFixtureRestore(b *testing.B) {
	k := fixturedNT()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		suite.SetupFixtures(k)
	}
}

// benchProcess creates a test process and tears its environment down, as
// every case does around its constructors and call.
func benchProcess(b *testing.B) {
	k := fixturedNT()
	p := osprofile.Get(osprofile.WinNT)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env := &core.Env{K: k, P: k.NewProcess(), Profile: p}
		env.Cleanup()
	}
}

func benchFSStat(b *testing.B) {
	k := fixturedNT()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := k.FS.Stat(suite.FixtureSubdir + "/a.txt")
		if err != nil {
			b.Fatal(err)
		}
		sink = n
	}
}

// benchCString reads a 64-byte C string whose first 32 bytes end one page
// and whose last 32 start the next.
func benchCString(b *testing.B) {
	as := mem.New()
	base, err := as.Alloc(2*mem.PageSize, mem.ProtRW)
	if err != nil {
		b.Fatal(err)
	}
	at := base + mem.PageSize - 32
	if f := as.WriteCString(at, strings.Repeat("0123456789abcdef", 4)); f != nil {
		b.Fatal(f)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, f := as.CString(at)
		if f != nil || len(s) != 64 {
			b.Fatalf("CString = %d bytes, fault %v", len(s), f)
		}
		sink = s
	}
}

// benchGenerate samples cases for a five-parameter MuT whose full cross
// product exceeds the 5000-case cap.
func benchGenerate(b *testing.B) {
	sizes := []int{12, 10, 9, 8, 7}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = core.GenerateCases("bench", sizes, core.DefaultCap)
	}
}

func benchFingerprint(b *testing.B) {
	k := fixturedNT()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = explore.KernelFingerprint(k)
	}
}

// benchCrashEval evaluates one four-op crash workload on all seven
// profiles.
func benchCrashEval(b *testing.B) {
	names := crashsim.DefaultNames()
	wls := crashsim.Enumerate(names, 4, 7, 0)
	w := wls[len(wls)-1]
	oses := osprofile.All()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = crashsim.Evaluate(w, names, oses)
	}
}

// microMetrics runs every micro-benchmark and reports ns, bytes and
// allocations per op.
func microMetrics() (map[string]float64, error) {
	m := make(map[string]float64, 3*len(micros))
	for _, mb := range micros {
		r := testing.Benchmark(mb.fn)
		if r.N == 0 {
			return nil, fmt.Errorf("micro-benchmark %s failed", mb.name)
		}
		n := float64(r.N)
		m["micro."+mb.name+".ns_op"] = float64(r.T.Nanoseconds()) / n
		m["micro."+mb.name+".b_op"] = float64(r.MemBytes) / n
		m["micro."+mb.name+".allocs_op"] = float64(r.MemAllocs) / n
	}
	return m, nil
}
