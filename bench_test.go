package ballista

// The benchmark harness regenerates every table and figure in the
// paper's evaluation (§4).  Each BenchmarkTableN/BenchmarkFigureN runs
// the campaigns that feed that exhibit and reports the headline numbers
// as custom metrics, so `go test -bench=.` reproduces the paper's
// results end to end.  benchCap trades fidelity for wall time; run
// `cmd/repro -cap 5000` for the full-scale reproduction recorded in
// EXPERIMENTS.md.

import (
	"context"
	"fmt"
	"testing"

	"ballista/internal/catalog"
	"ballista/internal/core"
	"ballista/internal/osprofile"
	"ballista/internal/report"
)

// benchCap is the per-MuT case limit for benchmark iterations (the
// paper's experiments use 5000; see EXPERIMENTS.md for full-cap runs).
const benchCap = 200

func runAllCached(b *testing.B) map[OS]*Result {
	b.Helper()
	results, err := RunAll(WithCap(benchCap))
	if err != nil {
		b.Fatal(err)
	}
	return results
}

// BenchmarkTable1 regenerates Table 1: normalized Abort/Restart failure
// rates and Catastrophic counts per OS, split into system calls and C
// library functions.
func BenchmarkTable1(b *testing.B) {
	var sums []report.Summary
	for i := 0; i < b.N; i++ {
		sums = Summaries(runAllCached(b))
	}
	for _, s := range sums {
		prefix := shortOS(s.OS)
		b.ReportMetric(s.SysAbortPct, prefix+"_sys_abort_pct")
		b.ReportMetric(s.CLibAbortPct, prefix+"_lib_abort_pct")
		b.ReportMetric(float64(s.TotalCatastrophic), prefix+"_catastrophic_muts")
	}
}

// BenchmarkTable2Figure1 regenerates the Table 2 / Figure 1 matrix: the
// twelve functional groups × seven OSes.  The reported metrics pin the
// paper's headline cells: Linux C char ≈30% vs Windows 0%.
func BenchmarkTable2Figure1(b *testing.B) {
	var matrix map[OS]map[catalog.Group]report.GroupRate
	for i := 0; i < b.N; i++ {
		matrix = GroupMatrix(runAllCached(b))
	}
	b.ReportMetric(matrix[Linux][catalog.GrpCChar].Pct, "linux_cchar_pct")
	b.ReportMetric(matrix[WinNT][catalog.GrpCChar].Pct, "nt_cchar_pct")
	b.ReportMetric(matrix[Linux][catalog.GrpCStreamIO].Pct, "linux_cstream_pct")
	b.ReportMetric(matrix[WinNT][catalog.GrpCStreamIO].Pct, "nt_cstream_pct")
	b.ReportMetric(matrix[WinNT][catalog.GrpFileDirAccess].Pct, "nt_filedir_pct")
	b.ReportMetric(matrix[Linux][catalog.GrpFileDirAccess].Pct, "linux_filedir_pct")
	// The paper's 4-of-12 conclusion as a single metric.
	higher := 0.0
	for _, g := range catalog.Groups() {
		if !matrix[Linux][g].NA && !matrix[WinNT][g].NA && matrix[Linux][g].Pct > matrix[WinNT][g].Pct {
			higher++
		}
	}
	b.ReportMetric(higher, "linux_higher_groups")
}

// BenchmarkTable3 regenerates the Catastrophic-function inventory and
// reports the per-OS counts the paper's Table 1/3 record (7/5/6/10
// system calls; 1/2/1 desktop C functions; 27 CE variants).
func BenchmarkTable3(b *testing.B) {
	var results map[OS]*Result
	for i := 0; i < b.N; i++ {
		results = runAllCached(b)
	}
	for _, o := range []OS{Win95, Win98, Win98SE, WinCE} {
		b.ReportMetric(float64(len(results[o].CatastrophicMuTs())), shortOS(o)+"_catastrophic")
	}
	for _, o := range []OS{Linux, WinNT, Win2000} {
		if n := len(results[o].CatastrophicMuTs()); n != 0 {
			b.Fatalf("%s crashed: %v", o, results[o].CatastrophicMuTs())
		}
	}
}

// BenchmarkFigure2 regenerates the estimated-Silent analysis: voting
// identical test cases across the five desktop Windows variants.
func BenchmarkFigure2(b *testing.B) {
	var silent map[OS]float64
	for i := 0; i < b.N; i++ {
		est := EstimateSilent(runAllCached(b))
		silent = make(map[OS]float64, len(est))
		for o, stats := range est {
			var sum float64
			var n int
			for _, s := range stats {
				if s.Group.SystemCallGroup() {
					sum += s.Rate()
					n++
				}
			}
			silent[o] = 100 * sum / float64(n)
		}
	}
	for o, v := range silent {
		b.ReportMetric(v, shortOS(o)+"_sys_silent_pct")
	}
}

// BenchmarkListing1 measures the single-test-case reproduction path with
// the paper's Listing 1 (GetThreadContext(GetCurrentThread(), NULL))
// against Windows 98, asserting the Catastrophic outcome each time.
func BenchmarkListing1(b *testing.B) {
	m, _ := catalog.ByName(catalog.Win32, "GetThreadContext")
	reg := Registry()
	tc := core.Case{valueIndex(b, reg, "HTHREAD", "PSEUDO_THREAD"), valueIndex(b, reg, "LPCONTEXT", "NULL")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cls, err := NewRunner(Win98, WithIsolation()).RunCase(m, tc, false)
		if err != nil {
			b.Fatal(err)
		}
		if cls != Catastrophic {
			b.Fatalf("Listing 1 classified %v", cls)
		}
	}
}

// BenchmarkSamplingAccuracy is the ablation behind the paper's 5000-case
// cap (§3.1, citing [9]): the capped pseudorandom sample's abort rate
// tracks exhaustive testing.  Reports both rates and their gap in
// percentage points.
func BenchmarkSamplingAccuracy(b *testing.B) {
	m, _ := catalog.ByName(catalog.Win32, "ReadFile") // ~46k combinations
	var sampled, exhaustive float64
	for i := 0; i < b.N; i++ {
		rs, err := NewRunner(WinNT, WithCap(2000)).RunMuT(context.Background(), m, false)
		if err != nil {
			b.Fatal(err)
		}
		re, err := NewRunner(WinNT, WithCap(1<<30)).RunMuT(context.Background(), m, false)
		if err != nil {
			b.Fatal(err)
		}
		sampled, exhaustive = 100*rs.AbortRate(), 100*re.AbortRate()
	}
	b.ReportMetric(sampled, "sampled_abort_pct")
	b.ReportMetric(exhaustive, "exhaustive_abort_pct")
	gap := sampled - exhaustive
	if gap < 0 {
		gap = -gap
	}
	b.ReportMetric(gap, "gap_pp")
	if gap > 5 {
		b.Errorf("sampling error %.1f pp exceeds the paper's accuracy claim", gap)
	}
}

// BenchmarkIsolationAblation compares shared-machine campaigns (the
// paper's setup, where "*" defects accumulate into crashes) against
// fresh-machine-per-case isolation (where they cannot reproduce),
// reporting the Catastrophic counts of each mode.
func BenchmarkIsolationAblation(b *testing.B) {
	var shared, isolated int
	for i := 0; i < b.N; i++ {
		rs, err := Run(Win98, WithCap(benchCap))
		if err != nil {
			b.Fatal(err)
		}
		ri, err := Run(Win98, WithCap(benchCap), WithIsolation())
		if err != nil {
			b.Fatal(err)
		}
		shared, isolated = len(rs.CatastrophicMuTs()), len(ri.CatastrophicMuTs())
	}
	b.ReportMetric(float64(shared), "shared_catastrophic")
	b.ReportMetric(float64(isolated), "isolated_catastrophic")
	if isolated >= shared {
		b.Errorf("isolation did not suppress harness-only crashes: %d vs %d", isolated, shared)
	}
}

// BenchmarkCampaignThroughput measures raw harness speed: test cases
// executed per second for a full Windows 98 campaign.
func BenchmarkCampaignThroughput(b *testing.B) {
	var cases int
	for i := 0; i < b.N; i++ {
		r, err := Run(Win98, WithCap(benchCap))
		if err != nil {
			b.Fatal(err)
		}
		cases = r.CasesRun
	}
	b.ReportMetric(float64(cases)*float64(b.N)/b.Elapsed().Seconds(), "cases/sec")
}

// BenchmarkCaseGeneration measures the test-case generator alone.
func BenchmarkCaseGeneration(b *testing.B) {
	sizes := []int{12, 11, 10, 8, 6}
	for i := 0; i < b.N; i++ {
		cases := core.GenerateCases(fmt.Sprintf("Fn%d", i%16), sizes, core.DefaultCap)
		if len(cases) != core.DefaultCap {
			b.Fatal("unexpected case count")
		}
	}
}

// BenchmarkSingleCase measures one complete test-case execution: fresh
// process, constructors, dispatch, classification, cleanup.
func BenchmarkSingleCase(b *testing.B) {
	m, _ := catalog.ByName(catalog.Win32, "CloseHandle")
	runner := NewRunner(WinNT)
	tc := core.Case{0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.RunCase(m, tc, false); err != nil {
			b.Fatal(err)
		}
	}
}

func valueIndex(b *testing.B, reg *core.Registry, typeName, valueName string) int {
	b.Helper()
	dt, ok := reg.Lookup(typeName)
	if !ok {
		b.Fatalf("type %s missing", typeName)
	}
	for i, v := range dt.Values {
		if v.Name == valueName {
			return i
		}
	}
	b.Fatalf("value %s/%s missing", typeName, valueName)
	return -1
}

func shortOS(o OS) string {
	switch o {
	case Linux:
		return "linux"
	case Win95:
		return "w95"
	case Win98:
		return "w98"
	case Win98SE:
		return "w98se"
	case WinNT:
		return "nt"
	case Win2000:
		return "w2k"
	case WinCE:
		return "ce"
	default:
		return "unknown"
	}
}

// BenchmarkProbeAblation is the DESIGN.md §7 architecture ablation: the
// Windows NT profile with kernel pointer probing disabled (and Windows
// 98's defect table substituted) crashes exactly where real NT throws
// exceptions — demonstrating that probing, not code quality, is what
// separates the families' Catastrophic behaviour.
func BenchmarkProbeAblation(b *testing.B) {
	var normal, ablated int
	for i := 0; i < b.N; i++ {
		rn, err := Run(WinNT, WithCap(benchCap))
		if err != nil {
			b.Fatal(err)
		}
		ra, err := Run(WinNT, WithCap(benchCap),
			WithProfile(osprofile.AblateProbing(WinNT, Win98)))
		if err != nil {
			b.Fatal(err)
		}
		normal, ablated = len(rn.CatastrophicMuTs()), len(ra.CatastrophicMuTs())
	}
	b.ReportMetric(float64(normal), "nt_catastrophic")
	b.ReportMetric(float64(ablated), "nt_noprobe_catastrophic")
	if normal != 0 {
		b.Errorf("real NT crashed (%d MuTs)", normal)
	}
	if ablated == 0 {
		b.Error("NT without probing should crash like Windows 98")
	}
}

// BenchmarkLoadAblation measures the §5 heavy-load future-work mode:
// failure pressure (error returns + allocation-failure skips) with and
// without resource pressure on the NT memory-management group.
func BenchmarkLoadAblation(b *testing.B) {
	frac := func(opts ...Option) float64 {
		runner := NewRunner(WinNT, append(opts, WithCap(benchCap))...)
		var bad, all int
		for _, m := range catalog.MuTsFor(WinNT) {
			if m.Group != catalog.GrpMemoryManagement {
				continue
			}
			res, err := runner.RunMuT(context.Background(), m, false)
			if err != nil {
				b.Fatal(err)
			}
			bad += res.Count(ErrorReturn) + res.Count(Skip)
			all += len(res.Cases)
		}
		return 100 * float64(bad) / float64(all)
	}
	var base, loaded float64
	for i := 0; i < b.N; i++ {
		base = frac()
		loaded = frac(WithLoad(DefaultLoad()))
	}
	b.ReportMetric(base, "baseline_pressure_pct")
	b.ReportMetric(loaded, "loaded_pressure_pct")
}

// BenchmarkHinderingAudit runs the CRASH "H" oracle across all seven
// systems, reporting misreported-error-code counts: zero on the plateau
// systems (Linux, NT, 2000), nonzero on the 9x family.
func BenchmarkHinderingAudit(b *testing.B) {
	counts := make(map[OS]int)
	for i := 0; i < b.N; i++ {
		for _, o := range AllOSes() {
			rs, err := AuditHindering(o)
			if err != nil {
				b.Fatal(err)
			}
			counts[o] = hinderCount(rs)
		}
	}
	for o, n := range counts {
		b.ReportMetric(float64(n), shortOS(o)+"_hindering")
	}
	for _, o := range []OS{Linux, WinNT, Win2000} {
		if counts[o] != 0 {
			b.Errorf("%s misreported %d codes", o, counts[o])
		}
	}
}

func hinderCount(rs []HinderResult) int {
	n := 0
	for _, r := range rs {
		if r.Hindering {
			n++
		}
	}
	return n
}
