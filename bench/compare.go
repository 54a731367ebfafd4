package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// runCompare reads two sets of result files (JSON lines, as
// bench-out/results.jsonl holds them), separated by "--", and prints for
// every workload and end-to-end metric each set's median and quartiles
// and the change of B against A next to the metric's bound.  It refuses
// sets measured on different hosts, and fails when a metric got worse by
// more than its bound.
func runCompare(w io.Writer, root string, args []string) error {
	var a, b []string
	for i, arg := range args {
		if arg == "--" {
			a, b = args[:i], args[i+1:]
			break
		}
	}
	if len(a) == 0 || len(b) == 0 {
		return errors.New("usage: -compare A.jsonl... -- B.jsonl...")
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	recsA, err := readRecords(a)
	if err != nil {
		return err
	}
	recsB, err := readRecords(b)
	if err != nil {
		return err
	}
	h := recsA[0].Host
	for _, r := range append(recsA, recsB...) {
		if r.Host != h {
			return fmt.Errorf("results come from different hosts: %+v and %+v", h, r.Host)
		}
	}

	worse := 0
	fmt.Fprintf(w, "host: %d CPUs, GOMAXPROCS %d, %s, %s\n", h.NProc, h.GOMAXPROCS, h.CPU, h.Go)
	fmt.Fprintf(w, "%-15s %-21s %37s %37s %8s %6s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B vs A", "bound")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := values(recsA, wl.Name, m.Name), values(recsB, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			qa, qb := quartiles(va), quartiles(vb)
			change := (qb[1] - qa[1]) / qa[1]
			verdict := ""
			if (m.Better == "lower" && change > m.Bound) || (m.Better == "higher" && -change > m.Bound) {
				verdict = "  WORSE"
				worse++
			}
			fmt.Fprintf(w, "%-15s %-21s %37s %37s %+7.1f%% %5.0f%%%s\n", wl.Name, m.Name,
				fmtQuartiles(qa, len(va)), fmtQuartiles(qb, len(vb)), 100*change, 100*m.Bound, verdict)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metrics got worse by more than their bound", worse)
	}
	return nil
}

func readRecords(paths []string) ([]record, error) {
	var out []record
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 64<<10), 16<<20)
		for sc.Scan() {
			var r record
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				f.Close()
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			out = append(out, r)
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no results in %v", paths)
	}
	return out, nil
}

// values collects one metric of one workload from the untraced records.
func values(recs []record, workload, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Result.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
			out = append(out, m.Value)
		}
	}
	return out
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(xs, n=4) computes them (its default
// "exclusive" method); a single value is all three.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

func fmtQuartiles(q [3]float64, n int) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", q[1], q[0], q[2], n)
}
