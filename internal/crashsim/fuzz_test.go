package crashsim

import (
	"reflect"
	"testing"

	"ballista/internal/osprofile"
)

// decodeWorkload turns raw fuzz bytes into a bounded workload: the
// first 8 bytes seed the data, then each op is 2 bytes (kind, names).
// Length is capped at 4 ops — beyond B3's seq-2 but still bounded.
func decodeWorkload(data []byte) (Workload, bool) {
	if len(data) < 8+2 {
		return Workload{}, false
	}
	var seed uint64
	for _, b := range data[:8] {
		seed = seed<<8 | uint64(b)
	}
	names := DefaultNames()
	w := Workload{Seed: seed}
	for rest := data[8:]; len(rest) >= 2 && len(w.Ops) < 4; rest = rest[2:] {
		kind := OpKind(rest[0] % byte(numOpKinds))
		file := names[rest[1]&1]
		op := Op{Kind: kind, File: file}
		if kind == OpRename || kind == OpLink {
			op.To = names[(rest[1]>>1)&1]
			if op.To == op.File {
				op.To = names[1-(rest[1]>>1)&1]
			}
		}
		w.Ops = append(w.Ops, op)
	}
	return w, true
}

// FuzzCrashWorkload drives random bounded workloads through the full
// oracle on every profile and asserts its structural properties: no
// panic, a non-empty legal-state set at every crash point (the fully
// persisted state is always legal), verdict vectors sized to the
// workload, and a stable (pure) evaluation.
func FuzzCrashWorkload(f *testing.F) {
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\x00\x07\x03\x01"))                 // rename(f1,f0)
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\x00\x07\x00\x01\x02\x01"))         // create(f1);fsync(f1)
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\x00\x2a\x01\x00\x03\x00"))         // write(f0);rename(f0,f1)
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\x00\x01\x04\x00\x05\x01\x02\x00")) // link;remove;fsync
	f.Fuzz(func(t *testing.T, data []byte) {
		w, ok := decodeWorkload(data)
		if !ok {
			t.Skip()
		}
		oses := osprofile.All()
		fd := Evaluate(w, nil, oses)
		for _, o := range oses {
			v := fd.Verdicts[o.WireName()]
			if v == nil {
				t.Fatalf("no verdict for %s", o.WireName())
			}
			n := len(w.Ops)
			if len(v.Results) != n || len(v.States) != n || len(v.Violations) != n {
				t.Fatalf("%s: verdict vectors %d/%d/%d, want %d each",
					o.WireName(), len(v.Results), len(v.States), len(v.Violations), n)
			}
			for cp, states := range v.States {
				if states < 1 {
					t.Fatalf("%s %s cp %d: empty legal-state set", o.WireName(), w.Key(), cp+1)
				}
			}
		}
		again := Evaluate(w, nil, oses)
		if !reflect.DeepEqual(fd, again) {
			t.Fatalf("evaluation of %s is not pure", w.Key())
		}
		if fd.Interesting() {
			m := Minimize(fd, nil, oses)
			if !m.Interesting() {
				t.Fatalf("minimizing %s lost the finding", w.Key())
			}
		}
	})
}
