package journal

import (
	"bufio"
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

type rec struct {
	N int `json:"n"`
}

// appendAndReplay opens path with header, appends rec{42}, and returns
// every line Replay hands back.
func appendAndReplay(t *testing.T, path string, header any) []string {
	t.Helper()
	j, err := Open(path, header)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(rec{N: 42}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var lines []string
	if err := Replay(path, func(line []byte) error {
		lines = append(lines, string(line))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestReopenAfterTornTail: whatever a crash left at the tail, the record
// appended after reopening comes back from Replay intact, and a clean
// file gains exactly that record.
func TestReopenAfterTornTail(t *testing.T) {
	const appended = `{"n":42}`
	cases := []struct {
		name     string
		existing *string // nil: no file
		header   any
		want     []string
	}{
		{name: "missing file", want: []string{appended}},
		{name: "missing file, header", header: rec{N: 0}, want: []string{`{"n":0}`, appended}},
		{name: "empty file, header", existing: ptr(""), header: rec{N: 0}, want: []string{`{"n":0}`, appended}},
		{name: "clean tail", existing: ptr(`{"n":1}` + "\n"), want: []string{`{"n":1}`, appended}},
		{name: "clean tail keeps its header", existing: ptr(`{"n":1}` + "\n"), header: rec{N: 0},
			want: []string{`{"n":1}`, appended}},
		{name: "torn record", existing: ptr(`{"n":1}` + "\n" + `{"n":2,"x`),
			want: []string{`{"n":1}`, `{"n":2,"x`, appended}},
		{name: "torn header", existing: ptr(`{"n":`), header: rec{N: 0}, want: []string{`{"n":`, appended}},
		{name: "garbage tail", existing: ptr("\n\n\x00\xff"), want: []string{"\x00\xff", appended}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "sub", "j.jsonl")
			if tc.existing != nil {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(*tc.existing), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			got := appendAndReplay(t, path, tc.header)
			if len(got) != len(tc.want) {
				t.Fatalf("replayed %q, want %q", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("replayed %q, want %q", got, tc.want)
				}
			}
		})
	}
}

func ptr(s string) *string { return &s }

// fuzzMaxLine stands in for maxLine so a committed seed can hold an
// over-cap line.
const fuzzMaxLine = 64

// FuzzJournalReplay: any bytes at all — torn tails, garbage, blank
// lines, over-long lines, a bare header — must never panic the loader,
// which hands back exactly the non-blank lines or stops at an over-cap
// one.  And whatever a crash left in the file, a record appended after
// reopening replays intact as the last line, without disturbing a byte
// already there.
func FuzzJournalReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var got [][]byte
		err := scan(bytes.NewReader(data), "fuzz", fuzzMaxLine, func(line []byte) error {
			if len(line) == 0 || len(line) > fuzzMaxLine || bytes.IndexByte(line, '\n') >= 0 {
				t.Fatalf("scan handed back %q", line)
			}
			got = append(got, bytes.Clone(line))
			return nil
		})
		var want [][]byte
		overCap := false
		for _, seg := range bytes.Split(data, []byte("\n")) {
			overCap = overCap || len(seg) >= fuzzMaxLine
			if seg = bytes.TrimSuffix(seg, []byte("\r")); len(seg) > 0 {
				want = append(want, seg)
			}
		}
		switch {
		case err != nil:
			if !errors.Is(err, bufio.ErrTooLong) || !overCap {
				t.Fatalf("scan failed on input without an over-cap line: %v", err)
			}
		case len(got) != len(want):
			t.Fatalf("scan handed back %d lines, want %d", len(got), len(want))
		default:
			for i := range got {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("line %d is %q, want %q", i, got[i], want[i])
				}
			}
		}

		path := filepath.Join(t.TempDir(), "j.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		lines := appendAndReplay(t, path, nil)
		if last := lines[len(lines)-1]; last != `{"n":42}` {
			t.Fatalf("appended record replayed as %q", last)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(after, data) {
			t.Fatal("reopening rewrote bytes already in the journal")
		}
	})
}
