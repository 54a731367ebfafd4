package farm

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ballista/internal/core"
)

func TestClassRoundTrip(t *testing.T) {
	in := []core.RawClass{
		core.RawClean, core.RawError, core.RawAbort,
		core.RawRestart, core.RawCatastrophic, core.RawSkip,
	}
	enc := encodeClasses(in)
	if enc != "012345" {
		t.Fatalf("encodeClasses = %q", enc)
	}
	out, err := decodeClasses(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip %v -> %v", in, out)
	}
	if _, err := decodeClasses("0162"); err == nil {
		t.Error("decodeClasses accepted out-of-range digit")
	}
}

func TestFlagsRoundTrip(t *testing.T) {
	in := []bool{true, false, false, true}
	if got := decodeFlags(encodeFlags(in)); !reflect.DeepEqual(in, got) {
		t.Fatalf("round trip %v -> %v", in, got)
	}
}

// journalFixtureShards builds a tiny fake shard list for loader tests.
func journalFixtureShards() []ShardDesc {
	return []ShardDesc{
		{Index: 0, MuT: "alpha"},
		{Index: 1, MuT: "beta"},
		{Index: 2, MuT: "beta", Wide: true},
	}
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	jnl, err := OpenJournal(path, "farm")
	if err != nil {
		t.Fatal(err)
	}
	descs := journalFixtureShards()
	if err := jnl.Append("winnt", 100, descs[0],
		ShardResult{Classes: "0123", Exceptional: "0110", Reboots: 2}, 0, false); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Append("winnt", 100, descs[2],
		ShardResult{Classes: "00", Exceptional: "01", Incomplete: true}, 1, true); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	done, err := LoadJournal(path, "winnt", 100, descs)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 2 {
		t.Fatalf("restored %d shards, want 2", len(done))
	}
	s0 := done[0]
	if s0.Reboots != 2 || s0.Classes != "0123" || s0.Exceptional != "0110" {
		t.Errorf("shard 0 restored wrong: %+v", s0)
	}
	s2 := done[2]
	if !s2.Incomplete || s2.Exceptional != "01" {
		t.Errorf("shard 2 restored wrong: %+v", s2)
	}
	if _, ok := done[1]; ok {
		t.Error("shard 1 restored but was never journaled")
	}
}

func TestJournalMissingFileIsFreshCampaign(t *testing.T) {
	done, err := LoadJournal(filepath.Join(t.TempDir(), "absent.jsonl"), "winnt", 100, journalFixtureShards())
	if err != nil || done != nil {
		t.Fatalf("missing journal: done=%v err=%v, want nil/nil", done, err)
	}
}

func TestJournalTornTrailingLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	good := `{"v":1,"os":"winnt","cap":100,"shard":0,"mut":"alpha","classes":"00","exceptional":"01","worker":0}` + "\n"
	torn := `{"v":1,"os":"winnt","cap":100,"shard":1,"mut":"beta","cla`
	if err := os.WriteFile(path, []byte(good+torn), 0o644); err != nil {
		t.Fatal(err)
	}
	done, err := LoadJournal(path, "winnt", 100, journalFixtureShards())
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 1 {
		t.Fatalf("restored %d shards from torn journal, want 1 (the intact line)", len(done))
	}
}

func TestJournalRejectsMismatchedCampaign(t *testing.T) {
	shards := journalFixtureShards()
	write := func(t *testing.T, line string) string {
		t.Helper()
		path := filepath.Join(t.TempDir(), "ckpt.jsonl")
		if err := os.WriteFile(path, []byte(line+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cases := map[string]string{
		"version": `{"v":9,"os":"winnt","cap":100,"shard":0,"mut":"alpha","classes":"0","exceptional":"0","worker":0}`,
		"os":      `{"v":1,"os":"linux","cap":100,"shard":0,"mut":"alpha","classes":"0","exceptional":"0","worker":0}`,
		"cap":     `{"v":1,"os":"winnt","cap":999,"shard":0,"mut":"alpha","classes":"0","exceptional":"0","worker":0}`,
		"shard":   `{"v":1,"os":"winnt","cap":100,"shard":7,"mut":"alpha","classes":"0","exceptional":"0","worker":0}`,
		"mut":     `{"v":1,"os":"winnt","cap":100,"shard":0,"mut":"gamma","classes":"0","exceptional":"0","worker":0}`,
		"wide":    `{"v":1,"os":"winnt","cap":100,"shard":1,"mut":"beta","wide":true,"classes":"0","exceptional":"0","worker":0}`,
		"flags":   `{"v":1,"os":"winnt","cap":100,"shard":0,"mut":"alpha","classes":"00","exceptional":"0","worker":0}`,
	}
	for name, line := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := LoadJournal(write(t, line), "winnt", 100, shards); err == nil {
				t.Errorf("%s mismatch accepted", name)
			}
		})
	}
}
