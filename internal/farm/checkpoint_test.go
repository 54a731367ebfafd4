package farm

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ballista/internal/core"
	"ballista/internal/sweep"
)

func TestClassRoundTrip(t *testing.T) {
	in := []core.RawClass{
		core.RawClean, core.RawError, core.RawAbort,
		core.RawRestart, core.RawCatastrophic, core.RawSkip,
	}
	enc := core.PackClasses(in)
	if enc != "012345" {
		t.Fatalf("PackClasses = %q", enc)
	}
	out, err := core.UnpackClasses(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip %v -> %v", in, out)
	}
	if _, err := core.UnpackClasses("0162"); err == nil {
		t.Error("UnpackClasses accepted out-of-range digit")
	}
}

func TestFlagsRoundTrip(t *testing.T) {
	in := []bool{true, false, false, true}
	if got := core.UnpackFlags(core.PackFlags(in)); !reflect.DeepEqual(in, got) {
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

// fixtureID is the journal identity of the fixture campaign.
func fixtureID() string { return campaignID("winnt", 100, journalFixtureShards()) }

// openFixture replays the farm journal at path against the fixture
// campaign, the way Run's sweep opens it, and closes it again.
func openFixture(path string) ([]*outcome, error) {
	done := make([]*outcome, len(journalFixtureShards()))
	jnl, err := sweep.OpenJournal(path, "farm", fixtureID(), done)
	if err != nil {
		return nil, err
	}
	return done, jnl.Close()
}

// writeFixture writes the fixture campaign's header followed by lines.
func writeFixture(t *testing.T, header string, lines ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	data := header + "\n" + strings.Join(lines, "\n")
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// fixtureHeader is a farm journal header of format version v.
func fixtureHeader(v int, id string) string {
	return fmt.Sprintf(`{"v":%d,"kind":"farm","id":%q}`, v, id)
}

// TestJournalRoundTrip: a shard journaled as its packed wire form
// restores with its classes, flags, incomplete mark and reboots.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	jnl, err := sweep.OpenJournal(path, "farm", fixtureID(), make([]*outcome, 3))
	if err != nil {
		t.Fatal(err)
	}
	s0 := &outcome{reboots: 2, res: &core.MuTResult{
		Cases:       []core.RawClass{core.RawClean, core.RawError, core.RawAbort, core.RawRestart},
		Exceptional: []bool{false, true, true, false},
	}}
	s2 := &outcome{res: &core.MuTResult{
		Cases:       []core.RawClass{core.RawClean, core.RawClean},
		Exceptional: []bool{false, true}, Incomplete: true,
	}}
	if err := jnl.Append(0, s0); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Append(2, s2); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"i":0,"r":{"classes":"0123","exceptional":"0110","reboots":2}}`; !strings.Contains(string(data), want+"\n") {
		t.Errorf("journal does not hold the packed record %s:\n%s", want, data)
	}

	done, err := openFixture(path)
	if err != nil {
		t.Fatal(err)
	}
	if done[1] != nil {
		t.Error("shard 1 restored but was never journaled")
	}
	for i, want := range map[int]*outcome{0: s0, 2: s2} {
		if got := done[i]; got == nil || got.reboots != want.reboots || !reflect.DeepEqual(got.res, want.res) {
			t.Errorf("shard %d restored as %+v, want %+v", i, got, want)
		}
	}
}

func TestJournalMissingFileIsFreshCampaign(t *testing.T) {
	path := filepath.Join(t.TempDir(), "absent.jsonl")
	done, err := openFixture(path)
	if err != nil {
		t.Fatalf("missing journal: %v", err)
	}
	for i, d := range done {
		if d != nil {
			t.Errorf("missing journal restored shard %d", i)
		}
	}
	if data, _ := os.ReadFile(path); string(data) != fixtureHeader(1, fixtureID())+"\n" {
		t.Errorf("fresh journal is %q, want its header alone", data)
	}
}

func TestJournalTornTrailingLine(t *testing.T) {
	path := writeFixture(t, fixtureHeader(1, fixtureID()),
		`{"i":0,"r":{"classes":"00","exceptional":"01"}}`,
		`{"i":1,"r":{"classes":"0`)
	done, err := openFixture(path)
	if err != nil {
		t.Fatal(err)
	}
	if done[0] == nil || done[1] != nil {
		t.Fatalf("restored %v from a torn journal, want shard 0 alone (the intact line)", done)
	}
}

// TestJournalRejectsMismatchedCampaign: a journal of another campaign or
// format, or with a record that does not decode against the campaign,
// is refused rather than resumed.  The campaign identity (OS, cap, shard
// list) is checked once, by the header's ID.
func TestJournalRejectsMismatchedCampaign(t *testing.T) {
	shards := journalFixtureShards()
	other := func(edit func([]ShardDesc)) string {
		descs := journalFixtureShards()
		edit(descs)
		return campaignID("winnt", 100, descs)
	}
	record := `{"i":0,"r":{"classes":"0","exceptional":"0"}}`
	cases := map[string]struct{ header, record, want string }{
		"version": {fixtureHeader(9, fixtureID()), record, "v9"},
		"os":      {fixtureHeader(1, campaignID("linux", 100, shards)), record, "different sweep"},
		"cap":     {fixtureHeader(1, campaignID("winnt", 999, shards)), record, "different sweep"},
		"shard":   {fixtureHeader(1, fixtureID()), `{"i":7,"r":{"classes":"0","exceptional":"0"}}`, "item 7 of 3"},
		"mut":     {fixtureHeader(1, other(func(d []ShardDesc) { d[0].MuT = "gamma" })), record, "different sweep"},
		"wide":    {fixtureHeader(1, other(func(d []ShardDesc) { d[1].Wide = true })), record, "different sweep"},
		"flags":   {fixtureHeader(1, fixtureID()), `{"i":0,"r":{"classes":"00","exceptional":"0"}}`, "exceptional flags"},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := openFixture(writeFixture(t, c.header, c.record))
			if err == nil {
				t.Fatalf("%s mismatch accepted", name)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s mismatch refused with %q, want it to say %q", name, err, c.want)
			}
		})
	}
}
