package fs

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"ballista/internal/chaos"
)

// splitRef is the original strings.Split-based path normalizer, kept as
// the reference the in-place walker must agree with component for
// component.
func splitRef(path string) ([]string, error) {
	if path == "" || strings.ContainsRune(path, 0) {
		return nil, ErrInvalidPath
	}
	if len(path) >= 2 && path[1] == ':' {
		path = path[2:]
		if path == "" {
			path = "/"
		}
	}
	path = strings.ReplaceAll(path, "\\", "/")
	parts := strings.Split(path, "/")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		switch p {
		case "", ".":
		case "..":
			if len(out) > 0 {
				out = out[:len(out)-1]
			}
		default:
			out = append(out, p)
		}
	}
	return out, nil
}

// checkSplit compares Split with the reference on one path.
func checkSplit(t *testing.T, path string) {
	t.Helper()
	want, wantErr := splitRef(path)
	got, err := Split(path)
	if !errors.Is(err, wantErr) || (wantErr == nil) != (err == nil) {
		t.Errorf("Split(%q) err = %v, want %v", path, err, wantErr)
		return
	}
	if len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(got, want) {
		t.Errorf("Split(%q) = %q, want %q", path, got, want)
	}
	// The stack-buffer form lookups use, spilling past maxInlineDepth.
	var buf [maxInlineDepth]string
	got, _ = splitInto(buf[:0], path)
	if len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(got, want) {
		t.Errorf("splitInto(buf, %q) = %q, want %q", path, got, want)
	}
}

func TestSplitMatchesReference(t *testing.T) {
	deep := strings.Repeat("/d", 40) + "/leaf"
	for _, path := range []string{
		"", "\x00", "a\x00b", `C:\x` + "\x00",
		"C:", "C:\\", "C:/", `C:\x`, "C:x", `c:\a\b\c.txt`, "::", ":",
		"/", `\`, "//", `\\`, "a", "/a", `\a\`, "a/b", `a\b/c\d`, `/bl\dir/f.txt`,
		".", "./", "/.", "/./a/.", "..", "/..", "../a", "a/..", "/a/b/../..", "/a/../../b",
		"/a/b/..", "/a/b/../", "a//b///c", "a/b/", `a\\b\\`, "/...", "/a/.../b", "..a/b..",
		"/bl/./dir/../dir/f.txt", deep, deep + "/../x", strings.Repeat("a/", 17),
	} {
		checkSplit(t, path)
	}
}

// TestSplitReferenceProperty drives Split and the reference with paths
// over the alphabet that matters to the walker.
func TestSplitReferenceProperty(t *testing.T) {
	const alphabet = `ab./\:C` + "\x00"
	prop := func(raw []byte) bool {
		var b strings.Builder
		for _, c := range raw {
			b.WriteByte(alphabet[int(c)%len(alphabet)])
		}
		path := b.String()
		want, wantErr := splitRef(path)
		got, err := Split(path)
		if (err == nil) != (wantErr == nil) {
			return false
		}
		return len(got) == len(want) && (len(got) == 0 || reflect.DeepEqual(got, want))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// mkdirAllRef is the original MkdirAll: Mkdir on every prefix, ignoring
// ErrExists.  It is the reference for results, chaos decision order,
// clock ticks and persistence records.
func mkdirAllRef(f *FileSystem, path string, mode uint16) error {
	parts, err := splitRef(path)
	if err != nil {
		return err
	}
	cur := ""
	for _, p := range parts {
		cur += "/" + p
		if err := f.Mkdir(cur, mode); err != nil && !errors.Is(err, ErrExists) {
			return err
		}
	}
	return nil
}

func TestMkdirAllMatchesReference(t *testing.T) {
	cases := []struct {
		name string
		// prep builds the tree MkdirAll runs against.
		prep func(t *testing.T, f *FileSystem)
		// disk, when nonzero, arms an always-firing OpFSDisk rule after
		// that many volume-wide allocations (counted from MkdirAll).
		disk    int
		path    string
		wantErr error
		// wantDirs must exist afterwards; wantMissing must not.
		wantDirs, wantMissing []string
	}{
		{
			name:     "fresh tree",
			path:     "/a/b/c",
			wantDirs: []string{"/a", "/a/b", "/a/b/c"},
		},
		{
			name: "existing path",
			prep: func(t *testing.T, f *FileSystem) {
				mustMkdirAll(t, f, "/a/b/c")
			},
			path:     `C:\a\b\c`,
			wantDirs: []string{"/a/b/c"},
		},
		{
			name: "partly existing path",
			prep: func(t *testing.T, f *FileSystem) {
				mustMkdirAll(t, f, "/a")
			},
			path:     "/a/./b/../b/c/",
			wantDirs: []string{"/a/b/c"},
		},
		{
			name:     "root only",
			path:     "/",
			wantDirs: []string{"/"},
		},
		{
			name:    "invalid path",
			path:    "/a\x00b",
			wantErr: ErrInvalidPath,
		},
		{
			name: "file in the middle",
			prep: func(t *testing.T, f *FileSystem) {
				mustMkdirAll(t, f, "/a")
				mustCreate(t, f, "/a/f")
			},
			path:        "/a/f/b/c",
			wantErr:     ErrNotDir,
			wantMissing: []string{"/a/f/b"},
		},
		{
			name: "file as the last component",
			prep: func(t *testing.T, f *FileSystem) {
				mustMkdirAll(t, f, "/a")
				mustCreate(t, f, "/a/f")
			},
			path:     "/a/f",
			wantDirs: []string{"/a"},
		},
		{
			name: "disk full at the third new component",
			prep: func(t *testing.T, f *FileSystem) {
				mustMkdirAll(t, f, "/a")
			},
			disk:        2,
			path:        "/a/b/c/d/e",
			wantErr:     ErrNoSpace,
			wantDirs:    []string{"/a/b/c"},
			wantMissing: []string{"/a/b/c/d"},
		},
		{
			name: "disk full budget untouched by existing components",
			prep: func(t *testing.T, f *FileSystem) {
				mustMkdirAll(t, f, "/a/b/c")
			},
			disk:     2,
			path:     "/a/b/c/d/e",
			wantDirs: []string{"/a/b/c/d/e"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(mkdirAll func(*FileSystem, string, uint16) error) (*FileSystem, *PersistLog, error) {
				f := newFS()
				l := attachLog(f)
				if tc.prep != nil {
					tc.prep(t, f)
				}
				if tc.disk > 0 {
					plan := &chaos.Plan{Seed: 1, Rules: []chaos.Rule{
						{Op: chaos.OpFSDisk, RatePerMille: 1000, After: tc.disk},
					}}
					if err := plan.Validate(); err != nil {
						t.Fatal(err)
					}
					f.SetInjector(plan.NewInjector(nil))
				}
				return f, l, mkdirAll(f, tc.path, 0o7)
			}
			ref, refLog, refErr := run(mkdirAllRef)
			got, gotLog, err := run((*FileSystem).MkdirAll)

			if !errors.Is(err, tc.wantErr) || (err == nil) != (tc.wantErr == nil) {
				t.Fatalf("MkdirAll(%q) = %v, want %v", tc.path, err, tc.wantErr)
			}
			if !errors.Is(refErr, tc.wantErr) || (refErr == nil) != (tc.wantErr == nil) {
				t.Fatalf("reference MkdirAll(%q) = %v, want %v", tc.path, refErr, tc.wantErr)
			}
			for _, d := range tc.wantDirs {
				if n, err := got.Stat(d); err != nil || !n.IsDir() {
					t.Errorf("%s: not a directory after MkdirAll (%v)", d, err)
				}
			}
			for _, d := range tc.wantMissing {
				if _, err := got.Stat(d); err == nil {
					t.Errorf("%s exists after a failed MkdirAll", d)
				}
			}
			if !reflect.DeepEqual(gotLog.Records(), refLog.Records()) {
				t.Errorf("persist log differs from reference:\n got %+v\nwant %+v", gotLog.Records(), refLog.Records())
			}
			if got.String() != ref.String() {
				t.Errorf("tree differs from reference:\n got %s\nwant %s", got, ref)
			}
			if g, r := got.Now(), ref.Now(); g != r {
				t.Errorf("clock after MkdirAll = %d, reference %d", g, r)
			}
		})
	}
}

func mustMkdirAll(t *testing.T, f *FileSystem, path string) {
	t.Helper()
	if err := f.MkdirAll(path, 0o7); err != nil {
		t.Fatalf("MkdirAll(%q): %v", path, err)
	}
}

func mustCreate(t *testing.T, f *FileSystem, path string) {
	t.Helper()
	if _, err := f.Create(path, 0o6, false); err != nil {
		t.Fatalf("Create(%q): %v", path, err)
	}
}

// TestWalkAllocs gates the per-case path walk: a lookup of up to
// maxInlineDepth components, and MkdirAll over a path that already
// exists, allocate nothing.
func TestWalkAllocs(t *testing.T) {
	f := newFS()
	deep := strings.Repeat("/d", maxInlineDepth-1) + "/leaf.txt"
	mustMkdirAll(t, f, deep[:strings.LastIndexByte(deep, '/')])
	mustCreate(t, f, deep)
	// Drive prefix, backslashes and ".." still walk maxInlineDepth
	// components in place.
	stat := `C:\d\d\..\d` + deep[4:]
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"Stat", func() {
			if _, err := f.Stat(stat); err != nil {
				t.Fatal(err)
			}
		}},
		{"MkdirAll existing", func() {
			if err := f.MkdirAll("/d/d/d/d", 0o7); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		if got := testing.AllocsPerRun(100, tc.fn); got != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, got)
		}
	}
}
