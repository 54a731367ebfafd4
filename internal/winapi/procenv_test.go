package winapi

import (
	"strings"
	"testing"
)

// expandEnvRef is expandEnv as it was when it built a string a byte at a
// time, kept as the reference the one-buffer form must match.
func expandEnvRef(src string, getenv func(string) (string, bool)) string {
	var b strings.Builder
	for i := 0; i < len(src); i++ {
		if src[i] != '%' {
			b.WriteByte(src[i])
			continue
		}
		j := strings.IndexByte(src[i+1:], '%')
		if j < 0 {
			b.WriteString(src[i:])
			break
		}
		name := src[i+1 : i+1+j]
		if v, ok := getenv(name); ok {
			b.WriteString(v)
		} else {
			b.WriteString("%" + name + "%")
		}
		i += j + 1
	}
	return b.String()
}

// TestExpandEnvMatchesReference: expandEnv returns the reference's
// expansion followed by one NUL, for known and unknown variables, empty
// and stray '%'s, empty input and a 16 KiB string.
func TestExpandEnvMatchesReference(t *testing.T) {
	env := map[string]string{"PATH": "/bin", "HOME": "/home/ballista", "EMPTY": "", "": "unnamed", "BIG": strings.Repeat("v", 5000)}
	getenv := func(name string) (string, bool) { v, ok := env[name]; return v, ok }
	noenv := func(string) (string, bool) { return "", false }
	big := strings.Repeat("x%PATH%y%NOPE%", 16<<10/14) + "%"
	for _, src := range []string{
		"", "%", "%%", "%%%", "%%%%", "plain", "%PATH%", "a%PATH%b", "%PATH%%HOME%",
		"%NOPE%", "x%NOPE%y%PATH%", "%EMPTY%", "50% off", "50% off %PATH%", "%PATH",
		"tail%", "%%PATH%%", "%BIG%%BIG%", "%a%b%c%", "%\xff%\xc3%", strings.Repeat("%", 101),
		strings.Repeat("a", 16<<10), big,
	} {
		for name, fn := range map[string]func(string) (string, bool){"env": getenv, "noenv": noenv} {
			want := expandEnvRef(src, fn) + "\x00"
			if got := expandEnv(src, fn); string(got) != want {
				t.Errorf("%s: expandEnv(%.40q) = %.60q, want %.60q", name, src, got, want)
			}
		}
	}
}
