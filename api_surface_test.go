package acq_test

// apidiff-style API-surface check: the exported surface of the root acq
// package and the engine package is rendered deterministically and compared
// against the committed goldens under api/, and so is the served closure:
// the in-module packages acqd links. A mismatch means the public API or the
// served code changed — if the change is intentional (like the v1 Search
// redesign, or a package joining acqd's closure), regenerate the goldens with
//
//	go test -run TestAPISurface -update-api .
//
// and review the golden diff in code review; CI fails on anything
// undocumented.

import (
	"flag"
	"go/build"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/acq-search/acq/internal/apisurface"
)

var updateAPI = flag.Bool("update-api", false, "rewrite the api/ golden surface files")

func TestAPISurface(t *testing.T) {
	cases := []struct {
		dir    string
		golden string
		render func(dir string) (string, error)
	}{
		{".", "api/acq.txt", apisurface.Render},
		{"engine", "api/engine.txt", apisurface.Render},
		{"cmd/acqd", "api/acqd-deps.txt", inModuleDeps},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			got, err := c.render(c.dir)
			if err != nil {
				t.Fatal(err)
			}
			if *updateAPI {
				if err := os.MkdirAll(filepath.Dir(c.golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(c.golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s (%d bytes)", c.golden, len(got))
				return
			}
			want, err := os.ReadFile(c.golden)
			if err != nil {
				t.Fatalf("missing golden %s (run with -update-api to create): %v", c.golden, err)
			}
			if got != string(want) {
				t.Fatalf("exported API surface of %q drifted from %s.\n"+
					"If this change is intentional, regenerate with:\n"+
					"\tgo test -run TestAPISurface -update-api .\n"+
					"and document the breaking change in CHANGES.md.\n\n--- got ---\n%s",
					c.dir, c.golden, diffHint(string(want), got))
			}
		})
	}
}

// modulePath is the import path of this module's root package.
const modulePath = "github.com/acq-search/acq"

// inModuleDeps lists, one import path per line and sorted, the packages of
// this module that the package in dir imports directly or transitively (dir
// itself excluded). Test files and other platforms' files do not count.
func inModuleDeps(dir string) (string, error) {
	seen := map[string]bool{}
	var visit func(dir string) error
	visit = func(dir string) error {
		pkg, err := build.ImportDir(dir, 0)
		if err != nil {
			return err
		}
		for _, imp := range pkg.Imports {
			rel, ok := strings.CutPrefix(imp, modulePath)
			if !ok || (rel != "" && rel[0] != '/') || seen[imp] {
				continue
			}
			seen[imp] = true
			if err := visit(filepath.Join(".", filepath.FromSlash(rel))); err != nil {
				return err
			}
		}
		return nil
	}
	if err := visit(dir); err != nil {
		return "", err
	}
	deps := make([]string, 0, len(seen))
	for p := range seen {
		deps = append(deps, p)
	}
	sort.Strings(deps)
	return strings.Join(deps, "\n") + "\n", nil
}

// diffHint returns the first few differing lines — enough to see what moved
// without dumping two full surfaces.
func diffHint(want, got string) string {
	wantLines := splitLines(want)
	gotLines := splitLines(got)
	inWant := map[string]bool{}
	for _, l := range wantLines {
		inWant[l] = true
	}
	inGot := map[string]bool{}
	for _, l := range gotLines {
		inGot[l] = true
	}
	out := ""
	n := 0
	for _, l := range gotLines {
		if !inWant[l] && n < 12 {
			out += "+ " + l + "\n"
			n++
		}
	}
	for _, l := range wantLines {
		if !inGot[l] && n < 24 {
			out += "- " + l + "\n"
			n++
		}
	}
	if out == "" {
		out = "(ordering/whitespace difference)\n"
	}
	return out
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
