package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// writeFixture writes a small graph in the text format.
func writeFixture(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	data := `# fixture
v jack research sports web
v bob research sports yoga
v john research sports web
v mike research sports yoga
e jack bob
e jack john
e jack mike
e bob john
e bob mike
e john mike
`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCmdGenIndexStatsQuery(t *testing.T) {
	dir := t.TempDir()
	txt := filepath.Join(dir, "dblp.txt")
	snap := filepath.Join(dir, "dblp.snap")

	if err := cmdGen([]string{"-preset", "dblp", "-scale", "0.02", "-out", txt}); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(txt); err != nil || fi.Size() == 0 {
		t.Fatalf("gen output: %v", err)
	}
	if err := cmdIndex([]string{"-in", txt, "-out", snap}); err != nil {
		t.Fatal(err)
	}
	// The file name does not pick the format: index always writes .acqm.
	if data, err := os.ReadFile(snap); err != nil || !bytes.HasPrefix(data, []byte("ACQM")) {
		t.Fatalf("index output is not an ACQM container (err %v)", err)
	}
	if err := cmdIndex([]string{"-in", txt, "-out", snap, "-method", "basic"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdIndex([]string{"-in", txt, "-out", snap, "-method", "bogus"}); err == nil {
		t.Fatal("bogus method accepted")
	}
	if err := cmdStats([]string{"-in", snap}); err != nil {
		t.Fatal(err)
	}
	if err := cmdStats([]string{"-in", txt}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdQueryPaths(t *testing.T) {
	txt := writeFixture(t)
	snap := filepath.Join(t.TempDir(), "g.snap")
	if err := cmdIndex([]string{"-in", txt, "-out", snap}); err != nil {
		t.Fatal(err)
	}
	cases := [][]string{
		{"-in", snap, "-q", "jack", "-k", "3"},
		{"-in", snap, "-q", "jack", "-k", "3", "-s", "research,sports"},
		{"-in", snap, "-q", "jack", "-k", "3", "-algo", "inc-t"},
		{"-in", snap, "-q", "jack", "-k", "3", "-algo", "basic-g"},
		{"-in", snap, "-q", "jack", "-k", "3", "-s", "research", "-mode", "fixed"},
		{"-in", snap, "-q", "jack", "-k", "3", "-s", "research,web", "-theta", "0.5"},
		{"-in", txt, "-q", "jack", "-k", "3"}, // text input builds the index on the fly
	}
	for _, args := range cases {
		if err := cmdQuery(args); err != nil {
			t.Errorf("query %v: %v", args, err)
		}
	}
	// Failure paths.
	if err := cmdQuery([]string{"-in", snap, "-k", "3"}); err == nil {
		t.Error("missing -q accepted")
	}
	if err := cmdQuery([]string{"-in", snap, "-q", "ghost", "-k", "3"}); err == nil {
		t.Error("unknown vertex accepted")
	}
	if err := cmdQuery([]string{"-in", snap, "-q", "jack", "-k", "9"}); err == nil {
		t.Error("k above kmax accepted")
	}
	if err := cmdQuery([]string{"-in", filepath.Join(t.TempDir(), "nope.txt"), "-q", "jack"}); err == nil {
		t.Error("missing file accepted")
	}
	if err := cmdQuery([]string{"-q", "jack"}); err == nil {
		t.Error("missing -in accepted")
	}
}
