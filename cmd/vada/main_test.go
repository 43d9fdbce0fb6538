package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/exhibits.golden")

// TestExhibitsGolden pins every exhibit byte for byte at a small scenario:
// the output is a function of (n, seed, budget) only, so a diff here is a
// change in what the system computes (or in how an exhibit is rendered).
// Re-bless with go test ./cmd/vada -run TestExhibitsGolden -update.
func TestExhibitsGolden(t *testing.T) {
	var got bytes.Buffer
	if err := runExhibit(&got, "all", 40, 1, 30); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "exhibits.golden")
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("exhibits differ from %s (re-bless with -update if intended):\n%s", golden, got.String())
	}
	if err := runExhibit(&got, "scenario", 40, 1, 30); err == nil {
		t.Fatal("unknown exhibit name should fail")
	}
}

func TestRunQueryOverCSV(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "edge.csv")
	if err := os.WriteFile(file, []byte("x,y\na,b\nb,c\nc,d\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := runQuery(
		`path(X,Y) :- edge(X,Y). path(X,Z) :- path(X,Y), edge(Y,Z).`,
		`?- path("a", Y).`,
		"edge="+file,
	)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunQueryErrors(t *testing.T) {
	if err := runQuery(``, `?- p(X).`, "malformed-entry"); err == nil {
		t.Fatal("bad -edb spec should fail")
	}
	if err := runQuery(``, `?- p(X).`, "p=/does/not/exist.csv"); err == nil {
		t.Fatal("missing CSV should fail")
	}
	if err := runQuery(`p( :-`, `?- p(X).`, ""); err == nil {
		t.Fatal("bad program should fail")
	}
}

func TestRunPipelineSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline run in -short mode")
	}
	if err := runPipeline(60, 1, 30, false, false); err != nil {
		t.Fatal(err)
	}
}

func TestPrintScenarioTables(t *testing.T) {
	printScenarioTables(30, 1) // must not panic
}
