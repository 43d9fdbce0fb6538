package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vada/internal/core"
)

var update = flag.Bool("update", false, "rewrite the goldens under testdata")

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
	for _, name := range []string{"costcurve", "noisesweep"} {
		if err := runExhibit(&got, name, 1, 1, 30); err == nil {
			t.Errorf("%s on a scenario with no result to score should fail", name)
		}
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

// TestRunPipelineSmall pins -run -trace -csv -n 60 -seed 1 -budget 30 byte
// for byte: the stage table, the orchestration trace and the result carry no
// timings. Re-bless with go test ./cmd/vada -run TestRunPipelineSmall -update.
func TestRunPipelineSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline run in -short mode")
	}
	var got bytes.Buffer
	if err := runPipeline(&got, 60, 1, 30, true, true); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "run.golden")
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
		t.Fatalf("-run output differs from %s (re-bless with -update if intended):\n%s", golden, got.String())
	}
}

// TestRunPipelineNoResult runs -run on a scenario too small to yield a
// result: every stage completes unscored and prints "-" for its scores, and
// -csv fails with core.ErrNoResult instead of writing a result.
func TestRunPipelineNoResult(t *testing.T) {
	var out bytes.Buffer
	if err := runPipeline(&out, 1, 1, 30, false, false); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("want a header and four stage rows, got:\n%s", out.String())
	}
	for _, line := range lines[1:] {
		f := strings.Fields(line)
		if len(f) != 10 || strings.Join(f[2:], "") != "--------" {
			t.Errorf("unscored stage row %q: want its name, its steps and eight \"-\"", line)
		}
	}
	err := runPipeline(&out, 1, 1, 30, false, true)
	if !errors.Is(err, core.ErrNoResult) {
		t.Fatalf("-csv without a result: err = %v, want core.ErrNoResult", err)
	}
}

func TestPrintScenarioTables(t *testing.T) {
	printScenarioTables(30, 1) // must not panic
}
