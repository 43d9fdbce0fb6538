package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/stdout.golden with this run's output")

// TestStdoutGolden pins what the example prints, byte for byte, against
// testdata/stdout.golden; run with -update to re-bless it after an
// intentional change.
func TestStdoutGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "stdout.golden")
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading the golden file (run with -update to create it): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("output drifted from %s (rerun with -update if intentional):\n%s", golden, out.String())
	}
}
