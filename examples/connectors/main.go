// Command connectors demonstrates the connector subsystem over the HTTP
// surface end to end, with zero synthetic datagen: it self-hosts the VADA
// server, creates a blank (scenario-free) session, uploads the bundled
// property and deprivation CSV fixtures through the multipart upload
// route — header inference maps "Post Code" onto the target's postcode
// attribute — runs an ingest-to-export plan, and streams the wrangled
// result back as CSV.
//
// The exported bytes are diffed against testdata/expected_result.csv and a
// non-zero exit reports any drift, which makes the demo double as the CI
// connector smoke: connectors changing their output byte-for-byte is a
// contract break, not a cosmetic. Run with -update to re-bless the golden
// file after an intentional change.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"vada/internal/server"
)

var update = flag.Bool("update", false, "rewrite testdata/expected_result.csv with this run's export")

func main() {
	flag.Parse()
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	srv, err := server.New(server.Config{Logger: slog.New(slog.DiscardHandler)})
	if err != nil {
		return err
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	base := ts.URL + "/api/v1"

	// A blank session: no generated scenario, only the default target
	// schema for header inference. Real data arrives by upload.
	id, err := createBlankSession(base)
	if err != nil {
		return err
	}
	fmt.Printf("blank session %s\n", id)

	dir := fixtureDir()
	if err := uploadFixtures(base, id, dir, "props.csv", "deprivation.csv"); err != nil {
		return err
	}

	// The full plan over the uploaded files: wrangle, assess, export.
	plan := `{"stages":[
		{"stage":"bootstrap"},
		{"stage":"quality-report"},
		{"stage":"export","payload":{"format":"csv"}}
	]}`
	resp, err := http.Post(base+"/sessions/"+id+"/plans", "application/json", strings.NewReader(plan))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("plan submit: %s", resp.Status)
	}
	if err := waitForRun(ts.URL + resp.Header.Get("Location")); err != nil {
		return err
	}

	exported, err := export(base, id, "result", "csv")
	if err != nil {
		return err
	}
	lines := strings.Count(exported, "\n")
	fmt.Printf("exported result: %d rows, %d bytes\n", lines-1, len(exported))

	quality, err := export(base, id, "qr_result", "csv")
	if err != nil {
		return err
	}
	fmt.Printf("quality report:\n%s", quality)

	golden := filepath.Join(dir, "expected_result.csv")
	if *update {
		if err := os.WriteFile(golden, []byte(exported), 0o644); err != nil {
			return err
		}
		fmt.Printf("updated %s\n", golden)
		return nil
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		return fmt.Errorf("reading golden (run with -update to create it): %w", err)
	}
	if !bytes.Equal(want, []byte(exported)) {
		return fmt.Errorf("exported CSV drifted from %s (%d bytes, want %d) — rerun with -update if intentional",
			golden, len(exported), len(want))
	}
	fmt.Println("export matches golden byte-for-byte")
	return nil
}

// fixtureDir locates testdata/ whether the demo runs from the repo root
// (CI: go run ./examples/connectors) or from its own directory.
func fixtureDir() string {
	for _, dir := range []string{"testdata", filepath.Join("examples", "connectors", "testdata")} {
		if st, err := os.Stat(dir); err == nil && st.IsDir() {
			return dir
		}
	}
	return "testdata"
}

func createBlankSession(base string) (string, error) {
	resp, err := http.Post(base+"/sessions", "application/json",
		strings.NewReader(`{"blank":true,"name":"connectors-demo"}`))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return "", fmt.Errorf("create session: %s", resp.Status)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := decodeJSON(resp.Body, &out); err != nil {
		return "", err
	}
	return out.ID, nil
}

// uploadFixtures POSTs the named fixture files as one multipart request,
// exactly like `curl -F file=@props.csv -F file=@deprivation.csv`.
func uploadFixtures(base, id, dir string, names ...string) error {
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	for _, name := range names {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		fw, err := mw.CreateFormFile("file", name)
		if err != nil {
			return err
		}
		fw.Write(raw)
	}
	if err := mw.Close(); err != nil {
		return err
	}
	resp, err := http.Post(base+"/sessions/"+id+"/upload", mw.FormDataContentType(), &body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("upload: %s: %s", resp.Status, msg)
	}
	var out struct {
		Files    int `json:"files"`
		Ingested []struct {
			File     string `json:"file"`
			Relation string `json:"relation"`
		} `json:"ingested"`
	}
	if err := decodeJSON(resp.Body, &out); err != nil {
		return err
	}
	for _, f := range out.Ingested {
		fmt.Printf("ingested %s -> relation %q\n", f.File, f.Relation)
	}
	return nil
}

func waitForRun(url string) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err != nil {
			return err
		}
		var run struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		err = decodeJSON(resp.Body, &run)
		resp.Body.Close()
		if err != nil {
			return err
		}
		switch run.State {
		case "succeeded":
			return nil
		case "failed", "cancelled":
			return fmt.Errorf("plan run %s: %s", run.State, run.Error)
		}
		time.Sleep(25 * time.Millisecond)
	}
	return fmt.Errorf("plan run did not finish within 30s")
}

func export(base, id, relation, format string) (string, error) {
	resp, err := http.Get(base + "/sessions/" + id + "/export/" + relation + "?format=" + format)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("export %s: %s: %s", relation, resp.Status, raw)
	}
	return string(raw), nil
}

func decodeJSON(r io.Reader, v any) error {
	raw, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("decoding %q: %w", raw, err)
	}
	return nil
}
