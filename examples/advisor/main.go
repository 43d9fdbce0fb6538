// Command advisor demonstrates the mixed-initiative advisor end to end: it
// self-hosts the VADA server over a generated property scenario and plays a
// thin agent that does nothing but follow the advisor's ranked suggestions —
// fetch GET .../suggestions, accept the best actionable one by replaying its
// ready-made action against POST .../stages/{name}, and repeat until the
// advisor has nothing actionable left. Suggestions it cannot act on (schema
// gaps needing a new source) are reported as open advice.
//
// The full transcript — every ranking, every acceptance, the final quality
// report — is diffed against testdata/expected_transcript.txt and a non-zero
// exit reports any drift, which makes the demo double as the CI advisor
// smoke: the ranking changing is a contract break, not a cosmetic. Run with
// -update to re-bless the golden file after an intentional change.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"

	"vada/internal/server"
)

var update = flag.Bool("update", false, "rewrite testdata/expected_transcript.txt with this run's transcript")

// maxRounds bounds the agent loop: the advisor retires every accepted
// suggestion, so a run that has not dried up by then is a ranking bug.
const maxRounds = 20

type action struct {
	Stage   string          `json:"stage"`
	Payload json.RawMessage `json:"payload,omitempty"`
}

type suggestion struct {
	Kind      string  `json:"kind"`
	Target    string  `json:"target"`
	Score     float64 `json:"score"`
	Rationale string  `json:"rationale"`
	Action    *action `json:"action,omitempty"`
}

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

	id, err := createSession(base)
	if err != nil {
		return err
	}

	// The transcript is both the demo output and the golden artifact: it
	// carries only deterministic content (no session IDs, no timings).
	var tr strings.Builder
	out := io.MultiWriter(os.Stdout, &tr)

	var open []suggestion
	tried := map[string]bool{}
	for round := 1; ; round++ {
		if round > maxRounds {
			return fmt.Errorf("advisor did not run dry within %d rounds", maxRounds)
		}
		sugs, err := getSuggestions(base, id)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "round %d: %d suggestion(s)\n", round, len(sugs))
		for _, sg := range sugs {
			fmt.Fprintf(out, "  [%s] %s (score %.4f) — %s\n", sg.Kind, sg.Target, sg.Score, sg.Rationale)
		}
		// Accept the best actionable suggestion not yet tried. Match
		// suggestions point at work outside the session (finding a new
		// source), and an already-accepted action that did not retire its
		// suggestion needs a human annotator, not a replay — both stay as
		// open advice.
		var next *suggestion
		for i := range sugs {
			if sugs[i].Action != nil && sugs[i].Kind != "match" && !tried[sugs[i].Kind+"/"+sugs[i].Target] {
				next = &sugs[i]
				break
			}
		}
		if next == nil {
			open = sugs
			break
		}
		if err := apply(base, id, next.Action); err != nil {
			return err
		}
		tried[next.Kind+"/"+next.Target] = true
		fmt.Fprintf(out, "  -> accepted: %s %s\n", next.Action.Stage, compact(next.Action.Payload))
	}

	fmt.Fprintf(out, "advisor ran dry; %d open advice item(s)\n", len(open))
	for _, sg := range open {
		fmt.Fprintf(out, "  open: [%s] %s — %s\n", sg.Kind, sg.Target, sg.Rationale)
	}

	// The closed loop's proof: the quality report the advisor steered the
	// session toward, accuracy evidence included.
	report, err := export(base, id, "qr_result")
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "final quality report:\n%s", report)

	golden := filepath.Join(fixtureDir(), "expected_transcript.txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(golden, []byte(tr.String()), 0o644); err != nil {
			return err
		}
		fmt.Printf("updated %s\n", golden)
		return nil
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		return fmt.Errorf("reading golden (run with -update to create it): %w", err)
	}
	if !bytes.Equal(want, []byte(tr.String())) {
		return fmt.Errorf("transcript drifted from %s (%d bytes, want %d) — rerun with -update if intentional",
			golden, tr.Len(), len(want))
	}
	fmt.Println("transcript matches golden byte-for-byte")
	return nil
}

// fixtureDir locates testdata/ whether the demo runs from the repo root
// (CI: go run ./examples/advisor) or from its own directory.
func fixtureDir() string {
	for _, dir := range []string{"testdata", filepath.Join("examples", "advisor", "testdata")} {
		if st, err := os.Stat(dir); err == nil && st.IsDir() {
			return dir
		}
	}
	return "testdata"
}

func createSession(base string) (string, error) {
	resp, err := http.Post(base+"/sessions", "application/json",
		strings.NewReader(`{"name":"advisor-demo","n":40,"seed":7}`))
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

func getSuggestions(base, id string) ([]suggestion, error) {
	resp, err := http.Get(base + "/sessions/" + id + "/suggestions")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("suggestions: %s", resp.Status)
	}
	var out struct {
		Suggestions []suggestion `json:"suggestions"`
	}
	if err := decodeJSON(resp.Body, &out); err != nil {
		return nil, err
	}
	return out.Suggestions, nil
}

// apply replays a suggestion's action verbatim against the generic stage
// route, synchronously — the whole point of actionable suggestions.
func apply(base, id string, a *action) error {
	resp, err := http.Post(base+"/sessions/"+id+"/stages/"+a.Stage,
		"application/json", bytes.NewReader(a.Payload))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("accepting %q: %s: %s", a.Stage, resp.Status, msg)
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

func export(base, id, relation string) (string, error) {
	resp, err := http.Get(base + "/sessions/" + id + "/export/" + relation + "?format=csv")
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

// compact renders an action payload on one transcript line.
func compact(raw json.RawMessage) string {
	if len(raw) == 0 {
		return "{}"
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return string(raw)
	}
	return buf.String()
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
