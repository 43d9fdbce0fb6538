package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"vada/internal/relation"
)

const propsCSV = "Street,Post Code,Bedrooms,Price\n12 main st,AB1 2CD,3,120000\n4 side rd,ZZ9 9ZZ,2,95000\n"
const deprivationCSV = "postcode,crimerank\nAB1 2CD,15\nZZ9 9ZZ,120\n"

// uploadFiles POSTs a multipart body of (filename, content) pairs to the
// session's upload route and returns the response.
func uploadFiles(t *testing.T, ts *httptest.Server, id, query string, files [][2]string) (*http.Response, string) {
	t.Helper()
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	for _, f := range files {
		fw, err := mw.CreateFormFile("file", f[0])
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprint(fw, f[1])
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/api/v1/sessions/"+id+"/upload"+query, mw.FormDataContentType(), &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	out.ReadFrom(resp.Body)
	return resp, out.String()
}

// runConnectorSession drives the acceptance flow once: blank session,
// upload two real CSV files (no datagen anywhere), run an
// ingest-to-export plan, and return the exported result bytes.
func runConnectorSession(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	id := createSession(t, ts, `{"blank":true,"name":"connectors"}`)
	resp, body := uploadFiles(t, ts, id, "", [][2]string{
		{"props.csv", propsCSV},
		{"deprivation.csv", deprivationCSV},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: %s: %s", resp.Status, body)
	}
	var up struct {
		Files    int `json:"files"`
		Ingested []struct {
			Relation string `json:"relation"`
		} `json:"ingested"`
	}
	if err := json.Unmarshal([]byte(body), &up); err != nil {
		t.Fatal(err)
	}
	if up.Files != 2 || up.Ingested[0].Relation != "props" || up.Ingested[1].Relation != "deprivation" {
		t.Fatalf("upload response = %s", body)
	}
	// The full plan over the uploaded files: wrangle, assess, export.
	plan := `{"stages":[
		{"stage":"bootstrap"},
		{"stage":"quality-report"},
		{"stage":"export","payload":{"format":"csv"}}
	]}`
	presp, err := http.Post(ts.URL+"/api/v1/sessions/"+id+"/plans", "application/json", strings.NewReader(plan))
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusAccepted {
		t.Fatalf("plan: %s", presp.Status)
	}
	final := pollRun(t, ts.URL+presp.Header.Get("Location"))
	if final["state"] != "succeeded" {
		t.Fatalf("plan run = %v", final)
	}
	eresp, exported := get(t, ts.URL+"/api/v1/sessions/"+id+"/export/result?format=csv")
	if eresp.StatusCode != http.StatusOK {
		t.Fatalf("export: %s: %s", eresp.Status, exported)
	}
	if ct := eresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
		t.Fatalf("export content type = %q", ct)
	}
	if !strings.Contains(exported, "\n") {
		t.Fatalf("export is empty: %q", exported)
	}
	return exported
}

// TestConnectorEndToEnd is the PR's acceptance flow: a plan over uploaded
// CSV files — no synthetic datagen — runs end-to-end, and the exported CSV
// is byte-stable across two identical runs.
func TestConnectorEndToEnd(t *testing.T) {
	_, ts := testServer(t)
	first := runConnectorSession(t, ts)
	second := runConnectorSession(t, ts)
	if first != second {
		t.Fatalf("two identical runs exported different bytes:\n%q\nvs\n%q", first, second)
	}
}

func TestUploadInferredMappingAndRoles(t *testing.T) {
	s, ts := testServer(t)
	id := createSession(t, ts, `{"blank":true}`)
	resp, body := uploadFiles(t, ts, id, "?role=context", [][2]string{
		{"Address Ref!.csv", "street,city,postcode\nmain st,York,AB1 2CD\n"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: %s: %s", resp.Status, body)
	}
	sess, err := s.store.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	// Filename sanitised into a relation name, role honoured.
	rel, err := sess.Relation("Address_Ref_")
	if err != nil {
		t.Fatalf("context relation: %v", err)
	}
	if rel.Cardinality() != 1 {
		t.Fatalf("rows = %d", rel.Cardinality())
	}
	// The uploaded context relation now feeds header inference: a source
	// with a punctuated "Post Code" header maps onto its postcode attr.
	resp, body = uploadFiles(t, ts, id, "?relation=listings", [][2]string{
		{"x.csv", propsCSV},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload 2: %s: %s", resp.Status, body)
	}
	rel, err = sess.Relation("listings")
	if err != nil {
		t.Fatal(err)
	}
	if idx := rel.Schema.AttrIndex("postcode"); idx < 0 {
		t.Fatalf("postcode not inferred from 'Post Code': %v", rel.Schema.AttrNames())
	}
}

func TestUploadErrors(t *testing.T) {
	_, ts := testServer(t)
	id := createSession(t, ts, `{"blank":true}`)

	// Malformed CSV: ragged row is a 400 with the sentinel's message.
	resp, body := uploadFiles(t, ts, id, "", [][2]string{{"bad.csv", "a,b\n1\n"}})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, "bad format") {
		t.Fatalf("malformed CSV: %s: %s", resp.Status, body)
	}
	// Schema mismatch via an explicit mapping naming an absent column.
	var mb bytes.Buffer
	mw := multipart.NewWriter(&mb)
	mw.WriteField("mapping", `{"missing":"street"}`)
	fw, _ := mw.CreateFormFile("file", "f.csv")
	fmt.Fprint(fw, "a\n1\n")
	mw.Close()
	mresp, err := http.Post(ts.URL+"/api/v1/sessions/"+id+"/upload", mw.FormDataContentType(), &mb)
	if err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("schema mismatch: %s", mresp.Status)
	}
	// No files at all.
	resp, _ = uploadFiles(t, ts, id, "", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty upload: %s", resp.Status)
	}
	// A body over the payload cap is a 413.
	resp, _ = uploadFiles(t, ts, id, "", [][2]string{
		{"big.csv", "a\n" + strings.Repeat("x\n", maxPayloadBytes/2)},
	})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload: %s", resp.Status)
	}
	// Unknown session.
	resp, _ = uploadFiles(t, ts, "nope", "", [][2]string{{"f.csv", "a\n1\n"}})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session: %s", resp.Status)
	}
}

func TestExportRelationErrors(t *testing.T) {
	_, ts := testServer(t)
	id := createSession(t, ts, `{"blank":true}`)
	resp, _ := get(t, ts.URL+"/api/v1/sessions/"+id+"/export/nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown relation: %s", resp.Status)
	}
	// No wrangling yet: the result relation does not exist.
	resp, _ = get(t, ts.URL+"/api/v1/sessions/"+id+"/export/result")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("absent result: %s", resp.Status)
	}
	resp, _ = get(t, ts.URL+"/api/v1/sessions/"+id+"/export/result?format=xml")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad format: %s", resp.Status)
	}
}

func TestExportRelationStreamsJSONL(t *testing.T) {
	_, ts := testServer(t)
	id := createSession(t, ts, `{"blank":true}`)
	resp, body := uploadFiles(t, ts, id, "", [][2]string{{"props.csv", propsCSV}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: %s: %s", resp.Status, body)
	}
	resp, out := get(t, ts.URL+"/api/v1/sessions/"+id+"/export/props?format=jsonl")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export: %s: %s", resp.Status, out)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("exported %d rows: %q", len(lines), out)
	}
	var row map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &row); err != nil {
		t.Fatalf("line 1 is not JSON: %v", err)
	}
	if _, ok := row["postcode"]; !ok {
		t.Fatalf("inferred attribute missing from row: %v", row)
	}
}

func TestHealthzConnectRollup(t *testing.T) {
	_, ts := testServer(t)
	id := createSession(t, ts, `{"blank":true}`)
	if resp, body := uploadFiles(t, ts, id, "", [][2]string{{"props.csv", propsCSV}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: %s: %s", resp.Status, body)
	}
	_, body := get(t, ts.URL+"/api/v1/healthz")
	var out struct {
		Metrics map[string]int64 `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if out.Metrics["connect_rows_total"] != 2 {
		t.Fatalf("healthz connect_rows_total = %d, want 2 (%s)", out.Metrics["connect_rows_total"], body)
	}
	if out.Metrics["connect_bytes_total"] <= 0 {
		t.Fatalf("healthz connect_bytes_total = %d", out.Metrics["connect_bytes_total"])
	}
}

// TestBlankSessionTargetSurvivesSnapshot pins the new Meta fields: a blank
// session's (possibly custom) target schema round-trips through the
// export/import envelope, so header inference keeps working post-restore.
func TestBlankSessionTargetSurvivesSnapshot(t *testing.T) {
	_, ts := testServer(t)
	id := createSession(t, ts, `{"blank":true,"target":["name","level:int"]}`)
	resp, raw := get(t, ts.URL+"/api/v1/sessions/"+id+"/export")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export session: %s", resp.Status)
	}
	// Re-import under a fresh server and check the target schema survived.
	s2, ts2 := testServer(t)
	iresp, err := http.Post(ts2.URL+"/api/v1/sessions/import", "application/octet-stream", strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	iresp.Body.Close()
	if iresp.StatusCode != http.StatusCreated {
		t.Fatalf("import: %s", iresp.Status)
	}
	sess, err := s2.store.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	target, ok := sess.Wrangler().TargetSchema()
	if !ok {
		t.Fatal("restored blank session lost its target schema")
	}
	if target.Arity() != 2 || target.Attrs[1].Name != "level" {
		t.Fatalf("restored target = %v", target)
	}
}

func TestCreateBlankSessionValidation(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Post(ts.URL+"/api/v1/sessions", "application/json",
		strings.NewReader(`{"blank":true,"target":["name:dragon"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad target kind: %s", resp.Status)
	}
}

// TestNaNCellSurvivesRestart: a CSV cell spelling NaN is ingested as text,
// which every wire form holds, so the stages it took part in are journaled:
// after a kill -9 and a restart the acknowledged events and the result are
// back. (A NaN float could be neither journaled nor snapshotted: the session
// came back with no events and an empty result.)
func TestNaNCellSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := journalServer(t, dir)
	id := createSession(t, ts1, `{"blank":true}`)
	resp, body := uploadFiles(t, ts1, id, "", [][2]string{
		{"props.csv", "Street,Post Code,Bedrooms,Price\n12 main st,AB1 2CD,3,NaN\n4 side rd,ZZ9 9ZZ,2,95000\n"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: %s: %s", resp.Status, body)
	}
	base1 := ts1.URL + "/api/v1/sessions/" + id
	postBody(t, base1+"/stages/bootstrap", "")
	wantEvents := getJSON(t, base1)["events"].([]any)
	wantResult := resultDigest(t, base1)
	if len(wantEvents) != 2 || !strings.Contains(wantResult, "NaN") {
		t.Fatalf("before the restart: %d events, result %q", len(wantEvents), wantResult)
	}
	ts1.Close() // kill -9: no graceful close

	_, ts2 := journalServer(t, dir)
	base2 := ts2.URL + "/api/v1/sessions/" + id
	if got := getJSON(t, base2)["events"]; !reflect.DeepEqual(got, any(wantEvents)) {
		t.Fatalf("events after the restart:\n got %v\nwant %v", got, wantEvents)
	}
	if got := resultDigest(t, base2); got != wantResult {
		t.Fatalf("result after the restart:\n got %q\nwant %q", got, wantResult)
	}
}

// TestNonUTF8FetchSurvivesRestart: a fetched body that is not UTF-8 (here
// Latin-1) is ingested as the journal records it, each invalid byte as
// U+FFFD, so after a kill -9 the replay re-derives the live session: same
// events, result and knowledge-base content.
func TestNonUTF8FetchSurvivesRestart(t *testing.T) {
	src := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(rw, "Street,Post Code,Bedrooms,Price\n12 K\xf6nigstra\xdfe,AB1 2CD,3,120000\n4 caf\xe9 rd,ZZ9 9ZZ,2,95000\n")
	}))
	defer src.Close()
	dir := t.TempDir()
	_, ts1 := journalServer(t, dir)
	id := createSession(t, ts1, `{"blank":true}`)
	base1 := ts1.URL + "/api/v1/sessions/" + id
	postBody(t, base1+"/stages/fetch", `{"url":"`+src.URL+`/props.csv","relation":"props"}`)
	postBody(t, base1+"/stages/bootstrap", "")
	wantEvents := getJSON(t, base1)["events"].([]any)
	wantResult := resultDigest(t, base1)
	wantKB := exportedKB(t, base1)
	if len(wantEvents) != 2 || !strings.Contains(wantKB, "K\uFFFDnigstra\uFFFDe") {
		t.Fatalf("before the restart: %d events, the street not ingested as its JSON text", len(wantEvents))
	}
	ts1.Close() // kill -9: no graceful close

	_, ts2 := journalServer(t, dir)
	base2 := ts2.URL + "/api/v1/sessions/" + id
	if got := getJSON(t, base2)["events"]; !reflect.DeepEqual(got, any(wantEvents)) {
		t.Fatalf("events after the restart:\n got %v\nwant %v", got, wantEvents)
	}
	if got := resultDigest(t, base2); got != wantResult {
		t.Fatalf("result after the restart:\n got %q\nwant %q", got, wantResult)
	}
	if got := exportedKB(t, base2); got != wantKB {
		t.Fatalf("knowledge-base content drifted across restart (%d and %d bytes)", len(got), len(wantKB))
	}
}

// TestExportUnencodableSession: a session whose knowledge base holds a value
// no wire form has answers its export with a 500, not an empty 200.
func TestExportUnencodableSession(t *testing.T) {
	s, ts := testServer(t)
	id := createSession(t, ts, `{"blank":true}`)
	sess, err := s.store.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	rel := relation.New(relation.NewSchema("odd", "x:float"))
	rel.MustAppend(math.NaN())
	sess.Wrangler().KB.PutRelation("odd", rel)
	resp, body := get(t, ts.URL+"/api/v1/sessions/"+id+"/export")
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(body, "unsupported value: NaN") {
		t.Fatalf("export: %s %q", resp.Status, body)
	}
	if cd := resp.Header.Get("Content-Disposition"); cd != "" {
		t.Fatalf("a failed export names an attachment: %q", cd)
	}
}

// TestUploadEmptyMappingKeepsHeaders: an upload's mapping={} form field turns
// header inference off, as an explicit empty mapping does on every ingest, so
// the raw headers are the attribute names; the journal records the same {},
// so a kill -9 and a restart bring back the same relation and events.
func TestUploadEmptyMappingKeepsHeaders(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := journalServer(t, dir)
	id := createSession(t, ts1, `{"blank":true}`)
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	mw.WriteField("mapping", `{}`)
	fw, _ := mw.CreateFormFile("file", "x.csv")
	fmt.Fprint(fw, propsCSV)
	mw.Close()
	resp, err := http.Post(ts1.URL+"/api/v1/sessions/"+id+"/upload?relation=listings", mw.FormDataContentType(), &body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: %s", resp.Status)
	}
	attrs := func(s *Server) []string {
		t.Helper()
		sess, err := s.store.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := sess.Relation("listings")
		if err != nil {
			t.Fatal(err)
		}
		return rel.Schema.AttrNames()
	}
	want := []string{"Street", "Post Code", "Bedrooms", "Price"}
	if got := attrs(s1); !reflect.DeepEqual(got, want) {
		t.Fatalf("attributes = %q, want the raw headers %q", got, want)
	}
	wantEvents := getJSON(t, ts1.URL+"/api/v1/sessions/"+id)["events"]
	ts1.Close() // kill -9: no graceful close

	s2, ts2 := journalServer(t, dir)
	if got := attrs(s2); !reflect.DeepEqual(got, want) {
		t.Fatalf("attributes after the restart = %q, want %q", got, want)
	}
	if got := getJSON(t, ts2.URL+"/api/v1/sessions/"+id)["events"]; !reflect.DeepEqual(got, wantEvents) {
		t.Fatalf("events after the restart:\n got %v\nwant %v", got, wantEvents)
	}
}
