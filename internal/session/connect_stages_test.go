package session

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"vada/internal/connect"
	"vada/internal/core"
	"vada/internal/metrics"
	"vada/internal/relation"
)

// blankSession builds a scenario-free session with the standard target
// schema — the shape connector-fed sessions take.
func blankSession(t *testing.T, opts ...Option) *Session {
	t.Helper()
	w := core.NewWrangler()
	w.SetTargetSchema(relation.NewSchema("target",
		"type", "description", "street", "postcode", "bedrooms:int", "price:float", "crimerank:int"))
	return New("conn-test", w, opts...)
}

func ingestReq(t *testing.T, p connect.IngestPayload) StageRequest {
	t.Helper()
	raw, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return StageRequest{Stage: StageIngest, Payload: raw}
}

func TestIngestStageRegistersSource(t *testing.T) {
	sess := blankSession(t)
	ev, err := apply(context.Background(), sess, ingestReq(t, connect.IngestPayload{
		Relation: "props",
		Data:     "Street,Post Code,price\nmain st,AB1 2CD,120000\n",
	}))
	if err != nil {
		t.Fatal(err)
	}
	if ev.Stage != StageIngest {
		t.Fatalf("event stage = %q", ev.Stage)
	}
	rel := sess.Wrangler().KB.Relation(core.RelSourcePrefix + "props")
	if rel == nil {
		t.Fatal("ingest did not register src_props")
	}
	// Header-mapping inference ran against the target schema: raw column
	// names landed as target attributes.
	names := rel.Schema.AttrNames()
	if names[0] != "street" || names[1] != "postcode" || names[2] != "price" {
		t.Fatalf("attrs = %v", names)
	}
}

func TestIngestStageContextRole(t *testing.T) {
	sess := blankSession(t)
	if _, err := apply(context.Background(), sess, ingestReq(t, connect.IngestPayload{
		Relation: "addresses",
		Role:     connect.RoleContext,
		Data:     "street,city,postcode\nmain st,York,AB1 2CD\n",
	})); err != nil {
		t.Fatal(err)
	}
	if sess.Wrangler().KB.Relation(core.RelContextPrefix+"addresses") == nil {
		t.Fatal("context ingest did not register dc_addresses")
	}
}

func TestIngestStageErrorsKeepSentinels(t *testing.T) {
	sess := blankSession(t)
	ctx := context.Background()
	cases := []struct {
		name string
		p    connect.IngestPayload
		want error
	}{
		{"malformed csv", connect.IngestPayload{Relation: "r", Data: "a,b\n1\n"}, connect.ErrBadFormat},
		{"bad mapping", connect.IngestPayload{Relation: "r", Data: "a\n1\n",
			Mapping: map[string]string{"missing": "street"}}, connect.ErrSchemaMismatch},
	}
	for _, c := range cases {
		before := sess.Wrangler().KB.Version()
		_, err := apply(ctx, sess, ingestReq(t, c.p))
		if !errors.Is(err, c.want) {
			t.Fatalf("%s: err = %v, want %v", c.name, err, c.want)
		}
		if sess.Wrangler().KB.Version() != before {
			t.Fatalf("%s: failed ingest touched the knowledge base", c.name)
		}
	}
	// Payload validation failures are ErrBadPayload at decode time.
	if _, err := apply(ctx, sess, ingestReq(t, connect.IngestPayload{Relation: "bad name", Data: "x"})); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("invalid relation name err = %v", err)
	}
}

func TestConnectMetricsSeries(t *testing.T) {
	reg := metrics.NewRegistry()
	sess := blankSession(t, WithMetrics(reg))
	if _, err := apply(context.Background(), sess, ingestReq(t, connect.IngestPayload{
		Relation: "props",
		Data:     "street\nmain\nside\n",
	})); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := metrics.WritePrometheus(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// The Prometheus series names are API: dashboards pin them.
	for _, series := range []string{
		`connect_rows_total{dir="in",format="csv"}`,
		`connect_bytes_total{dir="in",format="csv"}`,
		`connect_seconds_sum{dir="in",format="csv"}`,
		`connect_seconds_count{dir="in",format="csv"}`,
		`connect_seconds_bucket{dir="in",format="csv",le="+Inf"}`,
	} {
		if !strings.Contains(out, series) {
			t.Fatalf("exposition is missing %s:\n%s", series, out)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters[metrics.Name("connect_rows_total", "dir", "in", "format", "csv")]; got != 2 {
		t.Fatalf("connect_rows_total = %d, want 2", got)
	}
}

func TestExportStageRecordsFact(t *testing.T) {
	sess := blankSession(t)
	ctx := context.Background()
	if _, err := apply(ctx, sess, ingestReq(t, connect.IngestPayload{
		Relation: "props",
		Data:     "street,price\nmain,100\nside,200\n",
	})); err != nil {
		t.Fatal(err)
	}
	raw, _ := json.Marshal(connect.ExportPayload{Relation: "props", Format: connect.FormatCSV})
	if _, err := apply(ctx, sess, StageRequest{Stage: StageExport, Payload: raw}); err != nil {
		t.Fatal(err)
	}
	exportsOf := func(rel string) []relation.Tuple {
		return slices.DeleteFunc(sess.Wrangler().KB.Facts(core.PredExport), func(tu relation.Tuple) bool {
			return len(tu) != 4 || tu[0].Str() != rel
		})
	}
	facts := exportsOf("props")
	if len(facts) != 1 {
		t.Fatalf("md_export facts = %v", facts)
	}
	if facts[0][2].IntVal() != 2 {
		t.Fatalf("exported rows = %v, want 2", facts[0][2])
	}
	// Re-exporting replaces the fact instead of accumulating.
	if _, err := apply(ctx, sess, StageRequest{Stage: StageExport, Payload: raw}); err != nil {
		t.Fatal(err)
	}
	facts = exportsOf("props")
	if len(facts) != 1 {
		t.Fatalf("re-export accumulated facts: %v", facts)
	}
}

func TestExportStageUnknownRelation(t *testing.T) {
	sess := blankSession(t)
	raw, _ := json.Marshal(connect.ExportPayload{Relation: "nope"})
	if _, err := apply(context.Background(), sess, StageRequest{Stage: StageExport, Payload: raw}); !errors.Is(err, connect.ErrUnknownRelation) {
		t.Fatalf("err = %v, want ErrUnknownRelation", err)
	}
	// Default target is the result, absent before any wrangling.
	if _, err := apply(context.Background(), sess, StageRequest{Stage: StageExport}); !errors.Is(err, core.ErrNoResult) {
		t.Fatalf("err = %v, want ErrNoResult", err)
	}
}

func TestQualityReportStage(t *testing.T) {
	sess := blankSession(t)
	ctx := context.Background()
	if _, err := apply(ctx, sess, ingestReq(t, connect.IngestPayload{
		Relation: "props",
		Data:     "street,price\nmain,100\nside,\n",
	})); err != nil {
		t.Fatal(err)
	}
	raw, _ := json.Marshal(connect.QualityPayload{Relation: "props"})
	if _, err := apply(ctx, sess, StageRequest{Stage: StageQualityReport, Payload: raw}); err != nil {
		t.Fatal(err)
	}
	rep := sess.Wrangler().KB.Relation("qr_props")
	if rep == nil {
		t.Fatal("quality report relation missing")
	}
	if rep.Tuples[0][0].Str() != "rows" || rep.Tuples[0][2].FloatVal() != 2 {
		t.Fatalf("first report row = %v", rep.Tuples[0])
	}
}

// TestFetchStageCancelledLeavesKBUntouched pins the tentpole's cancellation
// contract: a run cancelled mid-fetch must leave the knowledge base exactly
// as it was — no partial relation, no registration fact.
func TestFetchStageCancelledLeavesKBUntouched(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer ts.Close()
	defer close(release)

	sess := blankSession(t)
	before := sess.Wrangler().KB.Version()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	raw, _ := json.Marshal(connect.FetchPayload{URL: ts.URL, Relation: "props"})
	_, err := apply(ctx, sess, StageRequest{Stage: StageFetch, Payload: raw})
	if !errors.Is(err, connect.ErrFetchFailed) {
		t.Fatalf("err = %v, want ErrFetchFailed", err)
	}
	if got := sess.Wrangler().KB.Version(); got != before {
		t.Fatalf("KB version moved %d -> %d on a cancelled fetch", before, got)
	}
	if names := sess.Wrangler().KB.RelationNames(core.RelSourcePrefix); len(names) != 0 {
		t.Fatalf("cancelled fetch left source relations: %v", names)
	}
}

func TestFetchStageIngests(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{\"street\":\"main\",\"price\":100}\n"))
	}))
	defer ts.Close()
	sess := blankSession(t)
	raw, _ := json.Marshal(connect.FetchPayload{URL: ts.URL, Relation: "remote", Format: connect.FormatJSONL})
	if _, err := apply(context.Background(), sess, StageRequest{Stage: StageFetch, Payload: raw}); err != nil {
		t.Fatal(err)
	}
	rel := sess.Wrangler().KB.Relation(core.RelSourcePrefix + "remote")
	if rel == nil || rel.Cardinality() != 1 {
		t.Fatalf("fetched relation = %v", rel)
	}
}
