package session

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"regexp"
	"runtime"
	"testing"

	"vada/internal/connect"
	"vada/internal/core"
	"vada/internal/datagen"
	"vada/internal/metrics"
	"vada/internal/relation"
)

// kbContent is what a session's knowledge base persists as, without the
// version: the content a journal's digest stands for.
func kbContent(t *testing.T, s *Session) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Wrangler().KB.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return regexp.MustCompile(`^\{"version":\d+,`).ReplaceAll(buf.Bytes(), []byte("{"))
}

// csvIngest is the ingest request of rel as a CSV body.
func csvIngest(t *testing.T, rel *relation.Relation, role string) StageRequest {
	t.Helper()
	var body bytes.Buffer
	if _, err := connect.Write(&body, rel, connect.FormatCSV); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(connect.IngestPayload{Relation: rel.Schema.Name, Role: role, Data: body.String()})
	if err != nil {
		t.Fatal(err)
	}
	return StageRequest{Stage: StageIngest, Payload: raw}
}

// pipeline runs every stage kind the service's workloads use over the
// scenario of a seed — the pay-as-you-go four with three feedback rounds,
// the sinks and the advisor's batch on the scenario session, the connector
// ingests on a blank one — and returns the knowledge base's content after
// each stage.
func pipeline(t *testing.T, seed int64) [][]byte {
	t.Helper()
	ctx := context.Background()
	sc := testScenario(t, 60, seed)
	scenario := New("det", core.BuildScenarioWrangler(sc), WithScenario(sc, seed))
	w := core.NewWrangler()
	w.SetTargetSchema(datagen.TargetSchema())
	blank := New("det-blank", w)
	steps := []struct {
		sess *Session
		req  StageRequest
	}{
		{scenario, StageRequest{Stage: StageBootstrap}},
		{scenario, StageRequest{Stage: StageDataContext}},
		{scenario, StageRequest{Stage: StageFeedback, Payload: json.RawMessage(`{"budget":30}`)}},
		{scenario, StageRequest{Stage: StageFeedback, Payload: json.RawMessage(`{"budget":30}`)}},
		{scenario, StageRequest{Stage: StageFeedback, Payload: json.RawMessage(`{"budget":30}`)}},
		{scenario, StageRequest{Stage: StageUserContext, Payload: json.RawMessage(`{"model":"size"}`)}},
		{scenario, StageRequest{Stage: StageQualityReport}},
		{scenario, StageRequest{Stage: StageExport, Payload: json.RawMessage(`{"format":"jsonl"}`)}},
		{scenario, StageRequest{Stage: StageFeedbackBatch, Payload: json.RawMessage(`{"attrs":["price","bedrooms"],"budget":10}`)}},
		{blank, csvIngest(t, sc.Rightmove, connect.RoleSource)},
		{blank, csvIngest(t, sc.OnTheMarket, connect.RoleSource)},
		{blank, csvIngest(t, sc.Deprivation, connect.RoleSource)},
		{blank, csvIngest(t, sc.AddressRef, connect.RoleContext)},
		{blank, StageRequest{Stage: StageBootstrap}},
		{blank, StageRequest{Stage: StageQualityReport}},
		{blank, StageRequest{Stage: StageExport}},
	}
	out := make([][]byte, len(steps))
	for i, st := range steps {
		if _, err := apply(ctx, st.sess, st.req); err != nil {
			t.Fatalf("seed %d stage %d (%s): %v", seed, i+1, st.req.Stage, err)
		}
		out[i] = kbContent(t, st.sess)
	}
	return out
}

// TestPipelineDeterministic is what replaying a journal relies on: the same
// requests over the same scenario leave the same knowledge-base content
// after every stage, run after run, on one processor or on four.
func TestPipelineDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed ", seed), func(t *testing.T) {
			var want [][]byte
			for run, procs := range []int{1, 4, 1, 4} {
				runtime.GOMAXPROCS(procs)
				got := pipeline(t, seed)
				if want == nil {
					want = got
					continue
				}
				for i := range want {
					if !bytes.Equal(got[i], want[i]) {
						t.Fatalf("run %d (GOMAXPROCS %d): the knowledge base after stage %d differs from the first run's (%d and %d bytes)",
							run+1, procs, i+1, len(got[i]), len(want[i]))
					}
				}
			}
		})
	}
}

// TestReplay pins Session.Replay: the requests a run recorded, applied to a
// session restored from the state before it, re-derive the live session's
// knowledge base, and the session keeps the recorded events — not the ones
// the replay timed — and counts none of it in its metrics.
func TestReplay(t *testing.T) {
	ctx := context.Background()
	sc := testScenario(t, 40, 2)
	live := New("live", core.BuildScenarioWrangler(sc), WithScenario(sc, 2))
	if _, err := live.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	base := live.Wrangler().KB.Snapshot()
	history := live.Events()
	reqs := []StageRequest{
		{Stage: StageDataContext},
		{Stage: StageFeedback, Payload: json.RawMessage(`{"budget":20}`)},
	}
	for _, req := range reqs {
		if _, err := apply(ctx, live, req); err != nil {
			t.Fatal(err)
		}
	}
	recorded := live.EventsSince(len(history))

	w := core.BuildScenarioWrangler(sc)
	w.KB.Merge(base)
	reg := metrics.NewRegistry()
	replayed := New("live", w, WithScenario(sc, 2), WithRestored(live.CreatedAt(), history[0].At, history), WithMetrics(reg))
	if err := replayed.Replay(ctx, reqs, recorded); err != nil {
		t.Fatal(err)
	}
	if got, want := kbContent(t, replayed), kbContent(t, live); !bytes.Equal(got, want) {
		t.Fatalf("the replay re-derived %d bytes of content, the live session holds %d", len(got), len(want))
	}
	if got, want := replayed.Events(), live.Events(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("replayed events %v, want the recorded %v", got, want)
	}
	if got, want := replayed.LastActive(), recorded[len(recorded)-1].At; !got.Equal(want) {
		t.Fatalf("last active %v, want the last recorded stage's %v", got, want)
	}
	if counted := reg.Snapshot().Counters; len(counted) != 0 {
		t.Fatalf("the replay was counted: %v", counted)
	}
	if err := replayed.Replay(ctx, []StageRequest{{Stage: "nope"}}, nil); err == nil {
		t.Fatal("a request that does not resolve replayed")
	}
}
