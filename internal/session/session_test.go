package session

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"vada/internal/core"
	"vada/internal/datagen"
	"vada/internal/metrics"
	"vada/internal/relation"
)

func testScenario(t testing.TB, n int, seed int64) *datagen.Scenario {
	t.Helper()
	cfg := datagen.DefaultConfig()
	cfg.NProperties = n
	cfg.Seed = seed
	return datagen.Generate(cfg)
}

func TestSessionLifecycle(t *testing.T) {
	ctx := context.Background()
	sc := testScenario(t, 60, 1)
	sess := New("s-demo", core.BuildScenarioWrangler(sc), WithName("demo"), WithScenario(sc, 1))
	if sess.Name() != "demo" || sess.ID() != "s-demo" {
		t.Fatalf("session identity: %q / %q", sess.ID(), sess.Name())
	}

	// No result before the first bootstrap.
	if _, err := sess.Result(); !errors.Is(err, core.ErrNoResult) {
		t.Fatalf("pre-bootstrap result err = %v", err)
	}

	// All four pay-as-you-go stages produce typed, scored events.
	stages := []func() (Event, error){
		func() (Event, error) { return sess.Bootstrap(ctx) },
		func() (Event, error) { return sess.AddDataContext(ctx, nil) },
		func() (Event, error) { return sess.AddFeedback(ctx, nil, 40) },
		func() (Event, error) { return sess.SetUserContext(ctx, core.CrimeAnalysisUserContext()) },
	}
	wantStages := []string{StageBootstrap, StageDataContext, StageFeedback, StageUserContext}
	for i, run := range stages {
		ev, err := run()
		if err != nil {
			t.Fatalf("stage %d: %v", i, err)
		}
		if ev.Seq != i+1 || ev.Stage != wantStages[i] {
			t.Fatalf("stage %d event = %+v", i, ev)
		}
		if ev.Score == nil {
			t.Fatalf("stage %d: no oracle score", i)
		}
	}
	if ev := sess.Events(); len(ev) != 4 || ev[3].Score.F1 <= 0 {
		t.Fatalf("events = %+v", ev)
	}

	res, err := sess.Result()
	if err != nil || res.Cardinality() == 0 {
		t.Fatalf("result = %v, %v", res, err)
	}
	if len(sess.Trace()) == 0 {
		t.Fatal("empty trace")
	}
	st := sess.State()
	if st.ResultRows != res.Cardinality() || len(st.Events) != 4 || len(st.Selected) == 0 {
		t.Fatalf("state = %+v", st)
	}

	// Closing makes every operation fail with ErrClosed.
	sess.Close()
	if _, err := sess.Bootstrap(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("step after close err = %v", err)
	}
	if _, err := sess.Result(); !errors.Is(err, ErrClosed) {
		t.Fatalf("result after close err = %v", err)
	}
}

func TestDataContextWithoutScenario(t *testing.T) {
	sess := New("s-blank", core.NewWrangler())
	if _, err := sess.AddDataContext(context.Background(), nil); !errors.Is(err, core.ErrNoDataContext) {
		t.Fatalf("nil data context err = %v", err)
	}
}

func TestSessionWithoutScenarioWrangles(t *testing.T) {
	// Sessions are not scenario-bound: a plain wrangler over direct sources
	// bootstraps, and events simply carry no score.
	shop := relation.New(relation.NewSchema("shop", "name", "price", "city"))
	shop.MustAppend("kettle", 25.0, "Leeds")
	shop.MustAppend("toaster", 35.0, "Manchester")
	w := core.NewWrangler(core.WithMinCoverage(2))
	w.RegisterSource(shop)
	w.SetTargetSchema(relation.NewSchema("catalogue", "name", "price:float", "city"))

	sess := New("s-shop", w)
	ev, err := sess.Bootstrap(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ev.Score != nil {
		t.Fatalf("scoreless session scored: %+v", ev)
	}
	res, err := sess.Result()
	if err != nil || res.Cardinality() != 2 {
		t.Fatalf("result = %v, %v", res, err)
	}
}

// TestConcurrentSessions runs two scenario sessions through all four stages
// in parallel — the per-session locking claim, checked under -race.
func TestConcurrentSessions(t *testing.T) {
	ctx := context.Background()
	var wg sync.WaitGroup
	var sessions []*Session
	errs := make(chan error, 2)
	for seed := int64(1); seed <= 2; seed++ {
		sc := testScenario(t, 50, seed)
		sess := New(fmt.Sprintf("s%d", seed), core.BuildScenarioWrangler(sc), WithScenario(sc, seed))
		sessions = append(sessions, sess)
		wg.Add(1)
		go func(sess *Session) {
			defer wg.Done()
			steps := []func() (Event, error){
				func() (Event, error) { return sess.Bootstrap(ctx) },
				func() (Event, error) { return sess.AddDataContext(ctx, nil) },
				func() (Event, error) { return sess.AddFeedback(ctx, nil, 20) },
				func() (Event, error) { return sess.SetUserContext(ctx, core.CrimeAnalysisUserContext()) },
			}
			for _, run := range steps {
				if _, err := run(); err != nil {
					errs <- err
					return
				}
			}
		}(sess)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, sess := range sessions {
		if len(sess.Events()) != 4 {
			t.Fatalf("session %s: %d events", sess.ID(), len(sess.Events()))
		}
		if res, err := sess.Result(); err != nil || res.Cardinality() == 0 {
			t.Fatalf("session %s result: %v, %v", sess.ID(), res, err)
		}
	}
}

// TestSubscribe checks the event stream contract: history and live channel
// are taken atomically, live events arrive in order, cancel is idempotent
// and Close terminates every subscriber.
func TestSubscribe(t *testing.T) {
	ctx := context.Background()
	sc := testScenario(t, 40, 1)
	sess := New("sub", core.BuildScenarioWrangler(sc), WithScenario(sc, 1))

	history, events, cancel := sess.Subscribe()
	if len(history) != 0 {
		t.Fatalf("history before any stage = %d events", len(history))
	}
	if _, err := sess.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-events:
		if ev.Stage != StageBootstrap || ev.Seq != 1 {
			t.Fatalf("live event = %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no live event delivered")
	}

	// A second subscriber sees the bootstrap in its replayed history.
	h2, ev2, cancel2 := sess.Subscribe()
	if len(h2) != 1 || h2[0].Stage != StageBootstrap {
		t.Fatalf("history after bootstrap = %+v", h2)
	}
	cancel2()
	cancel2() // idempotent
	if _, ok := <-ev2; ok {
		t.Fatal("cancelled subscription channel not closed")
	}

	// Close terminates the remaining subscriber.
	sess.Close()
	for {
		if _, ok := <-events; !ok {
			break
		}
	}
	cancel() // safe after close

	// Subscribing to a closed session yields history and a closed channel.
	h3, ev3, cancel3 := sess.Subscribe()
	if len(h3) != 1 {
		t.Fatalf("post-close history = %d events", len(h3))
	}
	if _, ok := <-ev3; ok {
		t.Fatal("post-close subscription channel not closed")
	}
	cancel3()
}

// TestResultCache checks that Result memoises the clean projection per KB
// version: unchanged sessions return the identical relation, and any stage
// that advances the KB invalidates the cache.
func TestResultCache(t *testing.T) {
	ctx := context.Background()
	sc := testScenario(t, 40, 1)
	sess := New("cache", core.BuildScenarioWrangler(sc), WithScenario(sc, 1))
	if _, err := sess.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	r1, err := sess.Result()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sess.Result()
	if err != nil {
		t.Fatal(err)
	}
	// A cache hit shares the underlying tuples (no re-projection)…
	if &r1.Tuples[0][0] != &r2.Tuples[0][0] {
		t.Fatal("repeated Result on an unchanged session re-projected the relation")
	}
	// …but each caller gets a private view: truncating one must not
	// shorten what later callers see.
	r1.Tuples = r1.Tuples[:1]
	r2b, err := sess.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(r2b.Tuples) != len(r2.Tuples) {
		t.Fatalf("caller truncation leaked into the cache: %d vs %d rows", len(r2b.Tuples), len(r2.Tuples))
	}
	if _, err := sess.AddDataContext(ctx, nil); err != nil {
		t.Fatal(err)
	}
	r3, err := sess.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(r3.Tuples) > 0 && len(r2.Tuples) > 0 && &r3.Tuples[0][0] == &r2.Tuples[0][0] {
		t.Fatal("Result cache not invalidated by a KB-advancing stage")
	}
}

// TestStageTable checks the fixed stage table: the four paper stages in
// lifecycle order, then the connector stages and the advisor's, discoverable
// with descriptions.
func TestStageTable(t *testing.T) {
	want := []string{StageBootstrap, StageDataContext, StageFeedback, StageUserContext,
		StageIngest, StageFetch, StageExport, StageQualityReport, StageFeedbackBatch}
	info := StageInfos()
	if len(info) != len(want) {
		t.Fatalf("the table has %d stages, want %d", len(info), len(want))
	}
	for i, in := range info {
		if in.Name != want[i] || in.Description == "" {
			t.Fatalf("stage %d = %+v, want name %q with a description", i, in, want[i])
		}
	}
	if _, _, err := Resolve(StageRequest{Stage: "nope"}); !errors.Is(err, ErrUnknownStage) {
		t.Fatalf("unknown stage err = %v", err)
	}
}

// TestFeedbackValueIsClosed: a feedback item's value has the wire form the
// encoders write, keys k, s, i, f and b, each once and spelt exactly. A key
// outside them used to be dropped, so {"k":"string","v":"12 High St"} was a
// correction to "".
func TestFeedbackValueIsClosed(t *testing.T) {
	item := func(corrected string) StageRequest {
		return StageRequest{Stage: StageFeedback, Payload: []byte(`{"items":[{"Street":"1 High St","Postcode":"M1 1AA",` +
			`"Attr":"street","Correct":false,"Corrected":` + corrected + `,"HasCorrection":true}]}`)}
	}
	for _, corrected := range []string{
		`{"k":"string","v":"12 High St"}`,
		`{"K":"string","S":"x"}`,
		`{"k":"string","s":"x","s":"y"}`,
	} {
		if _, _, err := Resolve(item(corrected)); !errors.Is(err, ErrBadPayload) {
			t.Errorf("Corrected %s: err = %v, want ErrBadPayload", corrected, err)
		}
	}
	_, payload, err := Resolve(item(`{"k":"string","s":"12 High St"}`))
	if err != nil {
		t.Fatal(err)
	}
	if items := payload.(*FeedbackPayload).Items; len(items) != 1 || !items[0].Corrected.Same(relation.String("12 High St")) {
		t.Fatalf("items = %+v", items)
	}
}

// apply resolves a request and applies its stage, as the server and the run
// engine do.
func apply(ctx context.Context, s *Session, req StageRequest) (Event, error) {
	st, payload, err := Resolve(req)
	if err != nil {
		return Event{}, err
	}
	return st.Apply(ctx, s, payload)
}

// TestApply drives the uniform choke point: raw StageRequests resolve,
// decode and apply exactly like the named methods, and malformed requests
// fail with the typed sentinels before anything runs.
func TestApply(t *testing.T) {
	ctx := context.Background()
	sc := testScenario(t, 40, 1)
	sess := New("apply", core.BuildScenarioWrangler(sc), WithScenario(sc, 1))

	ev, err := apply(ctx, sess, StageRequest{Stage: StageBootstrap})
	if err != nil || ev.Stage != StageBootstrap || ev.Seq != 1 || ev.Type != EventStage {
		t.Fatalf("bootstrap via Apply = %+v, %v", ev, err)
	}
	// A payload on a payload-less stage is rejected.
	if _, err := apply(ctx, sess, StageRequest{Stage: StageBootstrap, Payload: []byte(`{"x":1}`)}); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("bootstrap payload err = %v", err)
	}
	if _, err := apply(ctx, sess, StageRequest{Stage: "nope"}); !errors.Is(err, ErrUnknownStage) {
		t.Fatalf("unknown stage err = %v", err)
	}
	// data-context with an empty payload defaults to the scenario reference.
	ev, err = apply(ctx, sess, StageRequest{Stage: StageDataContext})
	if err != nil || ev.Stage != StageDataContext || ev.Score == nil {
		t.Fatalf("data-context via Apply = %+v, %v", ev, err)
	}
	// feedback with a typed JSON payload.
	ev, err = apply(ctx, sess, StageRequest{Stage: StageFeedback, Payload: []byte(`{"budget": 20}`)})
	if err != nil || ev.Stage != StageFeedback {
		t.Fatalf("feedback via Apply = %+v, %v", ev, err)
	}
	// Unknown payload fields are decode failures, not silent defaults.
	if _, err := apply(ctx, sess, StageRequest{Stage: StageFeedback, Payload: []byte(`{"budgte": 20}`)}); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("misspelled feedback payload err = %v", err)
	}
	// So is trailing data after the payload value.
	if _, err := apply(ctx, sess, StageRequest{Stage: StageFeedback, Payload: []byte(`{"budget": 20}{"budget": 30}`)}); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("trailing payload data err = %v", err)
	}
	// user-context resolves the model by name inside the codec.
	ev, err = apply(ctx, sess, StageRequest{Stage: StageUserContext, Payload: []byte(`{"model":"size"}`)})
	if err != nil || ev.Stage != StageUserContext {
		t.Fatalf("user-context via Apply = %+v, %v", ev, err)
	}
	if _, err := apply(ctx, sess, StageRequest{Stage: StageUserContext, Payload: []byte(`{"model":"nope"}`)}); !errors.Is(err, ErrBadPayload) || !errors.Is(err, core.ErrUnknownUserContext) {
		t.Fatalf("bad model err = %v", err)
	}
	if len(sess.Events()) != 4 {
		t.Fatalf("events = %d, want 4", len(sess.Events()))
	}
}

// TestPublishTransition checks the run-progress channel contract:
// transitions reach live subscribers as typed, unnumbered events and are
// never retained in the stage history.
func TestPublishTransition(t *testing.T) {
	sc := testScenario(t, 30, 1)
	sess := New("tr", core.BuildScenarioWrangler(sc), WithScenario(sc, 1))
	_, events, cancel := sess.Subscribe()
	defer cancel()

	tr := RunTransition{RunID: "r1", State: "running", Stage: StageBootstrap, StageIndex: 1, StageCount: 3}
	sess.PublishTransition(tr)
	select {
	case ev := <-events:
		if ev.Type != EventTransition || ev.Seq != 0 || ev.Run == nil || *ev.Run != tr {
			t.Fatalf("transition event = %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no transition delivered")
	}
	if len(sess.Events()) != 0 {
		t.Fatalf("transition leaked into history: %+v", sess.Events())
	}
	// Publishing to a closed session is a no-op.
	sess.Close()
	sess.PublishTransition(tr)
}

// TestRestoredSeqContinues proves stage numbering picks up after the
// restored history instead of restarting at 1.
func TestRestoredSeqContinues(t *testing.T) {
	history := []Event{
		{Seq: 1, Type: EventStage, Stage: StageBootstrap},
		{Seq: 2, Type: EventStage, Stage: StageDataContext},
	}
	sess := New("sx", core.NewWrangler(), WithRestored(time.Time{}, time.Time{}, history))
	ev, err := sess.Step(context.Background(), "custom", nil)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Seq != 3 {
		t.Fatalf("next Seq = %d, want 3", ev.Seq)
	}
}

// TestSlowConsumerDropsCounted checks the previously-silent SSE loss is
// now observable: a subscriber whose buffer is full loses events, and each
// loss lands in sse_dropped_events_total by kind, while the subscriber
// gauge tracks Subscribe, cancel and Close.
func TestSlowConsumerDropsCounted(t *testing.T) {
	reg := metrics.NewRegistry()
	sc := testScenario(t, 30, 1)
	sess := New("drops", core.BuildScenarioWrangler(sc), WithScenario(sc, 1), WithMetrics(reg))

	_, _, cancel := sess.Subscribe() // never drained
	if got := reg.Gauge("sse_subscribers").Value(); got != 1 {
		t.Fatalf("sse_subscribers after Subscribe = %d, want 1", got)
	}

	tr := RunTransition{RunID: "r1", State: "running", Stage: StageBootstrap}
	for range subscriberBuffer {
		sess.PublishTransition(tr) // fills the buffer
	}
	sess.PublishTransition(tr) // dropped
	sess.PublishTransition(tr) // dropped
	name := metrics.Name("sse_dropped_events_total", "kind", "transition")
	if got := reg.Counter(name).Value(); got != 2 {
		t.Fatalf("%s = %d, want 2", name, got)
	}

	// Stage events through the same full buffer are dropped under their
	// own kind.
	if _, err := sess.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	stage := metrics.Name("sse_dropped_events_total", "kind", "stage")
	if got := reg.Counter(stage).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", stage, got)
	}

	cancel()
	if got := reg.Gauge("sse_subscribers").Value(); got != 0 {
		t.Fatalf("sse_subscribers after cancel = %d, want 0", got)
	}
	// Close decrements whatever cancel has not already released.
	sess.Subscribe()
	sess.Close()
	if got := reg.Gauge("sse_subscribers").Value(); got != 0 {
		t.Fatalf("sse_subscribers after Close = %d, want 0", got)
	}
}

// TestStepCountersPublished: every stage publishes what its orchestration
// run did — executed steps by transducer and whether they changed the
// knowledge base, and ready transducers skipped because nothing they read
// had moved — and the counters add up to the steps the events report.
func TestStepCountersPublished(t *testing.T) {
	reg := metrics.NewRegistry()
	sc := testScenario(t, 30, 1)
	sess := New("steps", core.BuildScenarioWrangler(sc), WithScenario(sc, 1), WithMetrics(reg))
	ctx := context.Background()
	boot, err := sess.Bootstrap(ctx)
	if err != nil {
		t.Fatal(err)
	}
	dc, err := sess.AddDataContext(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got, want := metrics.SumCounters(snap, "wrangle_steps_total"), int64(boot.Steps+dc.Steps); got != want {
		t.Fatalf("wrangle_steps_total sums to %d, the events report %d steps", got, want)
	}
	changed := metrics.Name("wrangle_steps_total", "transducer", "instance-matching", "changed", "true")
	if got := reg.Counter(changed).Value(); got != 1 {
		t.Fatalf("%s = %d: the data context runs instance matching once", changed, got)
	}
	skipped := metrics.Name("wrangle_steps_skipped_total", "transducer", "schema-matching")
	if got := reg.Counter(skipped).Value(); got == 0 {
		t.Fatalf("%s = 0: schema matching is ready after every write and reads none of them", skipped)
	}
	if got := reg.Counter(metrics.Name("wrangle_steps_skipped_total", "transducer", "web-extraction")).Value(); got != 0 {
		t.Fatalf("web-extraction skipped %d times: it is never ready once its sources are extracted", got)
	}
}
