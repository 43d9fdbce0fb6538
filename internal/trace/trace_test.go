package trace

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanLifecycle(t *testing.T) {
	st := NewStore(0, 0)
	tr := NewTracer(st)

	root := tr.Root("http", "", "route", "POST /x")
	if root.TraceID() == "" || len(root.TraceID()) != 32 {
		t.Fatalf("trace id = %q, want 32 hex chars", root.TraceID())
	}
	if len(root.SpanID()) != 16 {
		t.Fatalf("span id = %q, want 16 hex chars", root.SpanID())
	}
	child := root.Child("stage", "stage", "match")
	if child.TraceID() != root.TraceID() {
		t.Fatalf("child trace id %q != root %q", child.TraceID(), root.TraceID())
	}
	child.EndErr(errors.New("boom"))
	root.End()
	root.End() // idempotent

	spans := st.Spans(root.TraceID())
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	byName := map[string]SpanData{}
	for _, sp := range spans {
		byName[sp.Name] = sp
	}
	if byName["http"].Attrs["route"] != "POST /x" {
		t.Errorf("root attrs = %v", byName["http"].Attrs)
	}
	if byName["stage"].ParentID != root.SpanID() {
		t.Errorf("stage parent = %q, want %q", byName["stage"].ParentID, root.SpanID())
	}
	if byName["stage"].Status != StatusError || byName["stage"].Error != "boom" {
		t.Errorf("stage status = %+v", byName["stage"])
	}
	if byName["http"].Status != StatusOK {
		t.Errorf("root status = %q", byName["http"].Status)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	s := tr.Root("x", "")
	if s != nil {
		t.Fatalf("nil tracer minted span %v", s)
	}
	// None of these may panic.
	s.SetAttr("k", "v")
	s.End()
	s.EndErr(errors.New("x"))
	if c := s.Child("y"); c != nil {
		t.Fatalf("nil span produced child %v", c)
	}
	if got := s.TraceID(); got != "" {
		t.Fatalf("nil span trace id %q", got)
	}
	if got := s.Traceparent(); got != "" {
		t.Fatalf("nil span traceparent %q", got)
	}
	ctx := NewContext(context.Background(), s)
	if got := FromContext(ctx); got != nil {
		t.Fatalf("FromContext on nil span = %v", got)
	}
	if got := ChildFromContext(context.Background(), "z"); got != nil {
		t.Fatalf("ChildFromContext without span = %v", got)
	}
	var st *Store
	st.add(SpanData{TraceID: "t"})
	if st.Len() != 0 || st.Spans("t") != nil || st.Tree("t") != nil || st.List(Filter{}) != nil {
		t.Fatal("nil store not inert")
	}
}

func TestContextPropagation(t *testing.T) {
	st := NewStore(0, 0)
	tr := NewTracer(st)
	root := tr.Root("root", "")
	ctx := NewContext(context.Background(), root)
	child := ChildFromContext(ctx, "inner")
	if child == nil || child.TraceID() != root.TraceID() {
		t.Fatalf("context child = %v", child)
	}
	child.End()
	root.End()
}

func TestTraceparentRoundTrip(t *testing.T) {
	tid := strings.Repeat("ab", 16)
	pid := strings.Repeat("cd", 8)
	v := FormatTraceparent(tid, pid)
	if v != "00-"+tid+"-"+pid+"-01" {
		t.Fatalf("format = %q", v)
	}
	gotT, gotP, ok := ParseTraceparent(v)
	if !ok || gotT != tid || gotP != pid {
		t.Fatalf("parse(%q) = %q %q %v", v, gotT, gotP, ok)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	tid := strings.Repeat("ab", 16)
	pid := strings.Repeat("cd", 8)
	bad := []string{
		"",
		"00",
		"00-" + tid + "-" + pid,               // missing flags
		"ff-" + tid + "-" + pid + "-01",       // forbidden version
		"00-" + tid + "-" + pid + "-01-extra", // version 00 with 5 fields
		"00-" + strings.Repeat("0", 32) + "-" + pid + "-01", // zero trace id
		"00-" + tid + "-" + strings.Repeat("0", 16) + "-01", // zero span id
		"00-" + strings.ToUpper(tid) + "-" + pid + "-01",    // uppercase hex
		"00-" + tid[:30] + "-" + pid + "-01",                // short trace id
		"0g-" + tid + "-" + pid + "-01",                     // bad version hex
	}
	for _, v := range bad {
		if _, _, ok := ParseTraceparent(v); ok {
			t.Errorf("ParseTraceparent(%q) accepted", v)
		}
	}
	// Future versions with extra fields parse.
	if _, _, ok := ParseTraceparent("cc-" + tid + "-" + pid + "-01-future"); !ok {
		t.Error("future-version traceparent rejected")
	}
}

func TestRootAdoptsTraceparent(t *testing.T) {
	st := NewStore(0, 0)
	tr := NewTracer(st)
	tid := strings.Repeat("12", 16)
	pid := strings.Repeat("34", 8)
	s := tr.Root("http", FormatTraceparent(tid, pid))
	if s.TraceID() != tid {
		t.Fatalf("trace id = %q, want adopted %q", s.TraceID(), tid)
	}
	s.End()
	spans := st.Spans(tid)
	if len(spans) != 1 || spans[0].ParentID != pid {
		t.Fatalf("spans = %+v, want parent %q", spans, pid)
	}
}

func TestStoreEviction(t *testing.T) {
	st := NewStore(3, 2)
	tr := NewTracer(st)
	var ids []string
	for i := 0; i < 5; i++ {
		s := tr.Root(fmt.Sprintf("r%d", i), "")
		ids = append(ids, s.TraceID())
		s.End()
	}
	if st.Len() != 3 {
		t.Fatalf("store len = %d, want 3", st.Len())
	}
	for _, id := range ids[:2] {
		if st.Spans(id) != nil {
			t.Errorf("evicted trace %s still present", id)
		}
	}
	for _, id := range ids[2:] {
		if st.Spans(id) == nil {
			t.Errorf("recent trace %s missing", id)
		}
	}
	// Per-trace span cap: 2 kept, extras counted as dropped.
	s := tr.Root("root", "")
	for i := 0; i < 4; i++ {
		s.Child(fmt.Sprintf("c%d", i)).End()
	}
	s.End()
	if got := len(st.Spans(s.TraceID())); got != 2 {
		t.Fatalf("capped trace holds %d spans, want 2", got)
	}
	lst := st.List(Filter{Run: "", Session: ""})
	var sum *Summary
	for i := range lst {
		if lst[i].TraceID == s.TraceID() {
			sum = &lst[i]
		}
	}
	if sum == nil || sum.Dropped != 3 {
		t.Fatalf("summary = %+v, want 3 dropped (2 kept children + root over cap)", sum)
	}
}

func TestListFilters(t *testing.T) {
	st := NewStore(0, 0)
	tr := NewTracer(st)

	a := tr.Root("http", "", "session", "s1", "run", "r1")
	a.End()
	b := tr.Root("http", "", "session", "s2")
	b.End()

	if got := st.List(Filter{Session: "s1"}); len(got) != 1 || got[0].TraceID != a.TraceID() {
		t.Fatalf("session filter = %+v", got)
	}
	if got := st.List(Filter{Run: "r1"}); len(got) != 1 || got[0].Run != "r1" {
		t.Fatalf("run filter = %+v", got)
	}
	if got := st.List(Filter{Limit: 1}); len(got) != 1 || got[0].TraceID != b.TraceID() {
		t.Fatalf("limit filter should return newest first, got %+v", got)
	}
	if got := st.List(Filter{MinDuration: time.Hour}); len(got) != 0 {
		t.Fatalf("min-duration filter = %+v", got)
	}
}

func TestTree(t *testing.T) {
	st := NewStore(0, 0)
	tr := NewTracer(st)
	root := tr.Root("http", "")
	run := root.Child("run")
	qw := run.ChildAt("queue-wait", time.Now().Add(-time.Millisecond))
	qw.End()
	stg := run.Child("stage:match")
	app := stg.Child("journal.append")
	app.End()
	stg.End()
	run.End()
	root.End()

	nodes := st.Tree(root.TraceID())
	if len(nodes) != 1 || nodes[0].Name != "http" {
		t.Fatalf("roots = %+v", nodes)
	}
	runNode := nodes[0].Children
	if len(runNode) != 1 || runNode[0].Name != "run" {
		t.Fatalf("run level = %+v", runNode)
	}
	kids := runNode[0].Children
	if len(kids) != 2 {
		t.Fatalf("run children = %d, want 2", len(kids))
	}
	// queue-wait started earlier, so it sorts first.
	if kids[0].Name != "queue-wait" || kids[1].Name != "stage:match" {
		t.Fatalf("children order = %s, %s", kids[0].Name, kids[1].Name)
	}
	if len(kids[1].Children) != 1 || kids[1].Children[0].Name != "journal.append" {
		t.Fatalf("stage children = %+v", kids[1].Children)
	}
	if st.Tree("nope") != nil {
		t.Fatal("unknown trace produced a tree")
	}
}

func TestSlowSpanWarning(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewTextHandler(lockedWriter{&mu, &buf}, nil))
	tr := NewTracer(NewStore(0, 0), WithSlowThreshold(time.Nanosecond), WithLogger(logger))
	s := tr.Root("slowpoke", "", "session", "s9")
	time.Sleep(time.Millisecond)
	s.End()
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "slow span") || !strings.Contains(out, "slowpoke") {
		t.Fatalf("slow-span warning missing: %q", out)
	}
	if !strings.Contains(out, "trace_id="+s.TraceID()) {
		t.Fatalf("warning lacks trace id: %q", out)
	}
	if !strings.Contains(out, "session=s9") {
		t.Fatalf("warning lacks span attrs: %q", out)
	}

	// Below threshold: silent.
	buf.Reset()
	quiet := NewTracer(NewStore(0, 0), WithSlowThreshold(time.Hour), WithLogger(logger))
	quiet.Root("fast", "").End()
	mu.Lock()
	out = buf.String()
	mu.Unlock()
	if out != "" {
		t.Fatalf("fast span logged: %q", out)
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

func TestConcurrentUse(t *testing.T) {
	st := NewStore(64, 64)
	tr := NewTracer(st)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			root := tr.Root(fmt.Sprintf("r%d", i), "")
			for j := 0; j < 20; j++ {
				c := root.Child("c", "n", fmt.Sprint(j))
				c.SetAttr("extra", "v")
				c.End()
			}
			root.End()
		}(i)
	}
	wg.Wait()
	if st.Len() != 8 {
		t.Fatalf("store len = %d, want 8", st.Len())
	}
}

// SpanID returns the span's own ID, or "" on a nil span.
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return s.data.SpanID
}
