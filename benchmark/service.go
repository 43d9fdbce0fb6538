package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"vada/internal/connect"
	"vada/internal/core"
	"vada/internal/datagen"
)

// serverProc is the real vada-server binary run as a subprocess with only
// -addr and -data-dir set: every other flag stays at its default, so a later
// change of a default is measured, not masked.
type serverProc struct {
	bin     string
	dataDir string
	logPath string
	addr    string
	cmd     *exec.Cmd
}

func (s *serverProc) base() string { return "http://" + s.addr + "/api/v1" }

// start launches the server and returns once it answers healthz.
func (s *serverProc) start() error {
	logf, err := os.OpenFile(s.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer logf.Close() // the child holds its own descriptor
	s.cmd = exec.Command(s.bin, "-addr", s.addr, "-data-dir", s.dataDir)
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	// If the benchmark itself is killed, the server must not outlive it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return fmt.Errorf("starting %s: %w", s.bin, err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(s.base() + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.kill()
	return fmt.Errorf("server on %s never became healthy (see %s)", s.addr, s.logPath)
}

// kill is kill -9: no graceful shutdown, no final snapshot sweep. It returns
// once the process has been reaped.
func (s *serverProc) kill() {
	if s.cmd == nil || s.cmd.Process == nil {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGKILL) // already exited is fine
	_ = s.cmd.Wait()                          // a killed process always reports an error
	s.cmd = nil
}

func (s *serverProc) pid() int { return s.cmd.Process.Pid }

// freeAddr picks a free loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// httpc is one wrangler's connection: closed loop, one request at a time.
type httpc struct {
	base string
	c    *http.Client
}

func newHTTPC(base string) *httpc {
	return &httpc{base: base, c: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1,
			DisableCompression: true},
	}}
}

func (h *httpc) do(method, path, ctype string, body []byte) (int, []byte, http.Header, error) {
	req, err := http.NewRequest(method, h.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := h.c.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, resp.Header, err
}

// ackedSession is the ack model's record of one live session: what the
// server has acknowledged and must therefore still hold after a crash.
type ackedSession struct {
	id          string
	key         string
	n           int    // size of the scenario the session wrangles
	ackedSeq    int    // Seq of the last acknowledged stage event
	ackedDigest string // digest of the result read after that event ("" = none)
	resultBytes int
	steps       int // cumulative orchestration steps, for the MaxSteps guard rail
}

// stageEvent is the part of the server's stage event the benchmark reads.
type stageEvent struct {
	Seq        int    `json:"seq"`
	Stage      string `json:"stage"`
	Steps      int    `json:"steps"`
	DurationNs int64  `json:"duration_ns"`
}

// serviceRun drives a service workload.
type serviceRun struct {
	cfg runConfig
	p   params
	srv *serverProc

	mu   sync.Mutex
	live map[string]*ackedSession

	lost       []string
	recoveries []recoveryRound
}

func (r *serviceRun) track(s *ackedSession) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.live[s.id] = s
	return len(r.live)
}

func (r *serviceRun) untrack(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.live, id)
}

// setup builds the server binary from source, boots it on a fresh data
// directory and waits for it to serve.
func (r *serviceRun) setup() error {
	bin := filepath.Join(r.cfg.buildDir, "vada-server")
	build := exec.Command("go", "build", "-o", bin, "./cmd/vada-server")
	build.Dir = r.cfg.root
	if out, err := build.CombinedOutput(); err != nil {
		return fmt.Errorf("building vada-server: %v\n%s", err, out)
	}
	dataDir := filepath.Join(r.cfg.buildDir, fmt.Sprintf("data-%s-%d", r.cfg.workload, os.Getpid()))
	if err := os.RemoveAll(dataDir); err != nil {
		return err
	}
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return err
	}
	addr, err := freeAddr()
	if err != nil {
		return err
	}
	r.srv = &serverProc{bin: bin, dataDir: dataDir, addr: addr,
		logPath: filepath.Join(r.cfg.outDir, "server-"+r.cfg.workload+".log")}
	_ = os.Remove(r.srv.logPath) // one run's log; restarts within the run append
	r.live = map[string]*ackedSession{}
	return r.srv.start()
}

func (r *serviceRun) undoSetup() {
	if r.srv != nil {
		r.srv.kill()
		_ = os.RemoveAll(r.srv.dataDir) // scratch data; a leftover is harmless
		r.srv = nil
	}
}

// metricz sums every series of each base name in the server's registry
// snapshot: the program's own counts, read from the program.
func (r *serviceRun) metricz() (map[string]float64, error) {
	status, body, _, err := newHTTPC(r.srv.base()).do("GET", "/metricz", "", nil)
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("GET /metricz: status %d: %v", status, err)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		return nil, err
	}
	sums := map[string]float64{}
	for name, v := range snap.Counters {
		base, _, _ := strings.Cut(name, "{")
		sums[base] += float64(v)
	}
	return sums, nil
}

// persistCounters are the /metricz base names the durability metrics use.
var persistCounters = []string{"persist_fsync_total", "persist_journal_bytes_total",
	"persist_snapshot_bytes_total", "persist_compactions_total"}

// runPhase runs every client's cycles 0 … cycles-1, the clients side by side.
func (r *serviceRun) runPhase(cycles int, traced bool) *phase {
	ph := &phase{s: newSamples()}
	before, err := r.metricz()
	if err != nil {
		ph.problem("%v", err)
		return ph
	}
	srvCPU0, _ := procCPU(r.srv.pid())
	loadCPU0 := selfCPU()
	start := time.Now()
	parts := make([]*svcClient, clients)
	var wg sync.WaitGroup
	for c := range parts {
		cl := &svcClient{id: c, run: r, h: newHTTPC(r.srv.base()), ph: &phase{s: newSamples()}}
		if traced {
			cl.tr = newTracer(start, c)
		}
		parts[c] = cl
		wg.Add(1)
		go func() {
			defer wg.Done()
			cal := calibrator{proc: r.cfg.kernel}
			for i := 0; i < cycles; i++ {
				cal.tick(cl.ph.s, cl.tr)
				var err error
				if r.cfg.workload == "serve_feedback" {
					err = cl.feedbackCycle(i)
				} else {
					err = cl.churnCycle(i)
				}
				if err != nil {
					cl.ph.problem("%v", err)
				}
			}
			if r.cfg.workload == "serve_feedback" {
				if err := cl.leaveUnfinished(); err != nil {
					cl.ph.problem("%v", err)
				}
			}
		}()
	}
	wg.Wait()
	ph.wall = time.Since(start)
	srvCPU1, _ := procCPU(r.srv.pid())
	ph.cpu = srvCPU1 - srvCPU0
	ph.loadCPU = selfCPU() - loadCPU0
	after, err := r.metricz()
	if err != nil {
		ph.problem("%v", err)
		return ph
	}
	for _, cl := range parts {
		ph.ops += cl.ph.ops
		ph.failed += cl.ph.failed
		ph.s.merge(cl.ph.s)
		ph.cycles = append(ph.cycles, cl.ph.cycles...)
		ph.problems = append(ph.problems, cl.ph.problems...)
		ph.maxSteps = max(ph.maxSteps, cl.ph.maxSteps)
		ph.maxLive = max(ph.maxLive, cl.ph.maxLive)
		if cl.tr != nil {
			ph.spans = append(ph.spans, cl.tr.spans...)
		}
	}
	for _, name := range persistCounters {
		ph.s.add(name, after[name]-before[name])
	}
	ph.s.add("server_peak_rss_mb", procPeakRSSMB(r.srv.pid()))
	return ph
}

// svcClient is one closed-loop wrangler owning its own sessions, so its op
// list does not depend on the other client's timing.
type svcClient struct {
	id   int
	run  *serviceRun
	h    *httpc
	ph   *phase
	tr   *tracer
	kept []*ackedSession // finished sessions left live, oldest first
}

// call performs one HTTP operation as one op: timed, status-checked, recorded
// under its class. The span it returns is already closed.
func (c *svcClient) call(cycle int64, trace, class, method, path, ctype string, body []byte, want int) ([]byte, http.Header, float64, error) {
	c.ph.ops++
	op := c.tr.open(cycle, trace, "op:"+class)
	t0 := time.Now()
	status, data, hdr, err := c.h.do(method, path, ctype, body)
	ms := msSince(t0)
	c.tr.close(op, map[string]any{"status": status, "bytes": len(data)})
	c.ph.s.observe(class, ms)
	if err == nil && status != want {
		err = fmt.Errorf("status %d, want %d: %s", status, want, firstLine(data))
	}
	if err != nil {
		c.ph.failed++
		return nil, nil, ms, fmt.Errorf("%s %s %s: %w", trace, method, path, err)
	}
	return data, hdr, ms, nil
}

// stage posts one synchronous stage and folds its event into the ack model.
func (c *svcClient) stage(cycle int64, trace string, sess *ackedSession, name string, payload []byte) error {
	opStart := c.tr.now()
	data, _, ms, err := c.call(cycle, trace, "stage:"+name, "POST", "/sessions/"+sess.id+"/stages/"+name, "application/json", payload, http.StatusOK)
	if err != nil {
		return err
	}
	var ev stageEvent
	if err := json.Unmarshal(data, &ev); err != nil {
		return fmt.Errorf("%s stage %s: %w", trace, name, err)
	}
	coreMs := float64(ev.DurationNs) / 1e6
	c.ph.s.observe(kindKey(name, sess.n), ms)
	c.ph.s.observe("core:"+name, coreMs)
	c.ph.s.observe("overhead", ms-coreMs)
	c.ph.s.add("stages", 1)
	c.ph.s.add("steps", float64(ev.Steps))
	if c.tr != nil {
		// The server reports how long the stage ran, not when: centre it in
		// the op, so what precedes and follows it reads as server overhead.
		opSpan := c.tr.spans[len(c.tr.spans)-1]
		mid := opStart + (opSpan.EndNs-opStart)/2
		c.tr.add(opSpan.ID, trace, "core.stage", mid-ev.DurationNs/2, mid+ev.DurationNs/2,
			map[string]any{"stage": name, "steps": ev.Steps, "seq": ev.Seq})
	}
	sess.ackedSeq = ev.Seq
	sess.steps += ev.Steps
	c.ph.maxSteps = max(c.ph.maxSteps, sess.steps)
	return nil
}

// create opens a session and enters it into the ack model.
func (c *svcClient) create(cycle int64, trace string, n int, body map[string]any) (*ackedSession, error) {
	payload, _ := json.Marshal(body) // a map of strings and numbers always encodes
	data, _, _, err := c.call(cycle, trace, "create", "POST", "/sessions", "application/json", payload, http.StatusCreated)
	if err != nil {
		return nil, err
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &st); err != nil || st.ID == "" {
		return nil, fmt.Errorf("%s create: no session id in %s", trace, firstLine(data))
	}
	sess := &ackedSession{id: st.ID, key: trace, n: n}
	c.ph.maxLive = max(c.ph.maxLive, c.run.track(sess))
	return sess, nil
}

func (c *svcClient) delete(cycle int64, trace string, sess *ackedSession) error {
	_, _, _, err := c.call(cycle, trace, "delete", "DELETE", "/sessions/"+sess.id, "", nil, http.StatusNoContent)
	c.run.untrack(sess.id)
	return err
}

func (c *svcClient) read(cycle int64, trace, kind, path string) ([]byte, error) {
	data, _, _, err := c.call(cycle, trace, "read:"+kind, "GET", path, "", nil, http.StatusOK)
	return data, err
}

// spent reports whether the session has used up its step budget, and counts
// the wrangling stage the caller now skips.
func (c *svcClient) spent(sess *ackedSession) bool {
	if sess.steps <= stepBudget {
		return false
	}
	c.ph.s.add("stages_skipped", 1)
	return true
}

// finishCycle reads the full result of a cycle's session, digests and scores
// it against the in-process twin of the scenario, and acknowledges it.
func (c *svcClient) finishCycle(cycle int64, rec CycleRecord, sess *ackedSession, sc *datagen.Scenario) error {
	csv, err := c.read(cycle, rec.key(), "export_csv", "/sessions/"+sess.id+"/export/result?format=csv")
	if err != nil {
		return err
	}
	res, err := parseExport(csv, connect.FormatCSV)
	if err != nil {
		return fmt.Errorf("%s: parsing result export: %w", rec.key(), err)
	}
	if res.Cardinality() == 0 {
		return fmt.Errorf("%s: empty result", rec.key())
	}
	sess.ackedDigest, sess.resultBytes = digest(csv), len(csv)
	rec.Digest, rec.F1, rec.Steps = sess.ackedDigest, sc.Oracle.ScoreResult(res).F1, sess.steps
	c.ph.cycles = append(c.ph.cycles, rec)
	return nil
}

// feedbackCycle is one serve_feedback session: the paper's loop over HTTP,
// with annotations the client derives from the result it has just read.
func (c *svcClient) feedbackCycle(index int) error {
	p := c.run.p
	seed := cycleSeed(c.run.cfg.seed, c.id, index)
	n := p.sizes[index%len(p.sizes)]
	rec := CycleRecord{Client: c.id, Index: index, Seed: seed, N: n}
	trace := rec.key()
	cycle := c.tr.open(0, trace, "cycle")
	defer func() { c.tr.close(cycle, map[string]any{"seed": seed, "n": n}) }()

	sc := scenario(n, seed)
	sess, err := c.create(cycle, trace, n, map[string]any{"name": trace, "n": n, "seed": seed})
	if err != nil {
		return err
	}
	page := "/sessions/" + sess.id + "/result?limit=100"
	if err := c.stage(cycle, trace, sess, "bootstrap", nil); err != nil {
		return err
	}
	if _, err := c.read(cycle, trace, "result", page); err != nil {
		return err
	}
	if err := c.stage(cycle, trace, sess, "data-context", nil); err != nil {
		return err
	}
	if _, err := c.read(cycle, trace, "result", page); err != nil {
		return err
	}
	// Mixed initiative first: take the advisor's top feedback-batch action
	// verbatim. (After the client's own rounds every scored attribute is
	// covered and the remaining suggestion draws no annotations.)
	body, err := c.read(cycle, trace, "suggestions", "/sessions/"+sess.id+"/suggestions")
	if err != nil {
		return err
	}
	var advice struct {
		Suggestions []struct {
			Action *struct {
				Stage   string          `json:"stage"`
				Payload json.RawMessage `json:"payload"`
			} `json:"action"`
		} `json:"suggestions"`
	}
	if err := json.Unmarshal(body, &advice); err != nil {
		return fmt.Errorf("%s suggestions: %w", trace, err)
	}
	accepted := false
	for _, sg := range advice.Suggestions {
		if sg.Action != nil && sg.Action.Stage == "feedback-batch" {
			if err := c.stage(cycle, trace, sess, "feedback-batch", sg.Action.Payload); err != nil {
				return err
			}
			accepted = true
			break
		}
	}
	if !accepted {
		c.ph.s.add("suggestions_skipped", 1)
	}

	for r := 0; r < p.feedbackRounds && !c.spent(sess); r++ {
		body, err := c.read(cycle, trace, "export_jsonl", "/sessions/"+sess.id+"/export/result?format=jsonl")
		if err != nil {
			return err
		}
		res, err := parseExport(body, connect.FormatJSONL)
		if err != nil {
			return fmt.Errorf("%s: parsing result export: %w", trace, err)
		}
		items := core.OracleFeedback(sc, res, p.feedbackBudget, seed+int64(r)+1)
		payload, err := json.Marshal(map[string]any{"items": items})
		if err != nil {
			return err
		}
		if err := c.stage(cycle, trace, sess, "feedback", payload); err != nil {
			return err
		}
	}

	if !c.spent(sess) {
		if err := c.plan(cycle, trace, sess,
			`{"stages":[{"stage":"user-context","payload":{"model":"size"}},{"stage":"quality-report"}]}`); err != nil {
			return err
		}
	}
	if _, err := c.read(cycle, trace, "result", page); err != nil {
		return err
	}
	if err := c.finishCycle(cycle, rec, sess, sc); err != nil {
		return err
	}
	c.kept = append(c.kept, sess)
	if len(c.kept) > p.keepLive {
		oldest := c.kept[0]
		c.kept = c.kept[1:]
		return c.delete(cycle, trace, oldest)
	}
	return nil
}

// leaveUnfinished ends a serve_feedback client's op list with the two
// sessions that never get far: one only created, one created and
// bootstrapped. They stay live for the kill -9 rounds.
func (c *svcClient) leaveUnfinished() error {
	n, seed := c.run.p.sizes[0], cycleSeed(c.run.cfg.seed, c.id, -1)
	if _, err := c.create(0, fmt.Sprintf("c%d.created", c.id), n, map[string]any{"n": n, "seed": seed}); err != nil {
		return err
	}
	key := fmt.Sprintf("c%d.bootstrapped", c.id)
	sess, err := c.create(0, key, n, map[string]any{"n": n, "seed": seed})
	if err != nil {
		return err
	}
	if err := c.stage(0, key, sess, "bootstrap", nil); err != nil {
		return err
	}
	csv, err := c.read(0, key, "export_csv", "/sessions/"+sess.id+"/export/result?format=csv")
	if err != nil {
		return err
	}
	sess.ackedDigest, sess.resultBytes = digest(csv), len(csv)
	return nil
}

// planPoll is how often a client polls a submitted plan's run resource.
const planPoll = 5 * time.Millisecond

// plan submits an asynchronous plan and polls its run to a terminal state;
// submit → terminal is one op.
func (c *svcClient) plan(cycle int64, trace string, sess *ackedSession, plan string) error {
	c.ph.ops++
	op := c.tr.open(cycle, trace, "op:plan")
	defer func() { c.tr.close(op, nil) }()
	t0 := time.Now()
	fail := func(err error) error {
		c.ph.failed++
		return fmt.Errorf("%s plan: %w", trace, err)
	}
	status, data, hdr, err := c.h.do("POST", "/sessions/"+sess.id+"/plans", "application/json", []byte(plan))
	if err != nil || status != http.StatusAccepted {
		return fail(fmt.Errorf("submit: status %d: %v %s", status, err, firstLine(data)))
	}
	loc := strings.TrimPrefix(hdr.Get("Location"), "/api/v1")
	var run struct {
		State     string       `json:"state"`
		Error     string       `json:"error"`
		CreatedAt time.Time    `json:"created_at"`
		StartedAt *time.Time   `json:"started_at"`
		Events    []stageEvent `json:"events"`
	}
	for deadline := t0.Add(30 * time.Second); ; time.Sleep(planPoll) {
		status, data, _, err := c.h.do("GET", loc, "", nil)
		if err != nil || status != http.StatusOK {
			return fail(fmt.Errorf("poll: status %d: %v", status, err))
		}
		if err := json.Unmarshal(data, &run); err != nil {
			return fail(err)
		}
		if run.State == "succeeded" {
			break
		}
		if run.State == "failed" || run.State == "cancelled" || time.Now().After(deadline) {
			return fail(fmt.Errorf("run ended %s: %s", run.State, run.Error))
		}
	}
	c.ph.s.observe("plan", msSince(t0))
	if run.StartedAt != nil {
		c.ph.s.observe("queue_wait", float64(run.StartedAt.Sub(run.CreatedAt))/1e6)
	}
	for _, ev := range run.Events {
		c.ph.s.add("stages", 1)
		c.ph.s.add("steps", float64(ev.Steps))
		c.ph.s.observe("core:"+ev.Stage, float64(ev.DurationNs)/1e6)
		sess.ackedSeq = max(sess.ackedSeq, ev.Seq)
		sess.steps += ev.Steps
	}
	c.ph.maxSteps = max(c.ph.maxSteps, sess.steps)
	return nil
}

// churnReads is the rotation of reads a serve_read_churn cycle performs.
var churnReads = []string{"result", "state", "export_csv", "export_jsonl", "suggestions", "list"}

// churnCycle is one serve_read_churn session: wrangle once, read many times,
// then round-trip the session through export, delete and import.
func (c *svcClient) churnCycle(index int) error {
	p := c.run.p
	seed := cycleSeed(c.run.cfg.seed, c.id, index)
	n := p.sizes[index%len(p.sizes)]
	blank := p.blankEvery > 0 && index%p.blankEvery == p.blankEvery-1
	rec := CycleRecord{Client: c.id, Index: index, Seed: seed, N: n, Blank: blank}
	trace := rec.key()
	cycle := c.tr.open(0, trace, "cycle")
	defer func() { c.tr.close(cycle, map[string]any{"seed": seed, "n": n, "blank": blank}) }()

	sc := scenario(n, seed)
	var sess *ackedSession
	var err error
	if blank {
		// Real data in: the scenario's sources and address context, rendered
		// to CSV here and ingested through the connector stage.
		if sess, err = c.create(cycle, trace, n, map[string]any{"name": trace, "blank": true}); err != nil {
			return err
		}
		for _, in := range []struct {
			rel  string
			role string
			csv  func() ([]byte, error)
		}{
			{"rightmove", connect.RoleSource, func() ([]byte, error) { return renderCSV(sc.Rightmove) }},
			{"deprivation", connect.RoleSource, func() ([]byte, error) { return renderCSV(sc.Deprivation) }},
			{"address", connect.RoleContext, func() ([]byte, error) { return renderCSV(sc.AddressRef) }},
		} {
			csv, err := in.csv()
			if err != nil {
				return err
			}
			payload, err := json.Marshal(connect.IngestPayload{Relation: in.rel, Role: in.role, Data: string(csv)})
			if err != nil {
				return err
			}
			if err := c.stage(cycle, trace, sess, "ingest", payload); err != nil {
				return err
			}
		}
	} else {
		if sess, err = c.create(cycle, trace, n, map[string]any{"name": trace, "n": n, "seed": seed}); err != nil {
			return err
		}
		if err := c.stage(cycle, trace, sess, "bootstrap", nil); err != nil {
			return err
		}
	}

	paths := map[string]string{
		"result":       "/sessions/" + sess.id + "/result?limit=100",
		"state":        "/sessions/" + sess.id,
		"export_csv":   "/sessions/" + sess.id + "/export/result?format=csv",
		"export_jsonl": "/sessions/" + sess.id + "/export/result?format=jsonl",
		"suggestions":  "/sessions/" + sess.id + "/suggestions",
		"list":         "/sessions",
	}
	var before string
	for i := 0; i < p.reads; i++ {
		kind := churnReads[i%len(churnReads)]
		body, err := c.read(cycle, trace, kind, paths[kind])
		if err != nil {
			return err
		}
		if kind == "export_csv" {
			before = digest(body)
		}
	}

	envelope, _, _, err := c.call(cycle, trace, "export", "GET", "/sessions/"+sess.id+"/export", "", nil, http.StatusOK)
	if err != nil {
		return err
	}
	c.ph.s.observe("envelope_kb", float64(len(envelope))/1024)
	if err := c.delete(cycle, trace, sess); err != nil {
		return err
	}
	if _, _, _, err := c.call(cycle, trace, "import", "POST", "/sessions/import", "application/octet-stream", envelope, http.StatusCreated); err != nil {
		return err
	}
	c.run.track(sess)
	if err := c.finishCycle(cycle, rec, sess, sc); err != nil {
		return err
	}
	if sess.ackedDigest != before {
		c.ph.failed++
		c.ph.problem("%s: result digest %s after import, %s before export", trace, sess.ackedDigest, before)
	}
	return c.delete(cycle, trace, sess)
}

// recoveryRound is one kill -9 → restart → verify pass.
type recoveryRound struct {
	readyMs  float64 // process start → healthz answers
	totalMs  float64 // process start → every expected session has answered
	expected int
	lost     int
}

// finish completes a serve_feedback run: the single-client plan probe, the
// data-directory census, and the kill -9 rounds against the ack model.
func (r *serviceRun) finish(ph *phase) {
	defer r.srv.kill()
	if r.cfg.workload != "serve_feedback" {
		return
	}
	if r.cfg.trace {
		r.planProbe(ph)
	}

	r.mu.Lock()
	expected := make([]*ackedSession, 0, len(r.live))
	resultBytes := 0
	for _, s := range r.live {
		expected = append(expected, s)
		resultBytes += s.resultBytes
	}
	r.mu.Unlock()
	sort.Slice(expected, func(i, j int) bool { return expected[i].id < expected[j].id })
	stored := dirBytes(r.srv.dataDir)
	ph.s.add("data_dir_kb_per_live_session", ratio(float64(stored)/1024, float64(len(expected))))
	ph.s.add("stored_bytes_per_result_byte", ratio(float64(stored), float64(resultBytes)))

	lost := map[string]bool{}
	for round := 0; round < r.p.killRounds; round++ {
		r.srv.kill()
		rr, err := r.recoverOnce(expected, lost, ph)
		if err != nil {
			ph.problem("recovery round %d: %v", round+1, err)
			return
		}
		r.recoveries = append(r.recoveries, rr)
	}
	for key := range lost {
		r.lost = append(r.lost, key)
	}
	sort.Strings(r.lost)
}

// planProbe measures what one plan costs the journal with nothing else
// running: the fsync counter is global, so it can only be attributed while
// a single client is active.
func (r *serviceRun) planProbe(ph *phase) {
	cl := &svcClient{id: 0, run: r, h: newHTTPC(r.srv.base()), ph: &phase{s: newSamples()}}
	err := func() error {
		sess, err := cl.create(0, "probe", r.p.sizes[0], map[string]any{"n": r.p.sizes[0], "seed": cycleSeed(r.cfg.seed, 0, -2)})
		if err != nil {
			return err
		}
		defer cl.delete(0, "probe", sess)
		if err := cl.stage(0, "probe", sess, "bootstrap", nil); err != nil {
			return err
		}
		before, err := r.metricz()
		if err != nil {
			return err
		}
		if err := cl.plan(0, "probe", sess, `{"stages":[{"stage":"data-context"},{"stage":"user-context","payload":{"model":"size"}},{"stage":"quality-report"}]}`); err != nil {
			return err
		}
		after, err := r.metricz()
		if err != nil {
			return err
		}
		ph.s.add("fsyncs_per_plan", after["persist_fsync_total"]-before["persist_fsync_total"])
		return nil
	}()
	if err != nil {
		ph.problem("plan probe: %v", err)
	}
}

// recoverOnce restarts the killed server on the same data directory and
// checks every session of the ack model: it must exist, hold at least the
// acknowledged events, and serve the acknowledged result. This is a process
// crash only; power loss (unflushed pages discarded) is out of scope until
// the journal has a fault-injection seam.
func (r *serviceRun) recoverOnce(expected []*ackedSession, lost map[string]bool, ph *phase) (recoveryRound, error) {
	rr := recoveryRound{expected: len(expected)}
	t0 := time.Now()
	if err := r.srv.start(); err != nil {
		return rr, err
	}
	rr.readyMs = msSince(t0)
	h := newHTTPC(r.srv.base())
	for _, s := range expected {
		why := ""
		status, body, _, err := h.do("GET", "/sessions/"+s.id, "", nil)
		var st struct {
			Events []stageEvent `json:"events"`
		}
		switch {
		case err != nil:
			return rr, err
		case status != http.StatusOK:
			why = fmt.Sprintf("status %d", status)
		case json.Unmarshal(body, &st) != nil:
			why = "undecodable state"
		case len(st.Events) < s.ackedSeq:
			why = fmt.Sprintf("%d events, %d acknowledged", len(st.Events), s.ackedSeq)
		case s.ackedDigest != "":
			status, csv, _, err := h.do("GET", "/sessions/"+s.id+"/export/result?format=csv", "", nil)
			if err != nil {
				return rr, err
			}
			if status != http.StatusOK || digest(csv) != s.ackedDigest {
				why = fmt.Sprintf("result status %d digest %s, acknowledged %s", status, digest(csv), s.ackedDigest)
			}
		}
		if why == "" {
			continue
		}
		rr.lost++
		entry := fmt.Sprintf("%s (%s): %s", s.id, s.key, why)
		if lost[entry] {
			continue
		}
		lost[entry] = true
		// A 201 is not a durability acknowledgement on today's server (the
		// baseline snapshot waits for the first journaled record), so a
		// session with no acknowledged stage may vanish; it lowers the
		// survival ratio but is not a failed operation. Anything the server
		// acknowledged a stage for must survive.
		if s.ackedSeq > 0 {
			ph.failed++
			ph.problem("lost after kill -9: %s", entry)
		}
	}
	rr.totalMs = msSince(t0)
	return rr, nil
}

func firstLine(b []byte) string {
	s, _, _ := strings.Cut(strings.TrimSpace(string(b)), "\n")
	if len(s) > 160 {
		s = s[:160]
	}
	return s
}
