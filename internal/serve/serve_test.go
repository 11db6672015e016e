package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path"
	"testing"
	"time"

	"mdm/internal/serve"
	"mdm/internal/store"
)

// testConfig is a small, fast manager over an in-memory filesystem: one
// executor, tight checkpoint cadence, short admission wait.
func testConfig(fsys store.FS) serve.Config {
	return serve.Config{
		Root:            "data",
		FS:              fsys,
		Executors:       1,
		QueueDepth:      8,
		AdmitWait:       25 * time.Millisecond,
		CheckpointEvery: 2,
		RetryAfter:      2 * time.Second,
	}
}

// refSpec is a cheap reference-backend job.
func refSpec(tenant string, seed int64, steps int) serve.JobSpec {
	return serve.JobSpec{Tenant: tenant, Cells: 2, Steps: steps, Seed: seed, Backend: "reference"}
}

// waitState polls until the session reaches want (or fails the test).
func waitState(t *testing.T, m *serve.Manager, id, want string) serve.Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		s, ok := m.Session(id)
		if !ok {
			t.Fatalf("session %s disappeared", id)
		}
		st := s.Status()
		if st.State == want {
			return st
		}
		if terminal(st.State) && st.State != want {
			t.Fatalf("session %s reached %s (err %s: %s), want %s", id, st.State, st.ErrKind, st.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("session %s never reached %s", id, want)
	return serve.Status{}
}

func terminal(state string) bool {
	return state == serve.StateDone || state == serve.StateFailed || state == serve.StateCanceled
}

// The admission ladder's quota rung: over-quota submits answer 429 with a
// Retry-After hint, both programmatically and over HTTP.
func TestServeAdmissionQuota(t *testing.T) {
	cfg := testConfig(store.NewFaultFS(nil))
	cfg.Executors = -1 // freeze the queue: everything stays queued
	cfg.Quota = serve.Quota{MaxSessions: 2}
	m, err := serve.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := m.Submit(ctx, refSpec("alice", int64(i+1), 4)); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	_, err = m.Submit(ctx, refSpec("alice", 9, 4))
	var adm *serve.AdmissionError
	if !asAdmission(err, &adm) || adm.Code != http.StatusTooManyRequests || adm.Reason != serve.ReasonQuotaSessions {
		t.Fatalf("over-quota submit: %v, want 429 %s", err, serve.ReasonQuotaSessions)
	}
	if adm.RetryAfter <= 0 {
		t.Fatalf("over-quota submit carries no Retry-After: %+v", adm)
	}
	// Another tenant is unaffected: quotas isolate tenants from each other.
	if _, err := m.Submit(ctx, refSpec("bob", 1, 4)); err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}

	// The same rejection over HTTP: 429 + Retry-After header.
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	resp := post(t, srv.URL+"/v1/sessions", `{"tenant":"alice","steps":4,"backend":"reference"}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("HTTP over-quota status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response carries no Retry-After header")
	}
	var body struct {
		Reason string `json:"reason"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Reason != serve.ReasonQuotaSessions {
		t.Fatalf("429 body reason = %q (%v), want %s", body.Reason, err, serve.ReasonQuotaSessions)
	}
}

// A full queue blocks the submit for the bounded AdmitWait, then rejects
// typed queue-full — it does not block indefinitely and it does not drop the
// session silently.
func TestServeAdmissionQueueFullBoundedWait(t *testing.T) {
	cfg := testConfig(store.NewFaultFS(nil))
	cfg.Executors = -1
	cfg.QueueDepth = 1
	m, err := serve.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	ctx := context.Background()
	if _, err := m.Submit(ctx, refSpec("alice", 1, 4)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = m.Submit(ctx, refSpec("alice", 2, 4))
	elapsed := time.Since(start)
	var adm *serve.AdmissionError
	if !asAdmission(err, &adm) || adm.Code != http.StatusServiceUnavailable || adm.Reason != serve.ReasonQueueFull {
		t.Fatalf("queue-full submit: %v, want 503 %s", err, serve.ReasonQueueFull)
	}
	if elapsed < cfg.AdmitWait {
		t.Fatalf("rejected after %v, before the bounded wait of %v", elapsed, cfg.AdmitWait)
	}
}

// MaxParticleSteps is a lifetime budget: once a tenant has spent it, further
// submits answer 429 regardless of session count.
func TestServeAdmissionParticleStepBudget(t *testing.T) {
	cfg := testConfig(store.NewFaultFS(nil))
	cfg.Executors = -1
	// 64 ions × 4 steps = 256 particle-steps per session; budget fits two.
	cfg.Quota = serve.Quota{MaxParticleSteps: 600}
	m, err := serve.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := m.Submit(ctx, refSpec("alice", int64(i+1), 4)); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	_, err = m.Submit(ctx, refSpec("alice", 9, 4))
	var adm *serve.AdmissionError
	if !asAdmission(err, &adm) || adm.Reason != serve.ReasonQuotaBudget {
		t.Fatalf("over-budget submit: %v, want 429 %s", err, serve.ReasonQuotaBudget)
	}
}

// A tenant whose sessions keep failing is quarantined by its circuit
// breaker: its submits answer 503 while other tenants stay admitted. The
// server survives the failures; only the tenant is isolated. Under the fixed
// breaker policy the third failure inside 20 admission ticks opens it, for 8
// ticks: the three failed sessions spend six, the rejected submit, the
// innocent one and its completion three more.
func TestServeBreakerQuarantinesTenant(t *testing.T) {
	cfg := testConfig(store.NewFaultFS(nil))
	m, err := serve.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	ctx := context.Background()
	// run:fatal is an injected unrecoverable host fault: the session fails.
	bad := serve.JobSpec{Tenant: "mallory", Cells: 2, Steps: 6, Seed: 1,
		Backend: "mdm", Faults: "run:fatal@step=2"}
	for i := 0; i < 3; i++ {
		s, err := m.Submit(ctx, bad)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		st := waitState(t, m, s.ID, serve.StateFailed)
		if st.ErrKind == "" {
			t.Fatalf("failed session has no typed error kind: %+v", st)
		}
	}
	_, err = m.Submit(ctx, bad)
	var adm *serve.AdmissionError
	if !asAdmission(err, &adm) || adm.Code != http.StatusServiceUnavailable || adm.Reason != serve.ReasonQuarantined {
		t.Fatalf("quarantined submit: %v, want 503 %s", err, serve.ReasonQuarantined)
	}
	// The quarantine is the tenant's, not the server's.
	s, err := m.Submit(ctx, refSpec("alice", 1, 4))
	if err != nil {
		t.Fatalf("innocent tenant rejected: %v", err)
	}
	waitState(t, m, s.ID, serve.StateDone)
	if got := m.Metrics().Breakers["mallory"]; got != "open" {
		t.Fatalf("metrics report mallory breaker %q, want open", got)
	}
}

// Drain stops admission, interrupts the running session at a committed step,
// and reports it; a new manager over the same filesystem resumes and
// finishes it.
func TestServeDrainInterruptsAndRestartResumes(t *testing.T) {
	fsys := store.NewFaultFS(nil)
	cfg := testConfig(fsys)
	m, err := serve.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	s, err := m.Submit(ctx, refSpec("alice", 1, 60))
	if err != nil {
		t.Fatal(err)
	}
	// Let it make some progress first, so the drain interrupts mid-run.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if st := s.Status(); st.StepsDone >= 2 && st.State == serve.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session never started: %+v", s.Status())
		}
		time.Sleep(2 * time.Millisecond)
	}
	sum := m.Drain()
	if len(sum.Interrupted) != 1 || sum.Interrupted[0] != s.ID {
		t.Fatalf("drain summary interrupted = %v, want [%s]", sum.Interrupted, s.ID)
	}
	if sum.Sessions[serve.StateQueued] != 1 {
		t.Fatalf("drain summary sessions = %v, want 1 queued", sum.Sessions)
	}
	st := s.Status()
	if st.State != serve.StateQueued || st.StepsDone == 0 || st.StepsDone >= 60 {
		t.Fatalf("drained session status = %+v, want queued mid-run", st)
	}
	// Draining managers reject new submits typed "draining".
	_, err = m.Submit(ctx, refSpec("bob", 1, 4))
	var adm *serve.AdmissionError
	if !asAdmission(err, &adm) || adm.Reason != serve.ReasonDraining {
		t.Fatalf("submit during drain: %v, want 503 %s", err, serve.ReasonDraining)
	}

	// Restart: the sweep re-enqueues the interrupted session and it runs to
	// completion from its committed step.
	m2, err := serve.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	fin := waitState(t, m2, s.ID, serve.StateDone)
	if fin.StepsDone != 60 {
		t.Fatalf("resumed session finished at step %d, want 60", fin.StepsDone)
	}
}

// Pause checkpoints and parks the session (surviving restarts as paused);
// resume re-enqueues it; cancel on a terminal session conflicts.
func TestServePauseResumeCancel(t *testing.T) {
	fsys := store.NewFaultFS(nil)
	cfg := testConfig(fsys)
	m, err := serve.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	s, err := m.Submit(ctx, refSpec("alice", 1, 60))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for s.Status().StepsDone < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("session never progressed: %+v", s.Status())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := m.Pause(s.ID); err != nil {
		t.Fatal(err)
	}
	st := waitState(t, m, s.ID, serve.StatePaused)
	if st.StepsDone == 0 || st.StepsDone >= 60 {
		t.Fatalf("paused at step %d, want mid-run", st.StepsDone)
	}

	// A paused session survives a restart as paused — it does not self-resume.
	m.Close()
	m2, err := serve.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got := mustStatus(t, m2, s.ID); got.State != serve.StatePaused {
		t.Fatalf("after restart, paused session is %s", got.State)
	}

	if err := m2.Resume(ctx, s.ID); err != nil {
		t.Fatal(err)
	}
	fin := waitState(t, m2, s.ID, serve.StateDone)
	if fin.StepsDone != 60 {
		t.Fatalf("resumed to step %d, want 60", fin.StepsDone)
	}
	err = m2.Cancel(s.ID)
	var op *serve.OpError
	if !asOp(err, &op) || op.Code != http.StatusConflict {
		t.Fatalf("cancel of done session: %v, want 409", err)
	}
}

// The HTTP surface end to end: submit, status, observables, metrics,
// healthz, and the typed 400 for a malformed spec.
// The daemon's one http.Server carries all four I/O deadlines: a client that
// opens a connection and goes silent, or never reads its response, cannot pin
// a goroutine.
func TestServerSetsIODeadlines(t *testing.T) {
	m, err := serve.Open(testConfig(store.NewFaultFS(nil)))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	srv := m.Server("127.0.0.1:0")
	for name, d := range map[string]time.Duration{
		"ReadHeaderTimeout": srv.ReadHeaderTimeout,
		"ReadTimeout":       srv.ReadTimeout,
		"WriteTimeout":      srv.WriteTimeout,
		"IdleTimeout":       srv.IdleTimeout,
	} {
		if d <= 0 {
			t.Errorf("%s = %v, want > 0", name, d)
		}
	}
}

func TestServeHTTPEndpoints(t *testing.T) {
	cfg := testConfig(store.NewFaultFS(nil))
	m, err := serve.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	resp := post(t, srv.URL+"/v1/sessions", `{"tenant":"alice","cells":2,"steps":6,"backend":"reference"}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit status = %d, want 201", resp.StatusCode)
	}
	var st serve.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState(t, m, st.ID, serve.StateDone)

	var got serve.Status
	getJSON(t, srv.URL+"/v1/sessions/"+st.ID, &got)
	if got.State != serve.StateDone || got.StepsDone != 6 {
		t.Fatalf("status = %+v, want done at step 6", got)
	}

	var obs struct {
		Records []struct {
			Step int     `json:"Step"`
			T    float64 `json:"T"`
		} `json:"records"`
	}
	getJSON(t, srv.URL+"/v1/sessions/"+st.ID+"/observables?since=3", &obs)
	if len(obs.Records) != 3 || obs.Records[0].Step != 4 || obs.Records[0].T == 0 {
		t.Fatalf("observables since=3: %+v, want steps 4..6 with temperatures", obs.Records)
	}

	var health map[string]string
	getJSON(t, srv.URL+"/healthz", &health)
	if health["status"] != "ok" {
		t.Fatalf("healthz = %v", health)
	}
	var metrics serve.Metrics
	getJSON(t, srv.URL+"/metrics", &metrics)
	if metrics.Sessions[serve.StateDone] != 1 || metrics.FsyncCount == 0 {
		t.Fatalf("metrics = %+v, want 1 done session and fsync telemetry", metrics)
	}
	// One journal commit per step; a stall is a join that had to wait.
	if metrics.Commits != 6 || metrics.CommitStalls > metrics.Commits {
		t.Fatalf("metrics = %+v, want 6 commits and at most 6 commit stalls", metrics)
	}

	resp = post(t, srv.URL+"/v1/sessions", `{"tenant":"","steps":0}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed spec status = %d, want 400", resp.StatusCode)
	}
	// A spec the library would run without what it asks for is malformed too:
	// the reference backend has no hardware to inject faults into or watch.
	resp = post(t, srv.URL+"/v1/sessions",
		`{"tenant":"alice","steps":4,"backend":"reference","faults":"mdg:hang@step=4","watchdog_ms":250}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("reference backend with faults and a watchdog: status = %d, want 400", resp.StatusCode)
	}
	// So is a fault clause the run would never fire: a session has no MPI
	// world to drop a message in.
	resp = post(t, srv.URL+"/v1/sessions", `{"tenant":"alice","steps":4,"faults":"mpi:drop@src=1,dst=0,n=1"}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mpi fault clause without ranks: status = %d, want 400", resp.StatusCode)
	}
	resp = post(t, srv.URL+"/v1/sessions/nope/cancel", ``)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session cancel = %d, want 404", resp.StatusCode)
	}
}

// A damaged session manifest surfaces as a typed failed session after the
// sweep, not a crashed or silently-shrunk server.
func TestServeSweepDamagedManifest(t *testing.T) {
	fsys := store.NewFaultFS(nil)
	cfg := testConfig(fsys)
	m, err := serve.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	s, err := m.Submit(ctx, refSpec("alice", 1, 4))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, s.ID, serve.StateDone)
	m.Close()

	manPath := path.Join("data", "alice", s.ID, "session.json")
	if err := store.WriteFileAtomic(fsys, manPath, []byte("not json")); err != nil {
		t.Fatal(err)
	}
	m2, err := serve.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	st := mustStatus(t, m2, s.ID)
	if st.State != serve.StateFailed || st.ErrKind != "manifest" {
		t.Fatalf("damaged-manifest session = %+v, want failed/manifest", st)
	}
}

// A session past its deadline stops at the next committed step and fails
// typed "deadline" — the server-side budget, not the client, ends it.
func TestServeSessionDeadline(t *testing.T) {
	cfg := testConfig(store.NewFaultFS(nil))
	m, err := serve.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	spec := refSpec("alice", 1, 100000-1)
	spec.DeadlineMs = 50
	s, err := m.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, m, s.ID, serve.StateFailed)
	if st.ErrKind != "deadline" {
		t.Fatalf("deadline session err kind = %q, want deadline", st.ErrKind)
	}
	if st.StepsDone >= spec.Steps {
		t.Fatalf("deadline session ran to completion (%d steps)", st.StepsDone)
	}
}

func mustStatus(t *testing.T, m *serve.Manager, id string) serve.Status {
	t.Helper()
	s, ok := m.Session(id)
	if !ok {
		t.Fatalf("session %s not registered", id)
	}
	return s.Status()
}

func asAdmission(err error, target **serve.AdmissionError) bool {
	if err == nil {
		return false
	}
	a, ok := err.(*serve.AdmissionError)
	if ok {
		*target = a
	}
	return ok
}

func asOp(err error, target **serve.OpError) bool {
	if err == nil {
		return false
	}
	o, ok := err.(*serve.OpError)
	if ok {
		*target = o
	}
	return ok
}

func post(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}
