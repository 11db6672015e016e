package serve

import (
	"context"
	"fmt"
	"net/http"
	"time"
)

// AdmissionError is a typed submit rejection. The HTTP layer turns it into
// Code + a Retry-After header; programmatic callers branch on Reason.
type AdmissionError struct {
	// Code is the HTTP status the rejection maps to: 429 for quota
	// violations (the tenant can shed load and retry), 503 for server-side
	// conditions (queue full, draining, tenant quarantined).
	Code int
	// Reason is the machine-readable rejection class.
	Reason string
	// RetryAfter is the client back-off hint.
	RetryAfter time.Duration
	msg        string
}

// Admission rejection reasons.
const (
	ReasonQuotaSessions = "quota-sessions"
	ReasonQuotaQueued   = "quota-queued"
	ReasonQuotaBudget   = "quota-particle-steps"
	ReasonQueueFull     = "queue-full"
	ReasonDraining      = "draining"
	ReasonQuarantined   = "quarantined"
)

//mdm:hotallocok -- admission-rejection formatting: runs on the submit path, never inside the integrator step loop; marked hot only via error-interface fan-out
func (e *AdmissionError) Error() string {
	return fmt.Sprintf("serve: admission rejected (%s): %s", e.Reason, e.msg)
}

func (m *Manager) reject(code int, reason, format string, args ...any) *AdmissionError {
	return &AdmissionError{
		Code: code, Reason: reason, RetryAfter: m.cfg.RetryAfter,
		msg: fmt.Sprintf(format, args...),
	}
}

// ValidationError is a submit rejected for a malformed spec (HTTP 400): no
// amount of retrying will admit it.
type ValidationError struct{ msg string }

//mdm:hotallocok -- spec-validation formatting: runs on the submit path, never inside the integrator step loop; marked hot only via error-interface fan-out
func (e *ValidationError) Error() string { return "serve: invalid spec: " + e.msg }

func validate(spec JobSpec, maxSteps int) error {
	switch {
	case spec.Tenant == "":
		return &ValidationError{"tenant is required"}
	case spec.Steps <= 0:
		return &ValidationError{"steps must be positive"}
	case spec.Steps > maxSteps:
		return &ValidationError{fmt.Sprintf("steps %d exceeds the server budget of %d", spec.Steps, maxSteps)}
	case spec.Cells < 0 || spec.Cells > 8:
		return &ValidationError{"cells must be in [1, 8]"}
	case spec.WatchdogMs < 0 || spec.DeadlineMs < 0:
		return &ValidationError{"watchdog_ms and deadline_ms must be non-negative"}
	}
	// What the backend composes with is the library's rule, checked here so
	// the tenant hears 400 instead of getting a run without what it asked for.
	cfg, err := spec.config()
	if err == nil {
		err = cfg.Validate()
	}
	if err != nil {
		return &ValidationError{err.Error()}
	}
	return nil
}

// Submit runs the admission ladder for spec and, if every rung passes,
// durably registers a new session and enqueues it:
//
//  1. spec validation (400 — retrying is pointless),
//  2. drain check (503 draining),
//  3. tenant circuit breaker (503 quarantined: this tenant's recent sessions
//     kept failing; the server stays open for everyone else),
//  4. tenant quotas (429 with Retry-After),
//  5. bounded queue wait (at most AdmitWait, also bounded by ctx; 503
//     queue-full on timeout).
//
// The session is durable (index + manifest committed) before Submit returns;
// a crash after that resumes it, a crash before it never existed.
func (m *Manager) Submit(ctx context.Context, spec JobSpec) (*Session, error) {
	if err := validate(spec, m.cfg.MaxSessionSteps); err != nil {
		return nil, err
	}
	if m.draining.Load() {
		return nil, m.reject(http.StatusServiceUnavailable, ReasonDraining, "server is draining")
	}
	tick := int(m.tick.Add(1))
	if !m.breakers.Allow(spec.Tenant, tick) {
		return nil, m.reject(http.StatusServiceUnavailable, ReasonQuarantined,
			"tenant %s is quarantined after repeated failures", spec.Tenant)
	}

	m.mu.Lock()
	if err := m.checkQuota(spec); err != nil {
		m.mu.Unlock()
		return nil, err
	}
	m.nextID++
	s := &Session{
		ID:     fmt.Sprintf("s%04d", m.nextID),
		Tenant: spec.Tenant,
		Spec:   spec,
		mgr:    m,
		state:  StateQueued,
	}
	s.dir = m.sessionDir(s.Tenant, s.ID)
	if spec.DeadlineMs > 0 {
		s.deadline = time.Now().Add(time.Duration(spec.DeadlineMs) * time.Millisecond)
	}
	// Registration order: manifest first, then the index that makes the
	// session discoverable. A crash between the two leaves an orphaned
	// manifest no sweep will read — invisible, exactly like a crash before
	// either write.
	if err := m.fsys.MkdirAll(s.dir); err != nil {
		m.mu.Unlock()
		return nil, fmt.Errorf("serve: session dir: %w", err)
	}
	if err := s.persistManifest(manifestActive); err != nil {
		m.mu.Unlock()
		return nil, fmt.Errorf("serve: manifest: %w", err)
	}
	m.index.Sessions = append(m.index.Sessions, indexEntry{Tenant: s.Tenant, ID: s.ID})
	if err := m.persistIndex(); err != nil {
		m.index.Sessions = m.index.Sessions[:len(m.index.Sessions)-1]
		m.mu.Unlock()
		return nil, fmt.Errorf("serve: index: %w", err)
	}
	m.sessions[s.ID] = s
	m.used[spec.Tenant] += particleSteps(spec)
	m.mu.Unlock()

	if err := m.enqueue(ctx, s); err != nil {
		// The session is durable but has no queue slot; mark it canceled so
		// it neither runs now nor resurrects on restart.
		s.finish(StateCanceled, manifestCanceled, "", "")
		return nil, err
	}
	return s, nil
}

// checkQuota enforces the tenant quotas. Callers hold m.mu.
func (m *Manager) checkQuota(spec JobSpec) error {
	q := m.cfg.Quota
	live, queued := 0, 0
	for _, s := range m.sessions {
		if s.Tenant != spec.Tenant {
			continue
		}
		s.mu.Lock()
		switch s.state {
		case StateQueued:
			live++
			queued++
		case StateRunning, StatePaused:
			live++
		}
		s.mu.Unlock()
	}
	switch {
	case q.MaxSessions > 0 && live >= q.MaxSessions:
		return m.reject(http.StatusTooManyRequests, ReasonQuotaSessions,
			"tenant %s has %d live sessions (max %d)", spec.Tenant, live, q.MaxSessions)
	case q.MaxQueued > 0 && queued >= q.MaxQueued:
		return m.reject(http.StatusTooManyRequests, ReasonQuotaQueued,
			"tenant %s has %d queued sessions (max %d)", spec.Tenant, queued, q.MaxQueued)
	case q.MaxParticleSteps > 0 && m.used[spec.Tenant]+particleSteps(spec) > q.MaxParticleSteps:
		return m.reject(http.StatusTooManyRequests, ReasonQuotaBudget,
			"tenant %s would exceed its particle-step budget of %d", spec.Tenant, q.MaxParticleSteps)
	}
	return nil
}

// enqueue places s on the admission queue, waiting at most AdmitWait (and no
// longer than the request context allows).
func (m *Manager) enqueue(ctx context.Context, s *Session) error {
	wait := time.NewTimer(m.cfg.AdmitWait)
	defer wait.Stop()
	select {
	case m.queue <- s:
		return nil
	case <-ctx.Done():
		return m.reject(http.StatusServiceUnavailable, ReasonQueueFull,
			"request canceled while waiting for a queue slot")
	case <-wait.C:
		return m.reject(http.StatusServiceUnavailable, ReasonQueueFull,
			"admission queue full for %v", m.cfg.AdmitWait)
	case <-m.stop:
		return m.reject(http.StatusServiceUnavailable, ReasonDraining, "server is draining")
	}
}

// OpError is a session-operation rejection (pause/resume/cancel in the wrong
// state, unknown session).
type OpError struct {
	Code int
	msg  string
}

//mdm:hotallocok -- session-operation rejection formatting: runs on the HTTP path, never inside the integrator step loop; marked hot only via error-interface fan-out
func (e *OpError) Error() string { return "serve: " + e.msg }

// Pause asks a running session to stop at its next committed step and
// checkpoint; a queued session pauses immediately (it gives up its place in
// line). Paused sessions survive restarts as paused.
func (m *Manager) Pause(id string) error {
	s, ok := m.Session(id)
	if !ok {
		return &OpError{http.StatusNotFound, "no such session " + id}
	}
	s.mu.Lock()
	state := s.state
	if state == StateQueued {
		s.state = StatePaused
	}
	s.mu.Unlock()
	switch state {
	case StateQueued:
		return s.persistManifest(manifestPaused)
	case StateRunning:
		s.requestStop(stopPause)
		return nil
	default:
		return &OpError{http.StatusConflict, fmt.Sprintf("session %s is %s, not pausable", id, state)}
	}
}

// Resume re-enqueues a paused session.
func (m *Manager) Resume(ctx context.Context, id string) error {
	if m.draining.Load() {
		return m.reject(http.StatusServiceUnavailable, ReasonDraining, "server is draining")
	}
	s, ok := m.Session(id)
	if !ok {
		return &OpError{http.StatusNotFound, "no such session " + id}
	}
	s.mu.Lock()
	if s.state != StatePaused {
		state := s.state
		s.mu.Unlock()
		return &OpError{http.StatusConflict, fmt.Sprintf("session %s is %s, not paused", id, state)}
	}
	s.state = StateQueued
	s.mu.Unlock()
	s.stop.Store(stopNone)
	if err := s.persistManifest(manifestActive); err != nil {
		return err
	}
	if err := m.enqueue(ctx, s); err != nil {
		// Back to paused: the session stays resumable.
		s.mu.Lock()
		s.state = StatePaused
		s.mu.Unlock()
		if perr := s.persistManifest(manifestPaused); perr != nil {
			return perr
		}
		return err
	}
	return nil
}

// Cancel terminates a session: queued and paused sessions cancel
// immediately, running ones at their next committed step. Terminal sessions
// conflict.
func (m *Manager) Cancel(id string) error {
	s, ok := m.Session(id)
	if !ok {
		return &OpError{http.StatusNotFound, "no such session " + id}
	}
	s.mu.Lock()
	state := s.state
	if state == StateQueued || state == StatePaused {
		s.state = StateCanceled
	}
	s.mu.Unlock()
	switch state {
	case StateQueued, StatePaused:
		return s.persistManifest(manifestCanceled)
	case StateRunning:
		s.requestStop(stopCancel)
		return nil
	default:
		return &OpError{http.StatusConflict, fmt.Sprintf("session %s is already %s", id, state)}
	}
}
