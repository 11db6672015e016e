package serve

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// errorBody is the JSON error envelope every non-2xx response carries.
type errorBody struct {
	Error  string `json:"error"`
	Reason string `json:"reason,omitempty"`
}

// Handler returns the service's HTTP API:
//
//	POST /v1/sessions                    submit a JobSpec → 201 Status
//	GET  /v1/sessions/{id}               session status
//	GET  /v1/sessions/{id}/observables   samples (?since=<step>)
//	POST /v1/sessions/{id}/pause
//	POST /v1/sessions/{id}/resume
//	POST /v1/sessions/{id}/cancel
//	GET  /healthz
//	GET  /metrics                        sessions, queue, breakers, fsync latency, commits / commit_stalls
//
// Rejections are typed: quota violations answer 429 with Retry-After;
// queue-full, draining and quarantined answer 503 with Retry-After; malformed
// specs answer 400. Session failures expose their typed kind in Status.
func (m *Manager) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", m.handleSubmit)
	mux.HandleFunc("GET /v1/sessions/{id}", m.handleStatus)
	mux.HandleFunc("GET /v1/sessions/{id}/observables", m.handleObservables)
	mux.HandleFunc("POST /v1/sessions/{id}/pause", m.handlePause)
	mux.HandleFunc("POST /v1/sessions/{id}/resume", m.handleResume)
	mux.HandleFunc("POST /v1/sessions/{id}/cancel", m.handleCancel)
	mux.HandleFunc("GET /healthz", m.handleHealthz)
	mux.HandleFunc("GET /metrics", m.handleMetrics)
	return mux
}

// Server wraps Handler in an http.Server with the I/O deadlines a
// long-lived daemon needs: without ReadHeaderTimeout a client that opens a
// connection and goes silent pins a goroutine forever.
func (m *Manager) Server(addr string) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           m.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := encodeJSON(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(append(data, '\n'))
}

// writeError maps the serve error taxonomy onto HTTP: AdmissionError carries
// its own status and Retry-After, ValidationError is 400, OpError carries
// its status, anything else is 500.
func writeError(w http.ResponseWriter, err error) {
	var adm *AdmissionError
	var val *ValidationError
	var op *OpError
	switch {
	case errors.As(err, &adm):
		w.Header().Set("Retry-After", strconv.Itoa(int((adm.RetryAfter+time.Second-1)/time.Second)))
		writeJSON(w, adm.Code, errorBody{Error: adm.Error(), Reason: adm.Reason})
	case errors.As(err, &val):
		writeJSON(w, http.StatusBadRequest, errorBody{Error: val.Error()})
	case errors.As(err, &op):
		writeJSON(w, op.Code, errorBody{Error: op.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
	}
}

func (m *Manager) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	buf, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "body: " + err.Error()})
		return
	}
	if err := decodeStrict(buf, &spec); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "body: " + err.Error()})
		return
	}
	s, err := m.Submit(r.Context(), spec)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Location", "/v1/sessions/"+s.ID)
	writeJSON(w, http.StatusCreated, s.Status())
}

func (m *Manager) session(w http.ResponseWriter, r *http.Request) (*Session, bool) {
	id := r.PathValue("id")
	s, ok := m.Session(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such session " + id})
		return nil, false
	}
	return s, true
}

func (m *Manager) handleStatus(w http.ResponseWriter, r *http.Request) {
	if s, ok := m.session(w, r); ok {
		writeJSON(w, http.StatusOK, s.Status())
	}
}

func (m *Manager) handleObservables(w http.ResponseWriter, r *http.Request) {
	s, ok := m.session(w, r)
	if !ok {
		return
	}
	since := -1
	if q := r.URL.Query().Get("since"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("since: %v", err)})
			return
		}
		since = n
	}
	recs := s.Records(since)
	writeJSON(w, http.StatusOK, map[string]any{"id": s.ID, "records": recs})
}

func (m *Manager) handlePause(w http.ResponseWriter, r *http.Request) {
	if err := m.Pause(r.PathValue("id")); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "pausing"})
}

func (m *Manager) handleResume(w http.ResponseWriter, r *http.Request) {
	if err := m.Resume(r.Context(), r.PathValue("id")); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "queued"})
}

func (m *Manager) handleCancel(w http.ResponseWriter, r *http.Request) {
	if err := m.Cancel(r.PathValue("id")); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "canceling"})
}

func (m *Manager) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	if m.draining.Load() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": status})
}

func (m *Manager) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, m.Metrics())
}
