// Package server turns the anytime exploration runtime into a
// fault-tolerant service: an HTTP/JSON job API over core.Run (EXPLORE,
// inline or on a worker pool) with robustness as the headline.
//
//   - Admission control: the lint preflight (internal/lint) rejects
//     defective specifications at the door with a structured 422 and
//     the full diagnostic report; a bounded job queue returns 429 +
//     Retry-After when full.
//   - Per-job budgets: wall-clock deadline, worker count, and
//     candidate-scan budget ride the existing context/cursor machinery;
//     a deadline expiry completes the job with its prefix-exact partial
//     front — graceful degradation, never a dropped job.
//   - Load shedding: when queue pressure crosses the high-water mark,
//     the scheduler suspends the oldest running job through a
//     digest-guarded checkpoint (internal/checkpoint) and parks it; the
//     job resumes bit-identically when pressure drops below the
//     low-water mark.
//   - Crash safety: per-job panic isolation (one poisoned job cannot
//     take down the server), checkpoint writes under bounded
//     retry-with-jittered-backoff (checkpoint.RetryPolicy), and a
//     graceful drain that checkpoints every in-flight job before exit.
//   - Observability: per-job progress over SSE, /healthz, /readyz, and
//     a JSON /stats with queue depth, shed count, retry counters and
//     per-job pipeline gauges.
//
// The state machine, endpoints and error codes are documented in
// docs/explored-api.md; cmd/explored is the daemon front-end.
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/faultinject"
)

// Failpoint sites of the serving path (see internal/faultinject). All
// are fired with the job's admission sequence number, so tests can
// target an exact job deterministically; the checkpoint I/O underneath
// additionally fires the checkpoint/write and checkpoint/rename sites.
const (
	// SiteAdmit fires during admission, after validation and before
	// enqueueing — an injected error simulates a transient
	// admission-path failure (503).
	SiteAdmit = "server/admit"
	// SiteRun fires at the start of each run segment. An injected error
	// fails the job with a structured error; an injected panic
	// exercises the per-job panic isolation.
	SiteRun = "server/run"
	// SiteSuspend fires before a suspension writes its checkpoint — an
	// injected error forces the park to fall back to in-memory resume
	// state (the job is still never lost).
	SiteSuspend = "server/suspend"
	// SiteResume fires before a resume loads its checkpoint from disk —
	// an injected error forces the fallback to in-memory resume state.
	SiteResume = "server/resume"
)

// Config parameterizes a Server. The zero value of every field selects
// a sensible default except CheckpointDir, which is required.
type Config struct {
	// CheckpointDir receives the digest-guarded job snapshots
	// (job-<seq>.ck.json). Required; created if missing.
	CheckpointDir string
	// QueueDepth bounds the admission queue (jobs waiting for a run
	// slot); a full queue returns 429 + Retry-After. <= 0 selects 16.
	QueueDepth int
	// MaxRunning bounds the concurrently running jobs. <= 0 selects 2.
	MaxRunning int
	// HighWater is the queue length at which the scheduler starts
	// shedding load by suspending the oldest running job; parked jobs
	// resume when the queue drains to HighWater/2. <= 0 selects
	// 3/4 of QueueDepth (minimum 1). Must not exceed QueueDepth.
	HighWater int
	// MaxDeadline caps (and defaults) the per-job wall-clock budget;
	// 0 = no default and no cap.
	MaxDeadline time.Duration
	// JobTTL evicts terminal (completed/failed/cancelled) jobs from the
	// in-memory registry once they have been terminal for this long;
	// subsequent GETs answer 404 and /stats counts the eviction. The
	// checkpoint file on disk is left untouched — eviction frees server
	// memory, it never destroys a resumable snapshot. 0 keeps terminal
	// jobs forever.
	JobTTL time.Duration
	// DefaultWorkers is the worker budget of jobs that do not ask for
	// one. <= 0 selects 1 (sequential).
	DefaultWorkers int
	// Lint enables the admission lint preflight. Disable only in tests
	// that need to admit defective specifications.
	Lint bool
	// Retry shapes the bounded retry of checkpoint writes. Sleep and
	// OnRetry are overridden per save (OnRetry feeds the /stats retry
	// counters); the remaining fields pass through.
	Retry checkpoint.RetryPolicy
	// Fault injects deterministic failures at the server/* sites and,
	// through the checkpoint writer, at checkpoint/write and
	// checkpoint/rename. A nil plan is inert. Test harness only.
	Fault *faultinject.Plan
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

func (c Config) queueDepth() int {
	if c.QueueDepth <= 0 {
		return 16
	}
	return c.QueueDepth
}

func (c Config) maxRunning() int {
	if c.MaxRunning <= 0 {
		return 2
	}
	return c.MaxRunning
}

func (c Config) highWater() int {
	if c.HighWater > 0 {
		return c.HighWater
	}
	hw := c.queueDepth() * 3 / 4
	if hw < 1 {
		hw = 1
	}
	return hw
}

// lowWater is the queue length at which parked jobs resume: half the
// high-water mark, giving the shed/resume cycle hysteresis.
func (c Config) lowWater() int {
	return c.highWater() / 2
}

func (c Config) defaultWorkers() int {
	if c.DefaultWorkers <= 0 {
		return 1
	}
	return c.DefaultWorkers
}

func (c Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Counters are the service-level monotonic counters exposed by /stats.
type Counters struct {
	Admitted           int `json:"admitted"`
	RejectedLint       int `json:"rejectedLint"`
	RejectedInvalid    int `json:"rejectedInvalid"`
	RejectedFull       int `json:"rejectedQueueFull"`
	RejectedDraining   int `json:"rejectedDraining"`
	Shed               int `json:"shed"`
	Suspends           int `json:"suspends"`
	Resumes            int `json:"resumes"`
	ResumeFallbacks    int `json:"resumeFallbacks"`
	CheckpointRetries  int `json:"checkpointRetries"`
	CheckpointFailures int `json:"checkpointFailures"`
	PanicsRecovered    int `json:"panicsRecovered"`
	Completed          int `json:"completed"`
	Failed             int `json:"failed"`
	Cancelled          int `json:"cancelled"`
	Evicted            int `json:"evicted"`
}

// Stats is the /stats document: the live queue gauges, the counters,
// and one view per job (admission order).
type Stats struct {
	QueueLen  int       `json:"queueLen"`
	QueueCap  int       `json:"queueCap"`
	HighWater int       `json:"highWater"`
	LowWater  int       `json:"lowWater"`
	Running   int       `json:"running"`
	Parked    int       `json:"parked"`
	Draining  bool      `json:"draining"`
	Counters  Counters  `json:"counters"`
	Jobs      []JobView `json:"jobs"`
}

// Server is the exploration service. Create with New, mount Handler,
// stop with Shutdown.
type Server struct {
	cfg Config

	mu       sync.Mutex
	jobs     map[string]*job
	order    []*job // admission order
	queue    []*job // waiting for a run slot
	parked   []*job // suspended, waiting for pressure to drop
	running  map[string]*job
	draining bool
	nextSeq  int
	counters Counters
	changed  chan struct{} // pulsed on every state change (Shutdown waits on it)
	wg       sync.WaitGroup

	sweepStop chan struct{} // closes the TTL sweeper; nil when JobTTL == 0
	sweepOnce sync.Once
}

// New validates the configuration, creates the checkpoint directory
// and returns a ready (but not yet listening) server; mount Handler on
// an http.Server to serve it.
func New(cfg Config) (*Server, error) {
	if cfg.CheckpointDir == "" {
		return nil, fmt.Errorf("server: CheckpointDir is required")
	}
	if cfg.HighWater > cfg.queueDepth() {
		return nil, fmt.Errorf("server: HighWater %d exceeds QueueDepth %d", cfg.HighWater, cfg.queueDepth())
	}
	if cfg.JobTTL < 0 {
		return nil, fmt.Errorf("server: JobTTL must be >= 0, got %s", cfg.JobTTL)
	}
	if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
		return nil, fmt.Errorf("server: creating checkpoint dir: %w", err)
	}
	s := &Server{
		cfg:     cfg,
		jobs:    map[string]*job{},
		running: map[string]*job{},
		changed: make(chan struct{}, 1),
	}
	if cfg.JobTTL > 0 {
		s.sweepStop = make(chan struct{})
		go s.sweeper(s.sweepStop)
	}
	return s, nil
}

// stopSweeper shuts the TTL sweeper down exactly once; safe to call on
// a server that never started one.
func (s *Server) stopSweeper() {
	s.sweepOnce.Do(func() {
		if s.sweepStop != nil {
			close(s.sweepStop)
		}
	})
}

// sweeper periodically evicts terminal jobs past their TTL. The ticker
// cadence only bounds staleness; the eviction decision itself lives in
// sweep, which tests drive with explicit clocks.
func (s *Server) sweeper(stop <-chan struct{}) {
	t := time.NewTicker(sweepInterval(s.cfg.JobTTL))
	defer t.Stop()
	for {
		select {
		case now := <-t.C:
			s.sweep(now)
		case <-stop:
			return
		}
	}
}

// sweepInterval picks the sweeper cadence: half the TTL, clamped to
// [1s, 1min] so tiny TTLs cannot busy-spin and huge TTLs still evict
// within a minute of expiry.
func sweepInterval(ttl time.Duration) time.Duration {
	iv := ttl / 2
	if iv < time.Second {
		iv = time.Second
	}
	if iv > time.Minute {
		iv = time.Minute
	}
	return iv
}

// sweep evicts every terminal job whose terminal transition is at
// least JobTTL old as of now, returning the eviction count. Terminal
// jobs live only in the jobs map and the admission-order list (never
// in queue/parked/running), so removal there is complete; the
// checkpoint file stays on disk.
func (s *Server) sweep(now time.Time) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cfg.JobTTL <= 0 {
		return 0
	}
	cutoff := now.Add(-s.cfg.JobTTL)
	n := 0
	kept := s.order[:0]
	for _, j := range s.order {
		if j.state.Terminal() && !j.doneAt.IsZero() && !j.doneAt.After(cutoff) {
			delete(s.jobs, j.id)
			s.counters.Evicted++
			n++
			continue
		}
		kept = append(kept, j)
	}
	for i := len(kept); i < len(s.order); i++ {
		s.order[i] = nil // release the evicted jobs to the GC
	}
	s.order = kept
	if n > 0 {
		s.cfg.logf("evicted %d terminal job(s) older than %s", n, s.cfg.JobTTL)
	}
	return n
}

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("POST /jobs/{id}/suspend", s.handleSuspend)
	mux.HandleFunc("POST /jobs/{id}/resume", s.handleResume)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /stats", s.handleStats)
	return mux
}

// notifyLocked pulses the change channel; caller holds mu.
func (s *Server) notifyLocked() {
	select {
	case s.changed <- struct{}{}:
	default:
	}
}

// handleSubmit is POST /jobs: parse → lint → budget-check → enqueue.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	if s.draining {
		s.counters.RejectedDraining++
		s.mu.Unlock()
		(&apiError{Status: http.StatusServiceUnavailable, Code: CodeDraining,
			Message: "server is draining; resubmit elsewhere", RetryAfter: 5}).writeTo(w)
		return
	}
	s.mu.Unlock()

	body, aerr := readRequestBody(w, r)
	var j *job
	if aerr == nil {
		j, aerr = s.parseRequest(body)
	}
	if aerr != nil {
		s.mu.Lock()
		if aerr.Code == CodeLint {
			s.counters.RejectedLint++
		} else {
			s.counters.RejectedInvalid++
		}
		s.mu.Unlock()
		aerr.writeTo(w)
		return
	}

	s.mu.Lock()
	if s.draining {
		s.counters.RejectedDraining++
		s.mu.Unlock()
		(&apiError{Status: http.StatusServiceUnavailable, Code: CodeDraining,
			Message: "server is draining; resubmit elsewhere", RetryAfter: 5}).writeTo(w)
		return
	}
	seq := s.nextSeq + 1
	if err := s.cfg.Fault.Fire(SiteAdmit, seq); err != nil {
		s.mu.Unlock()
		(&apiError{Status: http.StatusServiceUnavailable, Code: CodeAdmission,
			Message: fmt.Sprintf("transient admission failure: %v", err), RetryAfter: 1}).writeTo(w)
		return
	}
	if len(s.queue) >= s.cfg.queueDepth() {
		s.counters.RejectedFull++
		s.mu.Unlock()
		(&apiError{Status: http.StatusTooManyRequests, Code: CodeQueueFull,
			Message:    fmt.Sprintf("admission queue full (%d jobs); retry shortly", s.cfg.queueDepth()),
			RetryAfter: 1}).writeTo(w)
		return
	}
	s.nextSeq = seq
	j.seq = seq
	j.id = fmt.Sprintf("j-%d", seq)
	j.state = StateQueued
	j.ckPath = filepath.Join(s.cfg.CheckpointDir, fmt.Sprintf("job-%d.ck.json", seq))
	j.done = make(chan struct{})
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	s.queue = append(s.queue, j)
	s.counters.Admitted++
	s.scheduleLocked()
	view := j.viewLocked()
	s.notifyLocked()
	s.mu.Unlock()

	s.cfg.logf("admitted %s (spec %q, workers %d)", j.id, j.spec.Name, j.workers)
	w.Header().Set("Location", "/jobs/"+j.id)
	writeJSON(w, http.StatusAccepted, view)
}

// lookup resolves {id}; a miss writes the 404.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *job {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		(&apiError{Status: http.StatusNotFound, Code: CodeNotFound,
			Message: fmt.Sprintf("no job %q", r.PathValue("id"))}).writeTo(w)
	}
	return j
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	views := make([]JobView, 0, len(s.order))
	for _, j := range s.order {
		views = append(views, j.viewLocked())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string][]JobView{"jobs": views})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	s.mu.Lock()
	view := j.viewLocked()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, view)
}

// handleResult is GET /jobs/{id}/result: 200 with the full result once
// completed (including deadline-bounded partial fronts), 202 while the
// job is still in flight, 409 for failed/cancelled jobs.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	s.mu.Lock()
	state, res, errMsg := j.state, j.result, j.errMsg
	view := j.viewLocked()
	s.mu.Unlock()
	switch {
	case state == StateCompleted:
		data, err := res.MarshalJSON()
		if err != nil {
			(&apiError{Status: http.StatusInternalServerError, Code: "encoding",
				Message: err.Error()}).writeTo(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(data)
		_, _ = w.Write([]byte("\n"))
	case state.Terminal():
		(&apiError{Status: http.StatusConflict, Code: CodeWrongState,
			Message: fmt.Sprintf("job %s %s: %s", j.id, state, errMsg)}).writeTo(w)
	default:
		writeJSON(w, http.StatusAccepted, view)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz reports whether the server can accept work: 503 while
// draining or while the admission queue is full.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining, queueLen := s.draining, len(s.queue)
	s.mu.Unlock()
	switch {
	case draining:
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	case queueLen >= s.cfg.queueDepth():
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "saturated"})
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshot())
}

// Snapshot assembles the /stats document.
func (s *Server) Snapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		QueueLen:  len(s.queue),
		QueueCap:  s.cfg.queueDepth(),
		HighWater: s.cfg.highWater(),
		LowWater:  s.cfg.lowWater(),
		Running:   len(s.running),
		Parked:    len(s.parked),
		Draining:  s.draining,
		Counters:  s.counters,
	}
	// s.order is admission order, which is also ascending job sequence.
	for _, j := range s.order {
		st.Jobs = append(st.Jobs, j.viewLocked())
	}
	return st
}

// writeJSON answers v as compact JSON followed by a newline.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
