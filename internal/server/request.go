package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"time"

	"repro/internal/bind"
	"repro/internal/core"
	"repro/internal/lint"
	"repro/internal/models"
	"repro/internal/spec"
)

// Request is the body of POST /jobs: the specification to explore
// (inline JSON or a built-in model) plus the job's budgets and runtime
// knobs. Unknown fields are rejected — a typo in a budget field must
// not silently become an unbounded job.
type Request struct {
	// Spec is an inline specification graph (internal/spec JSON
	// format). Exactly one of Spec and Model is required.
	Spec json.RawMessage `json:"spec,omitempty"`
	// Model selects a built-in model: settop | decoder | sdr |
	// synthetic.
	Model string `json:"model,omitempty"`
	// Seed parameterizes the synthetic model.
	Seed int64 `json:"seed,omitempty"`

	// Timing is the timing policy: paper (default) | none | ll | rta |
	// edf | hyperbolic (see bind.ParseTiming).
	Timing string `json:"timing,omitempty"`
	// Weighted selects the weighted flexibility metric.
	Weighted bool `json:"weighted,omitempty"`
	// Exhaustive disables the flexibility bound and the useless-bus
	// pruning (the exhaustive baseline scan, which implements every
	// possible allocation).
	Exhaustive bool `json:"exhaustive,omitempty"`
	// StopAtMaxFlex reports a scan that reached maximum flexibility as
	// max-flex at its stop cursor instead of completed at the stream's
	// length (core.Options.StopAtMaxFlex). It is rejected together with
	// Exhaustive.
	StopAtMaxFlex bool `json:"stopAtMaxFlex,omitempty"`

	// MaxScan bounds the enumeration effort in BDD search nodes visited
	// (0 = unbounded). A bounded job returns a deterministic prefix of
	// the candidate stream, at least as long per visit as before the
	// walk was keyed by cheapest completion; a job checkpointed before
	// that resumes to the current walk's prefix for the same budget.
	MaxScan int `json:"maxScan,omitempty"`
	// MaxECS bounds the behaviours tested per candidate.
	MaxECS int `json:"maxEcs,omitempty"`
	// MaxBindNodes bounds each binding search.
	MaxBindNodes int `json:"maxBindNodes,omitempty"`

	// Workers is the job's worker budget (0 = server default, 1 =
	// sequential, N = parallel pipeline), capped at GOMAXPROCS.
	Workers int `json:"workers,omitempty"`
	// DeadlineMs is the job's wall-clock budget in milliseconds,
	// counted from admission and spanning suspensions; on expiry the
	// job completes with its prefix-exact partial front. 0 selects the
	// server default; the server's MaxDeadline caps it.
	DeadlineMs int64 `json:"deadlineMs,omitempty"`
	// CheckpointEvery is the progress (and periodic-checkpoint) cadence
	// in candidates (0 = 64).
	CheckpointEvery int `json:"checkpointEvery,omitempty"`
	// PeriodicCheckpoint persists a crash snapshot at every progress
	// interval, not only on suspension.
	PeriodicCheckpoint bool `json:"periodicCheckpoint,omitempty"`

	// Enumerator, Producers and Batch are accepted with any value and
	// ignored. The first two once selected among candidate producers
	// that all emitted the same stream, and Batch pinned the parallel
	// explorer's range-job size, which never changed a result; every job
	// now runs the one symbolic producer with adaptive ranges. They stay
	// in the schema so the unknown-field check keeps admitting clients
	// that still send them.
	Enumerator json.RawMessage `json:"enumerator,omitempty"`
	Producers  json.RawMessage `json:"producers,omitempty"`
	Batch      json.RawMessage `json:"batch,omitempty"`
}

// apiError is a structured admission or lookup failure, rendered as
// {"error": {...}} with the HTTP status.
type apiError struct {
	Status      int               `json:"-"`
	RetryAfter  int               `json:"-"` // seconds, sets Retry-After when > 0
	Code        string            `json:"code"`
	Message     string            `json:"message"`
	Diagnostics []lint.Diagnostic `json:"diagnostics,omitempty"`
}

// Error codes returned by the API.
const (
	CodeMalformed  = "malformed-request"
	CodeBadSpec    = "bad-spec"
	CodeLint       = "lint-rejected"
	CodeBadBudget  = "bad-budget"
	CodeQueueFull  = "queue-full"
	CodeDraining   = "draining"
	CodeNotFound   = "not-found"
	CodeWrongState = "wrong-state"
	CodeAdmission  = "admission-fault"
)

func errMalformed(msg string) *apiError {
	return &apiError{Status: http.StatusBadRequest, Code: CodeMalformed, Message: msg}
}

func errBudget(msg string) *apiError {
	return &apiError{Status: http.StatusBadRequest, Code: CodeBadBudget, Message: msg}
}

// writeTo renders the error.
func (e *apiError) writeTo(w http.ResponseWriter) {
	if e.RetryAfter > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", e.RetryAfter))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(e.Status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(map[string]*apiError{"error": e})
}

// parseRequest decodes and validates a job submission: the request
// shape, the specification itself (structural validation), the lint
// preflight (admission control — defective specs are rejected at the
// door with the full diagnostic report), and the budgets against the
// server's caps. It returns the admitted job template or the
// structured 4xx to send.
func (s *Server) parseRequest(body io.Reader) (*Request, *job, *apiError) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		return nil, nil, errMalformed(fmt.Sprintf("decoding request: %v", err))
	}
	if dec.More() {
		return nil, nil, errMalformed("trailing data after the request object")
	}

	sp, aerr := s.loadSpec(&req)
	if aerr != nil {
		return nil, nil, aerr
	}
	if s.cfg.Lint {
		rep := lint.NewEngine().Run(sp)
		if rep.HasErrors() {
			errs, _, _ := rep.Counts()
			return nil, nil, &apiError{
				Status:      http.StatusUnprocessableEntity,
				Code:        CodeLint,
				Message:     fmt.Sprintf("lint preflight rejected specification %q: %d error(s)", sp.Name, errs),
				Diagnostics: rep.Diagnostics,
			}
		}
	}

	j, aerr := s.jobFromRequest(&req, sp)
	if aerr != nil {
		return nil, nil, aerr
	}
	return &req, j, nil
}

// loadSpec materializes the requested specification.
func (s *Server) loadSpec(req *Request) (*spec.Spec, *apiError) {
	switch {
	case len(req.Spec) > 0 && req.Model != "":
		return nil, errMalformed(`"spec" and "model" are mutually exclusive`)
	case len(req.Spec) == 0 && req.Model == "":
		return nil, errMalformed(`one of "spec" or "model" is required`)
	case len(req.Spec) > 0:
		sp, err := spec.Read(bytes.NewReader(req.Spec))
		if err != nil {
			return nil, &apiError{Status: http.StatusBadRequest, Code: CodeBadSpec,
				Message: fmt.Sprintf("invalid specification: %v", err)}
		}
		return sp, nil
	}
	sp, err := models.ByName(req.Model, req.Seed)
	if err != nil {
		return nil, errMalformed(err.Error())
	}
	return sp, nil
}

// jobFromRequest validates the budgets and builds the job template
// (unadmitted: no id, no state).
func (s *Server) jobFromRequest(req *Request, sp *spec.Spec) (*job, *apiError) {
	if req.Workers < 0 {
		return nil, errBudget(`"workers" must be >= 0 (0 selects the server default)`)
	}
	if req.MaxScan < 0 || req.MaxECS < 0 || req.MaxBindNodes < 0 {
		return nil, errBudget(`"maxScan", "maxEcs" and "maxBindNodes" must be >= 0`)
	}
	if req.DeadlineMs < 0 {
		return nil, errBudget(`"deadlineMs" must be >= 0 (0 selects the server default)`)
	}
	if req.CheckpointEvery < 0 {
		return nil, errBudget(`"checkpointEvery" must be >= 0 (0 selects 64)`)
	}
	if req.Exhaustive && req.StopAtMaxFlex {
		return nil, errBudget(`"exhaustive" and "stopAtMaxFlex" are mutually exclusive: an exhaustive scan implements every possible allocation`)
	}
	deadline := time.Duration(req.DeadlineMs) * time.Millisecond
	if deadline == 0 {
		deadline = s.cfg.MaxDeadline
	}
	if s.cfg.MaxDeadline > 0 && deadline > s.cfg.MaxDeadline {
		return nil, errBudget(fmt.Sprintf(`"deadlineMs" %d exceeds the server cap %d`,
			req.DeadlineMs, s.cfg.MaxDeadline.Milliseconds()))
	}

	timing := bind.TimingPaper
	if req.Timing != "" {
		var err error
		if timing, err = bind.ParseTiming(req.Timing); err != nil {
			return nil, errBudget(`"timing": ` + err.Error())
		}
	}

	workers := req.Workers
	if workers == 0 {
		workers = s.cfg.defaultWorkers()
	}
	// Results are identical for every worker count, so a budget above
	// the CPUs only costs memory: the pool sizes its channels and
	// goroutines by it.
	workers = min(workers, runtime.GOMAXPROCS(0))
	ckEvery := req.CheckpointEvery
	if ckEvery == 0 {
		ckEvery = 64
	}
	j := &job{
		spec:     sp,
		workers:  workers,
		ckEvery:  ckEvery,
		periodic: req.PeriodicCheckpoint,
		opts: core.Options{
			Timing:             timing,
			Weighted:           req.Weighted,
			StopAtMaxFlex:      req.StopAtMaxFlex,
			DisableFlexBound:   req.Exhaustive,
			IncludeUselessComm: req.Exhaustive,
			MaxScan:            req.MaxScan,
			MaxECS:             req.MaxECS,
			MaxBindNodes:       req.MaxBindNodes,
		},
	}
	if deadline > 0 {
		j.deadline = time.Now().Add(deadline)
	}
	return j, nil
}
