package server

import (
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/spec"
)

// State is a job's position in the service's lifecycle state machine:
//
//	queued ──► running ──► completed
//	  │           │ ▲  ╲──► failed
//	  │           ▼ │  ╲──► cancelled
//	  │        suspended ──► cancelled
//	  │       (checkpointed,
//	  │        parked) ──────► running (resumed bit-identically)
//	  └──► cancelled
//
// A deadline expiry is not a failure: the job completes with its
// prefix-exact partial front and Result.Interrupted set (graceful
// degradation — the service never drops an admitted job).
type State string

// Job states.
const (
	// StateQueued: admitted, waiting for a run slot.
	StateQueued State = "queued"
	// StateRunning: a run segment is executing on the exploration
	// runtime.
	StateRunning State = "running"
	// StateSuspended: parked under load shedding, an operator request,
	// or a drain; progress is persisted as a digest-guarded checkpoint
	// and the job resumes bit-identically when pressure drops.
	StateSuspended State = "suspended"
	// StateCompleted: the scan ended (exhausted, max-flex, scan-bound,
	// or deadline with a partial front); the result is fetchable.
	StateCompleted State = "completed"
	// StateFailed: the job's evaluation errored or panicked; the panic
	// was isolated to the job and the server kept serving.
	StateFailed State = "failed"
	// StateCancelled: deleted by the client.
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateCompleted || s == StateFailed || s == StateCancelled
}

// pendingAction is the interruption requested for a running segment,
// recorded before its context is cancelled so the post-run handler can
// tell a suspend from a client cancellation.
type pendingAction int

const (
	pendingNone pendingAction = iota
	pendingSuspend
	pendingCancel
)

// suspendKind classifies who asked for a suspension, for /stats.
type suspendKind string

const (
	suspendShed   suspendKind = "shed"
	suspendManual suspendKind = "manual"
	suspendDrain  suspendKind = "drain"
)

// job is one admitted exploration job. All mutable fields are guarded
// by the server's single mutex; the immutable configuration (spec,
// semantic options, budgets, checkpoint path) is set at admission and
// read freely by the runner goroutine.
type job struct {
	seq      int
	id       string
	spec     *spec.Spec
	opts     core.Options // semantic options only; runtime hooks are set per segment
	workers  int
	ckPath   string
	ckEvery  int
	periodic bool
	deadline time.Time // zero = no deadline; absolute, spans suspensions

	// stamp returns the job's checkpoint identity. The spec and options
	// never change, so it digests them at the job's first save and
	// returns that stamp to every later save (sync.OnceValues); a job
	// that never checkpoints never digests its spec.
	stamp func() (checkpoint.Stamp, error)

	// Guarded by Server.mu.
	state       State
	pending     pendingAction
	kind        suspendKind
	forced      bool // operator-requested resume overrides the pressure gate
	held        bool // operator/drain park: only an explicit resume restarts it
	segCancel   func()
	resume      *core.Resume // in-memory resume state (disk is authoritative when onDisk)
	onDisk      bool         // a digest-guarded checkpoint exists at ckPath
	result      *core.Result
	errMsg      string
	doneAt      time.Time // when the job turned terminal; zero until then
	latest      ProgressEvent
	subs        map[int]chan ProgressEvent
	nextSub     int
	runSegments int
	suspends    int
	sheds       int
	retries     int
	saves       int
	done        chan struct{}
}

// ProgressEvent is the wire form of one progress update, streamed over
// SSE and embedded in job views.
type ProgressEvent struct {
	JobID          string              `json:"jobId"`
	State          State               `json:"state"`
	Cursor         int                 `json:"cursor"`
	BestFlex       float64             `json:"bestFlex"`
	MaxFlexibility float64             `json:"maxFlexibility"`
	FrontSize      int                 `json:"frontSize"`
	Possible       int                 `json:"possibleAllocations"`
	Reason         string              `json:"reason,omitempty"`
	Error          string              `json:"error,omitempty"`
	Pipeline       *core.PipelineStats `json:"pipeline,omitempty"`
}

// JobView is the wire form of a job's externally visible state.
type JobView struct {
	ID             string  `json:"id"`
	State          State   `json:"state"`
	Spec           string  `json:"spec"`
	Cursor         int     `json:"cursor"`
	FrontSize      int     `json:"frontSize"`
	BestFlex       float64 `json:"bestFlex"`
	MaxFlexibility float64 `json:"maxFlexibility"`
	Reason         string  `json:"reason,omitempty"`
	Error          string  `json:"error,omitempty"`
	RunSegments    int     `json:"runSegments"`
	Suspends       int     `json:"suspends"`
	Sheds          int     `json:"sheds"`
	Retries        int     `json:"checkpointRetries"`
	Checkpointed   bool    `json:"checkpointed"`
}

// viewLocked renders the job; caller holds Server.mu.
func (j *job) viewLocked() JobView {
	ev := j.eventLocked()
	return JobView{
		ID:             j.id,
		State:          ev.State,
		Spec:           j.spec.Name,
		Cursor:         ev.Cursor,
		FrontSize:      ev.FrontSize,
		BestFlex:       ev.BestFlex,
		MaxFlexibility: ev.MaxFlexibility,
		Reason:         ev.Reason,
		Error:          ev.Error,
		RunSegments:    j.runSegments,
		Suspends:       j.suspends,
		Sheds:          j.sheds,
		Retries:        j.retries,
		Checkpointed:   j.onDisk,
	}
}

// eventLocked renders the job's current progress as an SSE event;
// caller holds Server.mu.
func (j *job) eventLocked() ProgressEvent {
	ev := j.latest
	ev.JobID = j.id
	ev.State = j.state
	ev.Error = j.errMsg
	if j.result != nil {
		ev.Cursor = j.result.Cursor
		ev.FrontSize = len(j.result.Front)
		ev.MaxFlexibility = j.result.MaxFlexibility
		ev.Reason = string(j.result.Reason)
		// The last progress event lags by up to the checkpoint cadence;
		// the final front is authoritative.
		if bf := bestFlexOf(j.result.Front); bf > ev.BestFlex {
			ev.BestFlex = bf
		}
	}
	return ev
}

// bestFlexOf returns the best flexibility on a Pareto front.
func bestFlexOf(front []*core.Implementation) float64 {
	var best float64
	for _, im := range front {
		if im.Flexibility > best {
			best = im.Flexibility
		}
	}
	return best
}

// publishLocked records the event as the job's latest and fans it out
// to subscribers without blocking: a slow SSE client loses intermediate
// progress events, never the terminal one (the stream reads the final
// state directly when done closes). Caller holds Server.mu.
func (j *job) publishLocked(ev ProgressEvent) {
	j.latest = ev
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// subscribeLocked registers an SSE subscriber; caller holds Server.mu.
func (j *job) subscribeLocked() (int, chan ProgressEvent) {
	if j.subs == nil {
		j.subs = map[int]chan ProgressEvent{}
	}
	id := j.nextSub
	j.nextSub++
	ch := make(chan ProgressEvent, 16)
	j.subs[id] = ch
	return id, ch
}

// resumeFromResult turns an interrupted segment's result into the
// in-memory resume state for the next segment. The cost-ordered
// enumeration replays the prefix deterministically, so continuing from
// (Cursor, Front, Stats) is bit-identical to never having stopped.
func resumeFromResult(r *core.Result) *core.Resume {
	return &core.Resume{Cursor: r.Cursor, Front: r.Front, Stats: r.Stats}
}
