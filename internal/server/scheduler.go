package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
)

// scheduleLocked is the scheduler's single decision point, called under
// mu after every state change:
//
//  1. fill free run slots — a forced (operator-resumed) parked job
//     first, then parked jobs when queue pressure has dropped to the
//     low-water mark, then the oldest queued job;
//  2. shed load — while the queue is at or above the high-water mark,
//     suspend the oldest running job (at most one per pass; its slot
//     frees asynchronously once the checkpoint is parked).
func (s *Server) scheduleLocked() {
	if s.draining {
		return
	}
	for len(s.running) < s.cfg.maxRunning() {
		j := s.pickLocked()
		if j == nil {
			break
		}
		s.startLocked(j)
	}
	if len(s.queue) >= s.cfg.highWater() {
		if victim := s.oldestRunningLocked(); victim != nil {
			s.counters.Shed++
			victim.sheds++
			s.requestSuspendLocked(victim, suspendShed)
		}
	}
}

// pickLocked selects the next job to (re)start; caller holds mu. An
// explicitly resumed park always wins; shed parks resume once queue
// pressure has dropped to the low-water mark; operator and drain parks
// are held until their explicit resume.
func (s *Server) pickLocked() *job {
	for i, j := range s.parked {
		if j.forced {
			s.parked = append(s.parked[:i], s.parked[i+1:]...)
			return j
		}
	}
	if len(s.queue) <= s.cfg.lowWater() {
		for i, j := range s.parked {
			if !j.held {
				s.parked = append(s.parked[:i], s.parked[i+1:]...)
				return j
			}
		}
	}
	if len(s.queue) > 0 {
		j := s.queue[0]
		s.queue = s.queue[1:]
		return j
	}
	return nil
}

// oldestRunningLocked returns the running job with the lowest admission
// sequence that is not already being interrupted; caller holds mu.
func (s *Server) oldestRunningLocked() *job {
	var oldest *job
	for _, j := range s.running {
		if j.pending != pendingNone {
			continue
		}
		if oldest == nil || j.seq < oldest.seq {
			oldest = j
		}
	}
	return oldest
}

// requestSuspendLocked marks the job for suspension and cancels its run
// segment; the runner parks it (checkpointed) when the segment returns.
// Caller holds mu.
func (s *Server) requestSuspendLocked(j *job, kind suspendKind) {
	j.pending = pendingSuspend
	j.kind = kind
	if j.segCancel != nil {
		j.segCancel()
	}
}

// startLocked moves a queued or parked job into a run slot and spawns
// its runner goroutine; caller holds mu.
func (s *Server) startLocked(j *job) {
	resumed := j.state == StateSuspended
	j.state = StateRunning
	j.pending = pendingNone
	j.forced = false
	j.held = false
	var ctx context.Context
	var cancel context.CancelFunc
	if j.deadline.IsZero() {
		ctx, cancel = context.WithCancel(context.Background())
	} else {
		ctx, cancel = context.WithDeadline(context.Background(), j.deadline)
	}
	segCtx, segCancel := context.WithCancel(ctx)
	j.segCancel = func() { segCancel() }
	s.running[j.id] = j
	if resumed {
		s.counters.Resumes++
	}
	j.publishLocked(j.eventLocked())
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer cancel()
		defer segCancel()
		s.runJob(segCtx, j)
	}()
}

// runJob executes one run segment and commits its outcome. The
// expensive work (exploration, checkpoint I/O) happens outside mu.
func (s *Server) runJob(ctx context.Context, j *job) {
	resume, fellBack := s.loadResume(j)
	res, runErr, panicked := s.runSegment(ctx, j, resume)

	// A suspension checkpoint is written outside the lock (retry
	// backoff can sleep); decide first, write, then commit.
	s.mu.Lock()
	j.runSegments++
	if fellBack {
		s.counters.ResumeFallbacks++
	}
	delete(s.running, j.id)
	j.segCancel = nil
	action := j.pending
	kind := j.kind
	j.pending = pendingNone
	s.mu.Unlock()

	switch {
	case runErr != nil:
		s.finalize(j, StateFailed, nil, runErr.Error(), panicked)
	case action == pendingCancel:
		s.finalize(j, StateCancelled, res, "", false)
	case action == pendingSuspend && res.Interrupted && res.Reason == core.ReasonCancelled:
		s.park(j, res, kind)
	default:
		// Natural end of scan — including a deadline expiry, which
		// completes the job with its prefix-exact partial front.
		s.finalize(j, StateCompleted, res, "", false)
	}
}

// loadResume returns the resume state for the next segment: the
// digest-guarded checkpoint when one exists (every disk resume is
// revalidated against the spec and options digests), falling back to
// the in-memory state on injected faults or unreadable snapshots. The
// bool reports that a fallback happened.
func (s *Server) loadResume(j *job) (*core.Resume, bool) {
	s.mu.Lock()
	onDisk, mem := j.onDisk, j.resume
	s.mu.Unlock()
	if !onDisk {
		return mem, false
	}
	if err := s.cfg.Fault.Fire(SiteResume, j.seq); err != nil {
		s.cfg.logf("%s: resume fault: %v; falling back to in-memory state", j.id, err)
		return mem, true
	}
	snap, err := checkpoint.Load(j.ckPath)
	if err == nil {
		var r *core.Resume
		r, err = snap.Resume(j.spec, j.opts)
		if err == nil {
			return r, false
		}
	}
	s.cfg.logf("%s: checkpoint resume failed: %v; falling back to in-memory state", j.id, err)
	return mem, true
}

// runSegment runs the exploration under panic isolation: a panicking
// job is recovered here, recorded, and fails alone — the server and
// every other job keep going.
func (s *Server) runSegment(ctx context.Context, j *job, resume *core.Resume) (res *core.Result, runErr error, panicked bool) {
	defer func() {
		if p := recover(); p != nil {
			panicked = true
			runErr = fmt.Errorf("job panicked: %v\n%s", p, debug.Stack())
		}
	}()
	if err := s.cfg.Fault.Fire(SiteRun, j.seq); err != nil {
		return nil, fmt.Errorf("run fault: %w", err), false
	}

	opts := j.opts
	opts.Resume = resume
	opts.ProgressEvery = j.ckEvery
	writer := &checkpoint.Writer{Path: j.ckPath, Fault: s.cfg.Fault}
	opts.Progress = func(p core.Progress) {
		s.publishProgress(j, p)
		if j.periodic {
			st, err := j.stamp()
			if err == nil {
				err = s.saveWithRetry(j, writer, st.Capture(p))
			}
			if err != nil {
				s.cfg.logf("%s: periodic checkpoint: %v", j.id, err)
			} else {
				s.mu.Lock()
				j.onDisk = true
				s.mu.Unlock()
			}
		}
	}

	return core.Run(ctx, j.spec, opts, core.Request{Workers: j.workers}), nil, false
}

// publishProgress converts a core progress snapshot into the job's
// latest event and fans it out to SSE subscribers.
func (s *Server) publishProgress(j *job, p core.Progress) {
	ev := ProgressEvent{
		JobID:          j.id,
		State:          StateRunning,
		Cursor:         p.Cursor,
		BestFlex:       p.BestFlex,
		MaxFlexibility: p.MaxFlexibility,
		FrontSize:      len(p.Front),
		Possible:       p.Stats.PossibleAllocations,
	}
	if p.Stats.Pipeline != (core.PipelineStats{}) {
		pipe := p.Stats.Pipeline
		ev.Pipeline = &pipe
	}
	s.mu.Lock()
	j.publishLocked(ev)
	s.mu.Unlock()
}

// saveWithRetry writes a snapshot under the configured retry policy,
// wiring the retry counters into /stats. The jitter seed decorrelates
// writers per job and per save while staying deterministic.
func (s *Server) saveWithRetry(j *job, w *checkpoint.Writer, snap *checkpoint.Snapshot) error {
	s.mu.Lock()
	j.saves++
	pol := s.cfg.Retry
	pol.Seed = int64(j.seq)<<20 | int64(j.saves)
	s.mu.Unlock()
	pol.OnRetry = func(attempt int, err error) {
		s.cfg.logf("%s: checkpoint attempt %d failed: %v; retrying", j.id, attempt, err)
		s.mu.Lock()
		j.retries++
		s.counters.CheckpointRetries++
		s.mu.Unlock()
	}
	return w.SaveWithRetry(snap, pol)
}

// park suspends an interrupted job: persist the digest-guarded
// snapshot (bounded retry; an exhausted retry or an injected
// server/suspend fault degrades to in-memory resume state — the job is
// never lost), then append it to the parked list for resumption when
// pressure drops.
func (s *Server) park(j *job, res *core.Result, kind suspendKind) {
	onDisk := false
	if err := s.cfg.Fault.Fire(SiteSuspend, j.seq); err != nil {
		s.cfg.logf("%s: suspend fault: %v; parking with in-memory state only", j.id, err)
	} else {
		st, err := j.stamp()
		if err == nil {
			err = s.saveWithRetry(j, &checkpoint.Writer{Path: j.ckPath, Fault: s.cfg.Fault}, st.FromResult(res))
		}
		if err != nil {
			s.cfg.logf("%s: suspend checkpoint: %v; parking with in-memory state only", j.id, err)
		} else {
			onDisk = true
		}
	}

	s.mu.Lock()
	if onDisk {
		j.onDisk = true
	} else {
		s.counters.CheckpointFailures++
	}
	j.resume = resumeFromResult(res)
	j.state = StateSuspended
	j.held = kind != suspendShed
	j.suspends++
	// The last periodic progress event lags the interruption; surface
	// the exact suspension cursor in views and streams.
	j.latest.Cursor = res.Cursor
	j.latest.FrontSize = len(res.Front)
	if bf := bestFlexOf(res.Front); bf > j.latest.BestFlex {
		j.latest.BestFlex = bf
	}
	s.counters.Suspends++
	if j.pending == pendingCancel {
		// A DELETE raced the park; honour it without dropping the lock,
		// so the racing handler cannot finalize the job concurrently.
		s.finalizeLocked(j, StateCancelled, res, "", false)
		s.mu.Unlock()
		s.cfg.logf("%s %s", j.id, StateCancelled)
		return
	}
	s.parked = append(s.parked, j)
	j.publishLocked(j.eventLocked())
	s.scheduleLocked()
	s.notifyLocked()
	s.mu.Unlock()
	s.cfg.logf("suspended %s at cursor %d (%s, checkpoint=%v)", j.id, res.Cursor, kind, onDisk)
}

// finalize commits a terminal state and wakes waiters and subscribers.
func (s *Server) finalize(j *job, st State, res *core.Result, errMsg string, panicked bool) {
	s.mu.Lock()
	committed := s.finalizeLocked(j, st, res, errMsg, panicked)
	s.mu.Unlock()
	if committed {
		s.cfg.logf("%s %s", j.id, st)
	}
}

// finalizeLocked commits a terminal state; caller holds mu. It is
// idempotent — a job that is already terminal is left untouched (and
// false is returned), so a DELETE racing a park, or two concurrent
// DELETEs, can never double-close done or double-count a terminal
// transition.
func (s *Server) finalizeLocked(j *job, st State, res *core.Result, errMsg string, panicked bool) bool {
	if j.state.Terminal() {
		return false
	}
	j.state = st
	j.pending = pendingNone
	j.result = res
	j.errMsg = errMsg
	j.doneAt = time.Now() // starts the JobTTL eviction clock
	switch st {
	case StateCompleted:
		s.counters.Completed++
	case StateFailed:
		s.counters.Failed++
		if panicked {
			s.counters.PanicsRecovered++
		}
	case StateCancelled:
		s.counters.Cancelled++
	}
	close(j.done)
	j.publishLocked(j.eventLocked())
	s.scheduleLocked()
	s.notifyLocked()
	return true
}

// handleCancel is DELETE /jobs/{id}.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	s.mu.Lock()
	switch {
	case j.state.Terminal():
		view := j.viewLocked()
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, view)
		return
	case j.state == StateRunning:
		j.pending = pendingCancel
		if j.segCancel != nil {
			j.segCancel()
		}
		view := j.viewLocked()
		s.mu.Unlock()
		writeJSON(w, http.StatusAccepted, view)
		return
	default:
		// Queued or suspended: remove from the waiting lists and
		// finalize immediately — one critical section, so a concurrent
		// DELETE or a racing park cannot finalize the job twice.
		s.queue = removeJob(s.queue, j)
		s.parked = removeJob(s.parked, j)
		s.finalizeLocked(j, StateCancelled, nil, "", false)
		view := j.viewLocked()
		s.mu.Unlock()
		s.cfg.logf("%s %s", j.id, StateCancelled)
		writeJSON(w, http.StatusOK, view)
		return
	}
}

// handleSuspend is POST /jobs/{id}/suspend: operator-forced park of a
// running job.
func (s *Server) handleSuspend(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	s.mu.Lock()
	// The s.running membership check closes the window after runJob has
	// committed the segment (job removed from running, state not yet
	// updated by finalize/park): a suspend accepted there would never be
	// honoured.
	if j.state != StateRunning || j.pending != pendingNone || s.running[j.id] != j {
		state := j.state
		s.mu.Unlock()
		(&apiError{Status: http.StatusConflict, Code: CodeWrongState,
			Message: fmt.Sprintf("job %s is %s; only an uninterrupted running job can be suspended", j.id, state)}).writeTo(w)
		return
	}
	s.requestSuspendLocked(j, suspendManual)
	view := j.viewLocked()
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, view)
}

// handleResume is POST /jobs/{id}/resume: operator-forced resume of a
// suspended job, overriding the pressure gate.
func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		// scheduleLocked no-ops during a drain, so accepting the resume
		// would silently never honour it.
		(&apiError{Status: http.StatusServiceUnavailable, Code: CodeDraining,
			Message: "server is draining; resume the job from its checkpoint after restart", RetryAfter: 5}).writeTo(w)
		return
	}
	if j.state != StateSuspended {
		state := j.state
		s.mu.Unlock()
		(&apiError{Status: http.StatusConflict, Code: CodeWrongState,
			Message: fmt.Sprintf("job %s is %s; only a suspended job can be resumed", j.id, state)}).writeTo(w)
		return
	}
	j.forced = true
	s.scheduleLocked()
	view := j.viewLocked()
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, view)
}

// removeJob returns list without j, preserving order.
func removeJob(list []*job, j *job) []*job {
	for i, x := range list {
		if x == j {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// Shutdown drains the server gracefully: admission closes (429/503 on
// new work, /readyz flips), every running job is interrupted and
// parked through a digest-guarded checkpoint, and every queued or
// in-memory-suspended job gets a snapshot too — no admitted job leaves
// without a resumable checkpoint on disk. Shutdown returns once all
// in-flight work is parked or terminal, or with an error when ctx
// expires first (remaining segments are then force-cancelled).
func (s *Server) Shutdown(ctx context.Context) error {
	s.stopSweeper()
	s.mu.Lock()
	s.draining = true
	for _, j := range s.running {
		if j.pending == pendingNone {
			s.requestSuspendLocked(j, suspendDrain)
		}
	}
	s.mu.Unlock()

	var ctxErr error
	for {
		s.mu.Lock()
		n := len(s.running)
		s.mu.Unlock()
		if n == 0 {
			break
		}
		select {
		case <-s.changed:
		case <-ctx.Done():
			ctxErr = fmt.Errorf("server: drain interrupted with %d job(s) still running: %w", n, ctx.Err())
			s.mu.Lock()
			for _, j := range s.running {
				j.pending = pendingCancel
				if j.segCancel != nil {
					j.segCancel()
				}
			}
			s.mu.Unlock()
		}
		if ctxErr != nil {
			break
		}
	}
	// Runner goroutines exit promptly once their contexts are
	// cancelled; wait so no checkpoint write is in flight below. A
	// runner wedged inside checkpoint I/O must not wedge the drain,
	// so the wait itself also honours ctx.
	waitCh := make(chan struct{})
	go func() { s.wg.Wait(); close(waitCh) }()
	select {
	case <-waitCh:
	case <-ctx.Done():
		if ctxErr == nil {
			ctxErr = fmt.Errorf("server: drain interrupted while parking jobs: %w", ctx.Err())
		}
		return ctxErr
	}

	// Queued jobs and parks whose write failed still deserve a
	// resumable snapshot: persist their current (possibly empty)
	// prefix.
	s.mu.Lock()
	var pend []*job
	for _, j := range s.order {
		if (j.state == StateQueued || j.state == StateSuspended) && !j.onDisk {
			pend = append(pend, j)
		}
		if j.state == StateQueued {
			j.state = StateSuspended
			j.publishLocked(j.eventLocked())
		}
	}
	s.queue = nil
	s.mu.Unlock()

	var errs []error
	for _, j := range pend {
		snap, err := s.drainSnapshot(j)
		if err == nil {
			err = s.saveWithRetry(j, &checkpoint.Writer{Path: j.ckPath, Fault: s.cfg.Fault}, snap)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", j.id, err))
			continue
		}
		s.mu.Lock()
		j.onDisk = true
		s.mu.Unlock()
	}
	if len(errs) > 0 {
		errs = append(errs, ctxErr)
		return fmt.Errorf("server: drain checkpoints: %w", errors.Join(errs...))
	}
	return ctxErr
}

// drainSnapshot captures a job's current prefix — the in-memory resume
// state, or the empty prefix for a job that never ran.
func (s *Server) drainSnapshot(j *job) (*checkpoint.Snapshot, error) {
	s.mu.Lock()
	r := j.resume
	s.mu.Unlock()
	p := core.Progress{}
	if r != nil {
		p.Cursor = r.Cursor
		p.Front = r.Front
		p.Stats = r.Stats
		p.BestFlex = bestFlexOf(r.Front)
	}
	st, err := j.stamp()
	if err != nil {
		return nil, err
	}
	return st.Capture(p), nil
}

// CheckpointPath returns the snapshot path of a job id, or "" when the
// job is unknown — the hook tests and operators use to resume a
// drained job out of process.
func (s *Server) CheckpointPath(id string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j := s.jobs[id]; j != nil {
		return j.ckPath
	}
	return ""
}
