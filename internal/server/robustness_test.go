package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/models"
	"repro/internal/spec"
)

// exhaustive is the slow-job request body: the unpruned settop scan
// (12288 candidates, hundreds of milliseconds sequential) leaves a wide
// window to interrupt mid-run.
const exhaustiveSettop = `{"model": "settop", "workers": 1, "exhaustive": true, "checkpointEvery": 16}`

func exhaustiveOpts() core.Options {
	return core.Options{DisableFlexBound: true, IncludeUselessComm: true}
}

// waitCursor polls until the job has scanned at least n candidates —
// proof it is genuinely mid-run.
func waitCursor(t *testing.T, ts *httptest.Server, id string, n int) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		_, m := get(t, ts, "/jobs/"+id)
		if c, _ := m["cursor"].(float64); int(c) >= n {
			return
		}
		if st, _ := m["state"].(string); State(st).Terminal() {
			t.Fatalf("job %s finished (%s) before reaching cursor %d", id, st, n)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached cursor %d", id, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSuspendResumeBitIdentical: an operator suspend parks the job
// behind a digest-guarded checkpoint; the resumed job finishes with a
// front and semantic counters identical to a never-interrupted run.
func TestSuspendResumeBitIdentical(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{CheckpointDir: dir, Lint: true})
	id := submit(t, ts, exhaustiveSettop)
	waitCursor(t, ts, id, 32)

	if status, m := post(t, ts, "/jobs/"+id+"/suspend", ""); status != http.StatusAccepted {
		t.Fatalf("suspend: status %d (%v)", status, m)
	}
	m := waitState(t, ts, id, StateSuspended)
	if m["checkpointed"] != true {
		t.Fatalf("suspended job has no checkpoint: %v", m)
	}
	cursor := int(m["cursor"].(float64))
	if cursor <= 0 {
		t.Fatalf("suspended at cursor %d", cursor)
	}

	// The on-disk snapshot must be digest-valid and carry the
	// suspension cursor.
	snap, err := checkpoint.Load(s.CheckpointPath(id))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snap.Resume(models.SetTopBox(), exhaustiveOpts()); err != nil {
		t.Fatalf("snapshot fails digest validation: %v", err)
	}
	if snap.Cursor != cursor {
		t.Errorf("snapshot cursor %d, job cursor %d", snap.Cursor, cursor)
	}

	if status, m := post(t, ts, "/jobs/"+id+"/resume", ""); status != http.StatusAccepted {
		t.Fatalf("resume: status %d (%v)", status, m)
	}
	got := fetchResult(t, ts, id)
	requireSameFront(t, got, core.Explore(models.SetTopBox(), exhaustiveOpts()))

	_, jm := get(t, ts, "/jobs/"+id)
	if jm["runSegments"].(float64) < 2 || jm["suspends"].(float64) != 1 {
		t.Errorf("segments/suspends = %v/%v, want >=2/1", jm["runSegments"], jm["suspends"])
	}
	st := s.Snapshot().Counters
	if st.Suspends != 1 || st.Resumes != 1 || st.ResumeFallbacks != 0 {
		t.Errorf("counters = %+v, want 1 suspend, 1 resume, 0 fallbacks", st)
	}
}

// TestShedAndBackpressure: with the queue at the high-water mark the
// scheduler parks the oldest running job (checkpoint-backed) to drain
// the queue faster, and a full queue answers 429 + Retry-After. The
// parked job resumes when pressure drops and still produces the exact
// front. Checkpoint writes are blocked on a gate while the queue-full
// window is asserted, making the 429 deterministic.
func TestShedAndBackpressure(t *testing.T) {
	gate := make(chan struct{})
	s, ts := newTestServer(t, Config{
		MaxRunning: 1,
		QueueDepth: 2,
		HighWater:  2,
		Lint:       true,
		// The first write attempt fails; the backoff sleep blocks on
		// the gate, pinning the shed victim mid-park (its run slot is
		// free but the park has not committed, so the queue cannot be
		// seen to drain by the test) until 429 has been asserted.
		// Closing the gate turns every later sleep into a no-op.
		Fault: faultinject.New().ErrorAt(checkpoint.SiteWrite, 0, nil),
		Retry: checkpoint.RetryPolicy{
			MaxAttempts: 3,
			Sleep:       func(time.Duration) { <-gate },
		},
	})

	victim := submit(t, ts, exhaustiveSettop)
	waitCursor(t, ts, victim, 16)
	q1 := submit(t, ts, `{"model": "settop", "workers": 1}`)
	q2 := submit(t, ts, `{"model": "decoder", "workers": 1}`) // queue = 2 = high water -> shed

	// Wait for the shed to take the victim off its run slot; its park
	// is pinned in the gated retry sleep, so the queue stays full.
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := s.Snapshot()
		if st.Running == 0 && st.QueueLen == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shed never happened: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	status, m := post(t, ts, "/jobs", `{"model": "sdr", "workers": 1}`)
	if status != http.StatusTooManyRequests {
		t.Fatalf("submit on full queue: status %d (%v)", status, m)
	}
	if e := apiErrOf(t, m); e["code"] != CodeQueueFull {
		t.Errorf("code = %v, want %s", e["code"], CodeQueueFull)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz on full queue: %d, want 503", resp.StatusCode)
	}

	close(gate)

	// Pressure drains: the queued jobs run, the shed victim resumes and
	// completes with the exact front despite the interruption and the
	// transient write failure.
	requireSameFront(t, fetchResult(t, ts, q1), core.Explore(models.SetTopBox(), core.Options{}))
	requireSameFront(t, fetchResult(t, ts, q2), core.Explore(models.Decoder(), core.Options{}))
	requireSameFront(t, fetchResult(t, ts, victim), core.Explore(models.SetTopBox(), exhaustiveOpts()))

	c := s.Snapshot().Counters
	if c.Shed != 1 || c.Suspends != 1 || c.RejectedFull != 1 {
		t.Errorf("counters = %+v, want shed=1 suspends=1 rejectedFull=1", c)
	}
	if c.CheckpointRetries == 0 {
		t.Error("the injected transient write failure never surfaced as a retry")
	}
	if _, v := get(t, ts, "/jobs/"+victim); v["sheds"] != float64(1) {
		t.Errorf("victim sheds = %v, want 1", v["sheds"])
	}
}

// TestPanicIsolation: a job that panics inside its run segment fails
// alone; the server keeps scheduling and completing other jobs.
func TestPanicIsolation(t *testing.T) {
	s, ts := newTestServer(t, Config{
		MaxRunning: 2,
		Fault:      faultinject.New().PanicAt(SiteRun, 2, "poisoned job"),
	})
	ok1 := submit(t, ts, `{"model": "settop", "workers": 1}`) // seq 1
	bad := submit(t, ts, `{"model": "settop", "workers": 1}`) // seq 2: panics
	waitState(t, ts, bad, StateFailed)
	_, m := get(t, ts, "/jobs/"+bad)
	if errStr, _ := m["error"].(string); errStr == "" {
		t.Error("failed job carries no error message")
	}
	if status, _ := get(t, ts, "/jobs/"+bad+"/result"); status != http.StatusConflict {
		t.Errorf("result of failed job: status %d, want 409", status)
	}

	requireSameFront(t, fetchResult(t, ts, ok1), core.Explore(models.SetTopBox(), core.Options{}))
	ok2 := submit(t, ts, `{"model": "decoder", "workers": 1}`) // after the panic
	requireSameFront(t, fetchResult(t, ts, ok2), core.Explore(models.Decoder(), core.Options{}))

	c := s.Snapshot().Counters
	if c.PanicsRecovered != 1 || c.Failed != 1 || c.Completed != 2 {
		t.Errorf("counters = %+v, want 1 panic, 1 failed, 2 completed", c)
	}
}

// TestPooledCheckpointPanicFailsOnlyItsJob: a periodic checkpoint save
// that panics inside a 2-worker job's Progress fails that job alone,
// like any other panic in a run segment: the daemon survives and runs
// the next job.
func TestPooledCheckpointPanicFailsOnlyItsJob(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Fault: faultinject.New().PanicAt(checkpoint.SiteRename, 0, "checkpoint boom"),
	})
	bad := submit(t, ts, `{"model":"settop","workers":2,"exhaustive":true,"periodicCheckpoint":true,"checkpointEvery":16}`)
	waitState(t, ts, bad, StateFailed)
	ok := submit(t, ts, `{"model":"settop","workers":1}`)
	requireSameFront(t, fetchResult(t, ts, ok), core.Explore(models.SetTopBox(), core.Options{}))

	c := s.Snapshot().Counters
	if c.PanicsRecovered != 1 || c.Failed != 1 || c.Completed != 1 {
		t.Errorf("counters = %+v, want 1 panic, 1 failed, 1 completed", c)
	}
}

// TestResumeFallback: when the on-disk checkpoint cannot be used (an
// injected server/resume fault), the job still resumes from its
// in-memory state and completes exactly.
func TestResumeFallback(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Fault: faultinject.New().ErrorAt(SiteResume, 1, nil),
	})
	id := submit(t, ts, exhaustiveSettop) // seq 1
	waitCursor(t, ts, id, 32)
	if status, m := post(t, ts, "/jobs/"+id+"/suspend", ""); status != http.StatusAccepted {
		t.Fatalf("suspend: status %d (%v)", status, m)
	}
	waitState(t, ts, id, StateSuspended)
	if status, m := post(t, ts, "/jobs/"+id+"/resume", ""); status != http.StatusAccepted {
		t.Fatalf("resume: status %d (%v)", status, m)
	}
	requireSameFront(t, fetchResult(t, ts, id), core.Explore(models.SetTopBox(), exhaustiveOpts()))
	if c := s.Snapshot().Counters; c.ResumeFallbacks == 0 {
		t.Errorf("counters = %+v, want a resume fallback", c)
	}
}

// TestSuspendCheckpointFailureDegrades: when the suspension checkpoint
// cannot be written at all (server/suspend fault), the job parks with
// in-memory state only — degraded, but never lost.
func TestSuspendCheckpointFailureDegrades(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Fault: faultinject.New().ErrorAt(SiteSuspend, 1, nil),
	})
	id := submit(t, ts, exhaustiveSettop) // seq 1
	waitCursor(t, ts, id, 32)
	if status, m := post(t, ts, "/jobs/"+id+"/suspend", ""); status != http.StatusAccepted {
		t.Fatalf("suspend: status %d (%v)", status, m)
	}
	m := waitState(t, ts, id, StateSuspended)
	if m["checkpointed"] != false {
		t.Fatalf("park should have no checkpoint under the injected fault: %v", m)
	}
	if status, m := post(t, ts, "/jobs/"+id+"/resume", ""); status != http.StatusAccepted {
		t.Fatalf("resume: status %d (%v)", status, m)
	}
	requireSameFront(t, fetchResult(t, ts, id), core.Explore(models.SetTopBox(), exhaustiveOpts()))
	if c := s.Snapshot().Counters; c.CheckpointFailures != 1 {
		t.Errorf("checkpointFailures = %d, want 1", c.CheckpointFailures)
	}
}

// TestGracefulDrain is the SIGTERM-path contract: Shutdown interrupts
// every running job, checkpoints all in-flight work (running, queued,
// parked), and each snapshot resumes out-of-process to a front
// bit-identical to an uninterrupted run. The two running jobs write a
// periodic checkpoint every 16 candidates; their first writes (global
// writes 0 and 1) fail, and the retries wait on a gate that opens only
// once the drain has begun, so neither job can finish first, however
// fast the host. Two periodic retries and two park saves follow, so
// write 6 is always the drain's save of the first queued job: it fails
// once too, and that job must ride the bounded retry.
func TestGracefulDrain(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	plan := faultinject.New().
		ErrorAt(checkpoint.SiteWrite, 0, nil).
		ErrorAt(checkpoint.SiteWrite, 1, nil).
		ErrorAt(checkpoint.SiteWrite, 6, nil)
	s, ts := newTestServer(t, Config{
		CheckpointDir: dir,
		MaxRunning:    2,
		Lint:          true,
		Fault:         plan,
		Retry:         checkpoint.RetryPolicy{MaxAttempts: 3, Sleep: func(time.Duration) { <-gate }},
	})
	const periodicSettop = `{"model": "settop", "workers": 1, "exhaustive": true, "checkpointEvery": 16, "periodicCheckpoint": true}`
	var ids []string
	for i := 0; i < 4; i++ {
		ids = append(ids, submit(t, ts, periodicSettop))
	}
	// Both running jobs are held in their first retry.
	for len(plan.Firings()) < 2 {
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- s.Shutdown(ctx) }()
	for !s.Snapshot().Draining {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}

	if f := plan.Firings(); len(f) != 3 || f[2].Index != 6 {
		t.Fatalf("firings = %+v, want checkpoint writes 0, 1 and 6 failed", f)
	}
	for i, want := range []float64{1, 1, 1, 0} {
		_, m := get(t, ts, "/jobs/"+ids[i])
		if m["checkpointRetries"] != want {
			t.Errorf("%s: checkpointRetries = %v, want %v", ids[i], m["checkpointRetries"], want)
		}
	}

	base := core.Explore(models.SetTopBox(), exhaustiveOpts())
	for _, id := range ids {
		_, m := get(t, ts, "/jobs/"+id)
		if m["state"] != "suspended" {
			t.Fatalf("%s left in state %v after drain", id, m["state"])
		}
		if m["checkpointed"] != true {
			t.Fatalf("%s has no checkpoint after drain: %v", id, m)
		}
		snap, err := checkpoint.Load(s.CheckpointPath(id))
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		res, err := snap.Resume(models.SetTopBox(), exhaustiveOpts())
		if err != nil {
			t.Fatalf("%s: snapshot fails digest validation: %v", id, err)
		}
		resumed := core.Explore(models.SetTopBox(), core.Options{
			DisableFlexBound: true, IncludeUselessComm: true, Resume: res,
		})
		requireSameFront(t, baselineDoc(t, resumed), base)
	}
	if c := s.Snapshot().Counters; c.CheckpointRetries != 3 {
		t.Errorf("counters = %+v, want the three injected write failures retried", c)
	}
}

// TestDrainDeadline: a drain whose context expires still returns (with
// an error) instead of hanging, force-cancelling the stragglers.
func TestDrainDeadline(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	s, ts := newTestServer(t, Config{
		// Pin the park in its retry sleep so the drain cannot finish.
		Fault: faultinject.New().ErrorAt(checkpoint.SiteWrite, -1, nil),
		Retry: checkpoint.RetryPolicy{MaxAttempts: 1000, Sleep: func(time.Duration) { <-gate }},
	})
	id := submit(t, ts, exhaustiveSettop)
	waitCursor(t, ts, id, 16)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Shutdown(ctx) }()
	select {
	case err := <-done:
		if err == nil {
			t.Error("expired drain returned nil error")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("drain hung past its context deadline")
	}
}

// TestChaos is the acceptance stress: many concurrent jobs over a small
// shedding server with transient checkpoint-write failures, operator
// suspends racing completion, queue-full backpressure handled by
// resubmission, and a mid-run drain — after which every job has either
// completed with the exact front or left a digest-valid checkpoint that
// resumes to it. Zero lost jobs, under -race.
func TestChaos(t *testing.T) {
	type kind struct {
		body     string
		spec     func() *spec.Spec
		opts     core.Options
		parallel bool
	}
	kinds := []kind{
		{`{"model": "settop", "workers": 1, "exhaustive": true, "checkpointEvery": 16}`,
			models.SetTopBox, exhaustiveOpts(), false},
		{`{"model": "settop", "workers": 2, "exhaustive": true, "checkpointEvery": 16}`,
			models.SetTopBox, exhaustiveOpts(), true},
		{`{"model": "settop", "workers": 1}`, models.SetTopBox, core.Options{}, false},
		{`{"model": "synthetic", "seed": 7, "workers": 1, "periodicCheckpoint": true, "checkpointEvery": 32}`,
			func() *spec.Spec { return models.Synthetic(models.DefaultSynthetic(7)) }, core.Options{}, false},
		{`{"model": "sdr", "workers": 1}`, models.SDR, core.Options{}, false},
		{`{"model": "decoder", "workers": 1}`, models.Decoder, core.Options{}, false},
		{`{"model": "settop", "workers": 1, "exhaustive": true, "checkpointEvery": 16}`,
			models.SetTopBox, exhaustiveOpts(), false},
		{`{"model": "synthetic", "seed": 11, "workers": 2, "checkpointEvery": 32}`,
			func() *spec.Spec { return models.Synthetic(models.DefaultSynthetic(11)) }, core.Options{}, true},
		{`{"model": "settop", "workers": 1, "exhaustive": true, "checkpointEvery": 16}`,
			models.SetTopBox, exhaustiveOpts(), false},
	}
	s, ts := newTestServer(t, Config{
		MaxRunning: 2,
		QueueDepth: 4,
		HighWater:  3,
		Lint:       true,
		// Two transient write failures at distinct global write indices;
		// both must be absorbed by the bounded retry.
		Fault: faultinject.New().
			ErrorAt(checkpoint.SiteWrite, 0, nil).
			ErrorAt(checkpoint.SiteWrite, 3, nil).
			ErrorAt(checkpoint.SiteRename, 5, nil),
		Retry: checkpoint.RetryPolicy{MaxAttempts: 4, Sleep: func(time.Duration) {}},
	})

	// Submit all jobs, riding the 429 backpressure like a real client.
	ids := make([]string, len(kinds))
	for i, k := range kinds {
		for {
			status, m := post(t, ts, "/jobs", k.body)
			if status == http.StatusAccepted {
				ids[i] = m["id"].(string)
				break
			}
			if status != http.StatusTooManyRequests {
				t.Fatalf("submit %d: status %d (%v)", i, status, m)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Operator chaos: shower every job with suspends and resumes while
	// the scheduler sheds under queue pressure. 409s (wrong state) are
	// expected and fine — the point is racing interruptions against
	// completions without corrupting any result.
	for round := 0; round < 5; round++ {
		for _, id := range ids {
			resp, err := http.Post(ts.URL+"/jobs/"+id+"/suspend", "application/json", nil)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			resp, err = http.Post(ts.URL+"/jobs/"+id+"/resume", "application/json", nil)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Let roughly half the fleet finish, then pull the plug mid-run.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if s.Snapshot().Counters.Completed >= len(kinds)/2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("fleet never reached half completion")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Zero lost jobs: every admitted job either completed with the
	// exact front, or was parked with a digest-valid checkpoint that
	// resumes to it out of process.
	completed, parked := 0, 0
	for i, id := range ids {
		k := kinds[i]
		// An interrupted parallel pipeline legitimately enumerates a
		// little past its committed cursor, so suspended-and-resumed
		// parallel jobs can overshoot the scan-effort counters; their
		// fronts must still be exact.
		check := func(got map[string]any, want *core.Result) {
			if k.parallel {
				if g, w := frontJSON(t, got), frontJSON(t, baselineDoc(t, want)); g != w {
					t.Errorf("%s: front differs from baseline:\n got %s\nwant %s", id, g, w)
				}
				if g, w := got["maxFlexibility"], baselineDoc(t, want)["maxFlexibility"]; g != w {
					t.Errorf("%s: maxFlexibility = %v, want %v", id, g, w)
				}
			} else {
				requireSameFront(t, got, want)
			}
		}
		_, m := get(t, ts, "/jobs/"+id)
		switch m["state"] {
		case "completed":
			completed++
			check(fetchResult(t, ts, id), core.Explore(k.spec(), k.opts))
		case "suspended":
			parked++
			if m["checkpointed"] != true {
				t.Fatalf("%s parked without a checkpoint: %v", id, m)
			}
			snap, err := checkpoint.Load(s.CheckpointPath(id))
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			res, err := snap.Resume(k.spec(), k.opts)
			if err != nil {
				t.Fatalf("%s: snapshot fails digest validation: %v", id, err)
			}
			opts := k.opts
			opts.Resume = res
			check(baselineDoc(t, core.Explore(k.spec(), opts)), core.Explore(k.spec(), k.opts))
		default:
			t.Fatalf("%s lost: state %v (%v)", id, m["state"], m)
		}
	}
	t.Logf("chaos: %d completed, %d parked, counters %+v", completed, parked, s.Snapshot().Counters)
	if completed+parked != len(kinds) {
		t.Fatalf("%d+%d jobs accounted, want %d", completed, parked, len(kinds))
	}

	c := s.Snapshot().Counters
	if c.Admitted != len(kinds) {
		t.Errorf("admitted = %d, want %d", c.Admitted, len(kinds))
	}
	if c.Suspends == 0 {
		t.Error("chaos run never suspended a job")
	}
	if c.CheckpointRetries == 0 {
		t.Error("the injected transient write failures never hit the retry path")
	}
	if c.Failed != 0 || c.Cancelled != 0 {
		t.Errorf("counters = %+v, want no failed or cancelled jobs", c)
	}
}

// TestCheckpointFilesLandInDir: the server writes its snapshots under
// the configured directory, one per suspended job.
func TestCheckpointFilesLandInDir(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{CheckpointDir: dir})
	id := submit(t, ts, exhaustiveSettop)
	waitCursor(t, ts, id, 32)
	if status, m := post(t, ts, "/jobs/"+id+"/suspend", ""); status != http.StatusAccepted {
		t.Fatalf("suspend: status %d (%v)", status, m)
	}
	waitState(t, ts, id, StateSuspended)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "job-1.ck.json" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("checkpoint dir holds %v, want [job-1.ck.json]", names)
	}
	if s.CheckpointPath(id) == "" {
		t.Error("CheckpointPath returned empty for a known job")
	}
	// Cancel the parked job so the test tears down promptly.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
}

// TestProgressEventWireShape guards the ProgressEvent encoding used by
// the SSE stream and the /stats job views.
func TestProgressEventWireShape(t *testing.T) {
	ev := ProgressEvent{JobID: "j-1", State: StateRunning, Cursor: 5, FrontSize: 2}
	b, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"jobId"`, `"state"`, `"cursor"`, `"frontSize"`} {
		if !strings.Contains(string(b), key) {
			t.Errorf("event JSON %s misses %s", b, key)
		}
	}
}
