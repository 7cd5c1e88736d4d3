package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bind"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/models"
	"repro/internal/spec"
)

// newTestServer builds a server plus an httptest front-end. The zero
// Config fields get test-friendly defaults: a TempDir checkpoint
// directory and the lint preflight enabled.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.CheckpointDir == "" {
		cfg.CheckpointDir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// post submits body to path and returns the status plus decoded JSON.
func post(t *testing.T, ts *httptest.Server, path, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil && err != io.EOF {
		t.Fatalf("decoding %s response: %v", path, err)
	}
	return resp.StatusCode, m
}

func get(t *testing.T, ts *httptest.Server, path string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil && err != io.EOF {
		t.Fatalf("decoding %s response: %v", path, err)
	}
	return resp.StatusCode, m
}

// submit posts a job request and returns its id, failing on non-202.
func submit(t *testing.T, ts *httptest.Server, body string) string {
	t.Helper()
	status, m := post(t, ts, "/jobs", body)
	if status != http.StatusAccepted {
		t.Fatalf("submit %s: status %d (%v)", body, status, m)
	}
	id, _ := m["id"].(string)
	if id == "" {
		t.Fatalf("submit response has no id: %v", m)
	}
	return id
}

// waitState polls the job until it reaches want or the deadline trips.
func waitState(t *testing.T, ts *httptest.Server, id string, want ...State) map[string]any {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		_, m := get(t, ts, "/jobs/"+id)
		st, _ := m["state"].(string)
		for _, w := range want {
			if st == string(w) {
				return m
			}
		}
		if State(st).Terminal() {
			t.Fatalf("job %s reached terminal state %q, want one of %v (%v)", id, st, want, m)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q, want one of %v", id, st, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// fetchResult GETs /jobs/{id}/result until it answers 200 and returns
// the decoded result document.
func fetchResult(t *testing.T, ts *httptest.Server, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/jobs/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			var m map[string]any
			if err := json.Unmarshal(body, &m); err != nil {
				t.Fatalf("result not JSON: %v\n%s", err, body)
			}
			return m
		case http.StatusAccepted:
			if time.Now().After(deadline) {
				t.Fatalf("job %s never completed", id)
			}
			time.Sleep(2 * time.Millisecond)
		default:
			t.Fatalf("result %s: status %d: %s", id, resp.StatusCode, body)
		}
	}
}

// frontJSON extracts the canonical front encoding from a result
// document (HTTP) or a *core.Result (baseline) for byte comparison.
// The per-behaviour binding witnesses are dropped first: the front
// contract (allocation, cost, flexibility, clusters — the repo-wide
// frontsEqual notion) is exact across resume splits, but a binding
// search restarted on a cold cache may pick a different, equally valid
// witness for the same behaviour.
func frontJSON(t *testing.T, doc map[string]any) string {
	t.Helper()
	entries, _ := doc["front"].([]any)
	canon := make([]map[string]any, 0, len(entries))
	for _, e := range entries {
		em, _ := e.(map[string]any)
		ce := map[string]any{}
		for k, v := range em {
			if k != "behaviours" {
				ce[k] = v
			}
		}
		canon = append(canon, ce)
	}
	b, err := json.Marshal(canon)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func baselineDoc(t *testing.T, r *core.Result) map[string]any {
	t.Helper()
	data, err := r.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// requireSameFront compares a job's served result against a directly
// computed baseline: byte-identical front and equal semantic effort
// counters (telemetry like cache hits may differ across resume splits).
func requireSameFront(t *testing.T, got map[string]any, want *core.Result) {
	t.Helper()
	wd := baselineDoc(t, want)
	if g, w := frontJSON(t, got), frontJSON(t, wd); g != w {
		t.Errorf("front differs from baseline:\n got %s\nwant %s", g, w)
	}
	if g, w := got["maxFlexibility"], wd["maxFlexibility"]; g != w {
		t.Errorf("maxFlexibility = %v, want %v", g, w)
	}
	if g, w := got["cursor"], wd["cursor"]; g != w {
		t.Errorf("cursor = %v, want %v", g, w)
	}
	// The counters core.Stats.Semantic keeps. Scanned is telemetry: a
	// parallel run's producer walks ahead of its commit stage.
	gs, _ := got["stats"].(map[string]any)
	ws, _ := wd["stats"].(map[string]any)
	for _, k := range []string{"designSpace", "allocSpace", "possibleAllocations", "estimated", "attempted", "feasible", "ecsTested"} {
		if gs[k] != ws[k] {
			t.Errorf("stats.%s = %v, want %v", k, gs[k], ws[k])
		}
	}
}

func apiErrOf(t *testing.T, m map[string]any) map[string]any {
	t.Helper()
	e, _ := m["error"].(map[string]any)
	if e == nil {
		t.Fatalf("response is not an error document: %v", m)
	}
	return e
}

// TestSubmitToResult: the happy path — submit a settop job, watch it
// complete, and require the served result to match a direct
// core.Explore run exactly.
func TestSubmitToResult(t *testing.T) {
	_, ts := newTestServer(t, Config{Lint: true})
	resp, err := http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"model": "settop", "workers": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/jobs/j-1" {
		t.Errorf("Location = %q, want /jobs/j-1", loc)
	}
	got := fetchResult(t, ts, "j-1")
	requireSameFront(t, got, core.Explore(models.SetTopBox(), core.Options{}))
	if got["reason"] != "completed" {
		t.Errorf("reason = %v, want completed", got["reason"])
	}
}

// requireLegacyFieldsIgnored submits each body, which carries some of
// the documented no-op fields "enumerator", "producers" and "batch",
// and checks that it is admitted, completes, and returns the same
// front as a request without them.
func requireLegacyFieldsIgnored(t *testing.T, ts *httptest.Server, bodies ...string) {
	t.Helper()
	plain := fetchResult(t, ts, submit(t, ts, `{"model": "settop", "workers": 1}`))
	want := core.Explore(models.SetTopBox(), core.Options{})
	for _, body := range bodies {
		got := fetchResult(t, ts, submit(t, ts, body))
		if g, w := frontJSON(t, got), frontJSON(t, plain); g != w {
			t.Errorf("%s: front differs from the plain request:\n got %s\nwant %s", body, g, w)
		}
		requireSameFront(t, got, want)
		if got["reason"] != "completed" {
			t.Errorf("%s: reason = %v, want completed", body, got["reason"])
		}
	}
}

// TestSubmitSymbolicEnumerator: "enumerator" is a documented no-op. A
// request naming any enumerator, even an unknown or mistyped one, is
// admitted and returns the default front.
func TestSubmitSymbolicEnumerator(t *testing.T) {
	_, ts := newTestServer(t, Config{Lint: true})
	requireLegacyFieldsIgnored(t, ts,
		`{"model": "settop", "workers": 1, "enumerator": "symbolic"}`,
		`{"model": "settop", "workers": 1, "enumerator": "bitset"}`,
		`{"model": "settop", "workers": 1, "enumerator": "bdd"}`,
		`{"model": "settop", "workers": 1, "enumerator": 7}`,
	)
}

// TestSubmitShardedProducers: "producers" is a documented no-op. A
// request asking for any shard count is admitted, returns the default
// front, and its pipeline stats report no sharded producers.
func TestSubmitShardedProducers(t *testing.T) {
	_, ts := newTestServer(t, Config{Lint: true})
	requireLegacyFieldsIgnored(t, ts,
		`{"model": "settop", "workers": 1, "producers": 2}`,
		`{"model": "settop", "workers": 1, "producers": -2}`,
		`{"model": "settop", "workers": 1, "producers": "four"}`,
		`{"model": "settop", "workers": 1, "enumerator": "symbolic", "producers": 2}`,
	)
	got := fetchResult(t, ts, submit(t, ts, `{"model": "settop", "workers": 1, "producers": 2}`))
	stats, _ := got["stats"].(map[string]any)
	if stats == nil {
		t.Fatalf("result carries no stats: %v", got)
	}
	// A single-worker run reports no pipeline block at all; when one is
	// present it must not claim sharded producers.
	pipe, _ := stats["pipeline"].(map[string]any)
	if p, ok := pipe["producers"]; ok {
		t.Errorf("pipeline.producers = %v, want it absent", p)
	}
}

// TestSubmitBatchIgnored: "batch" is a documented no-op. A request
// pinning any range size, even a negative or mistyped one, is admitted
// and returns the default front, sequentially and in parallel.
func TestSubmitBatchIgnored(t *testing.T) {
	_, ts := newTestServer(t, Config{Lint: true})
	requireLegacyFieldsIgnored(t, ts,
		`{"model": "settop", "workers": 1, "batch": 4}`,
		`{"model": "settop", "workers": 2, "batch": 1}`,
		`{"model": "settop", "workers": 2, "batch": -1}`,
		`{"model": "settop", "workers": 2, "batch": "large"}`,
		`{"model": "settop", "workers": 1, "producers": 2, "batch": 64}`,
	)
}

// TestLintAdmission: a structurally valid but defective specification
// (SL001 corpus: an unreachable leaf) is rejected at the door with 422
// and the full diagnostic report.
func TestLintAdmission(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", "lint", "SL001.json"))
	if err != nil {
		t.Fatal(err)
	}
	// The corpus file must stay strict-parse clean for this test to
	// exercise the lint gate rather than the structural one.
	if _, err := spec.Read(bytes.NewReader(raw)); err != nil {
		t.Fatalf("SL001 corpus no longer passes strict read: %v", err)
	}

	s, ts := newTestServer(t, Config{Lint: true})
	status, m := post(t, ts, "/jobs", fmt.Sprintf(`{"spec": %s}`, raw))
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422 (%v)", status, m)
	}
	e := apiErrOf(t, m)
	if e["code"] != CodeLint {
		t.Errorf("code = %v, want %s", e["code"], CodeLint)
	}
	diags, _ := e["diagnostics"].([]any)
	if len(diags) == 0 {
		t.Error("422 carries no diagnostics")
	}
	if n := s.Snapshot().Counters.RejectedLint; n != 1 {
		t.Errorf("rejectedLint = %d, want 1", n)
	}

	// With the preflight disabled the same specification is admitted —
	// the gate, not the spec reader, was the rejector.
	_, ts2 := newTestServer(t, Config{})
	if status, m := post(t, ts2, "/jobs", fmt.Sprintf(`{"spec": %s, "workers": 1}`, raw)); status != http.StatusAccepted {
		t.Fatalf("lint-off submit: status %d (%v)", status, m)
	}
}

// TestAdmissionRejections walks the 4xx admission table.
func TestAdmissionRejections(t *testing.T) {
	s, ts := newTestServer(t, Config{Lint: true, MaxDeadline: time.Minute})
	cases := []struct {
		name   string
		body   string
		status int
		code   string
	}{
		{"not json", `{"model": `, http.StatusBadRequest, CodeMalformed},
		{"unknown field", `{"model": "settop", "maxScans": 5}`, http.StatusBadRequest, CodeMalformed},
		{"trailing data", `{"model": "settop"} {"model": "settop"}`, http.StatusBadRequest, CodeMalformed},
		{"spec and model", `{"model": "settop", "spec": {"name": "x"}}`, http.StatusBadRequest, CodeMalformed},
		{"neither spec nor model", `{"workers": 2}`, http.StatusBadRequest, CodeMalformed},
		{"unknown model", `{"model": "warehouse"}`, http.StatusBadRequest, CodeMalformed},
		{"invalid spec", `{"spec": {"name": "broken"}}`, http.StatusBadRequest, CodeBadSpec},
		{"negative workers", `{"model": "settop", "workers": -1}`, http.StatusBadRequest, CodeBadBudget},
		{"negative scan budget", `{"model": "settop", "maxScan": -5}`, http.StatusBadRequest, CodeBadBudget},
		{"negative deadline", `{"model": "settop", "deadlineMs": -1}`, http.StatusBadRequest, CodeBadBudget},
		{"deadline above cap", `{"model": "settop", "deadlineMs": 6000000}`, http.StatusBadRequest, CodeBadBudget},
		{"negative cadence", `{"model": "settop", "checkpointEvery": -2}`, http.StatusBadRequest, CodeBadBudget},
		{"unknown timing", `{"model": "settop", "timing": "bogus"}`, http.StatusBadRequest, CodeBadBudget},
		{"exhaustive stopping at max flexibility", `{"model": "settop", "exhaustive": true, "stopAtMaxFlex": true}`, http.StatusBadRequest, CodeBadBudget},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, m := post(t, ts, "/jobs", tc.body)
			if status != tc.status {
				t.Fatalf("status %d, want %d (%v)", status, tc.status, m)
			}
			if e := apiErrOf(t, m); e["code"] != tc.code {
				t.Errorf("code = %v, want %s", e["code"], tc.code)
			}
		})
	}
	st := s.Snapshot()
	if st.Counters.RejectedInvalid != len(cases) {
		t.Errorf("rejectedInvalid = %d, want %d", st.Counters.RejectedInvalid, len(cases))
	}
	if st.Counters.Admitted != 0 {
		t.Errorf("admitted = %d, want 0", st.Counters.Admitted)
	}
}

// TestWorkersCappedAtAdmission: a job's worker budget is capped at
// GOMAXPROCS, so an absurd request cannot make the pool allocate
// channel slots and goroutines by the billion.
func TestWorkersCappedAtAdmission(t *testing.T) {
	s, _ := newTestServer(t, Config{DefaultWorkers: 1 << 20})
	procs := runtime.GOMAXPROCS(0)
	for _, body := range []string{
		`{"model": "settop", "workers": 1000000000}`,
		`{"model": "settop"}`,
	} {
		_, j, aerr := s.parseRequest(strings.NewReader(body))
		if aerr != nil {
			t.Fatalf("%s: refused: %+v", body, aerr)
		}
		if j.workers != procs {
			t.Errorf("%s: job.workers = %d, want GOMAXPROCS = %d", body, j.workers, procs)
		}
	}
	if _, j, aerr := s.parseRequest(strings.NewReader(`{"model": "settop", "workers": 1}`)); aerr != nil || j.workers != 1 {
		t.Errorf("workers 1: job = %+v, err %+v; want 1 worker", j, aerr)
	}
}

// TestRequestTiming: "timing" takes every bind.ParseTiming name, and
// an absent one selects the paper's test.
func TestRequestTiming(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	for body, want := range map[string]bind.TimingPolicy{
		`{"model": "settop"}`:                         bind.TimingPaper,
		`{"model": "settop", "timing": "none"}`:       bind.TimingNone,
		`{"model": "settop", "timing": "ll"}`:         bind.TimingLiuLayland,
		`{"model": "settop", "timing": "rta"}`:        bind.TimingRTA,
		`{"model": "settop", "timing": "edf"}`:        bind.TimingEDF,
		`{"model": "settop", "timing": "hyperbolic"}`: bind.TimingHyperbolic,
	} {
		if _, j, aerr := s.parseRequest(strings.NewReader(body)); aerr != nil || j.opts.Timing != want {
			t.Errorf("%s: job %+v, err %+v; want timing %v", body, j, aerr, want)
		}
	}
}

// TestLookupErrors: 404s and wrong-state 409s.
func TestLookupErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if status, m := get(t, ts, "/jobs/j-99"); status != http.StatusNotFound {
		t.Errorf("get unknown: status %d (%v)", status, m)
	}
	if status, _ := get(t, ts, "/jobs/j-99/result"); status != http.StatusNotFound {
		t.Errorf("result unknown: status %d", status)
	}
	id := submit(t, ts, `{"model": "decoder", "workers": 1}`)
	waitState(t, ts, id, StateCompleted)
	if status, m := post(t, ts, "/jobs/"+id+"/suspend", ""); status != http.StatusConflict {
		t.Errorf("suspend completed job: status %d (%v)", status, m)
	}
	if status, m := post(t, ts, "/jobs/"+id+"/resume", ""); status != http.StatusConflict {
		t.Errorf("resume completed job: status %d (%v)", status, m)
	}
}

// TestHealthEndpoints: /healthz is unconditional, /readyz tracks
// drain state.
func TestHealthEndpoints(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if status, m := get(t, ts, "/healthz"); status != http.StatusOK || m["status"] != "ok" {
		t.Errorf("healthz: %d %v", status, m)
	}
	if status, m := get(t, ts, "/readyz"); status != http.StatusOK || m["status"] != "ready" {
		t.Errorf("readyz: %d %v", status, m)
	}
	if err := s.Shutdown(t.Context()); err != nil {
		t.Fatal(err)
	}
	if status, m := get(t, ts, "/readyz"); status != http.StatusServiceUnavailable || m["status"] != "draining" {
		t.Errorf("readyz while draining: %d %v", status, m)
	}
	status, m := post(t, ts, "/jobs", `{"model": "settop"}`)
	if status != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: status %d (%v)", status, m)
	}
	if e := apiErrOf(t, m); e["code"] != CodeDraining {
		t.Errorf("code = %v, want %s", e["code"], CodeDraining)
	}
	if n := s.Snapshot().Counters.RejectedDraining; n != 1 {
		t.Errorf("rejectedDraining = %d, want 1", n)
	}
}

// TestDeadlineCompletesWithPartialFront: a job whose wall-clock budget
// expires mid-scan completes (never fails) with the exact Pareto front
// of the prefix it covered.
func TestDeadlineCompletesWithPartialFront(t *testing.T) {
	_, ts := newTestServer(t, Config{Lint: true})
	id := submit(t, ts, `{"model": "settop", "workers": 1, "exhaustive": true, "deadlineMs": 120, "checkpointEvery": 8}`)
	got := fetchResult(t, ts, id)
	if got["interrupted"] != true || got["reason"] != "deadline" {
		t.Skipf("scan finished inside the deadline on this machine (reason=%v)", got["reason"])
	}
	cursor := int(got["cursor"].(float64))
	if cursor <= 0 {
		t.Fatalf("deadline job made no progress (cursor %d)", cursor)
	}
	// The partial front must be the exact front of the prefix
	// [0, cursor): reproduce it with a direct scan interrupted at the
	// same possible-candidate index. (MaxScan would not do — it counts
	// BDD search nodes visited, a different unit than the candidate
	// cursor.)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base := core.ExploreContext(ctx, models.SetTopBox(), core.Options{
		DisableFlexBound: true, IncludeUselessComm: true,
		Fault: faultinject.New().CancelAt(core.SiteEstimate, cursor).Bind(cancel),
	})
	if base.Cursor != cursor {
		t.Fatalf("baseline interrupt missed: cursor %d, want %d", base.Cursor, cursor)
	}
	if g, w := frontJSON(t, got), frontJSON(t, baselineDoc(t, base)); g != w {
		t.Errorf("partial front is not the exact prefix front:\n got %s\nwant %s", g, w)
	}
}

// TestCancel: DELETE cancels queued and running jobs; the result
// endpoint answers 409 for them.
func TestCancel(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxRunning: 1})
	running := submit(t, ts, `{"model": "settop", "workers": 1, "exhaustive": true}`)
	queued := submit(t, ts, `{"model": "settop", "workers": 1}`)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+queued, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel queued: status %d", resp.StatusCode)
	}
	waitState(t, ts, queued, StateCancelled)

	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+running, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel running: status %d", resp.StatusCode)
	}
	waitState(t, ts, running, StateCancelled)

	status, m := get(t, ts, "/jobs/"+running+"/result")
	if status != http.StatusConflict {
		t.Errorf("result of cancelled job: status %d (%v)", status, m)
	}
}

// TestConcurrentCancelFinalizesOnce: racing DELETEs of the same queued
// job must finalize it exactly once — a double finalize used to close
// j.done twice, panicking with the server mutex held and deadlocking
// every later request.
func TestConcurrentCancelFinalizesOnce(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxRunning: 1})
	running := submit(t, ts, `{"model": "settop", "workers": 1, "exhaustive": true}`)
	queued := submit(t, ts, `{"model": "settop", "workers": 1}`)

	const racers = 8
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+queued, nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Errorf("concurrent cancel: %v", err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("concurrent cancel: status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()

	waitState(t, ts, queued, StateCancelled)
	if c := s.Snapshot().Counters; c.Cancelled != 1 {
		t.Errorf("cancelled counter = %d, want 1", c.Cancelled)
	}
	// The server must still be serving: the blocked running job finishes.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+running, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState(t, ts, running, StateCancelled)
}

// TestResumeWhileDraining: a drain parks jobs for an out-of-process
// restart; accepting a resume then would silently never honour it, so
// the API refuses with 503 draining.
func TestResumeWhileDraining(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxRunning: 1})
	id := submit(t, ts, `{"model": "settop", "workers": 1, "exhaustive": true}`)
	waitState(t, ts, id, StateRunning)
	if status, m := post(t, ts, "/jobs/"+id+"/suspend", ""); status != http.StatusAccepted {
		t.Fatalf("suspend: status %d (%v)", status, m)
	}
	waitState(t, ts, id, StateSuspended)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	status, m := post(t, ts, "/jobs/"+id+"/resume", "")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("resume while draining: status %d (%v), want 503", status, m)
	}
	if errObj, _ := m["error"].(map[string]any); errObj["code"] != CodeDraining {
		t.Errorf("resume while draining: code %v, want %q", m, CodeDraining)
	}
}

// TestStatsDocument: the /stats gauges and per-job views.
func TestStatsDocument(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueDepth: 8, MaxRunning: 2, HighWater: 6})
	id := submit(t, ts, `{"model": "settop", "workers": 1}`)
	waitState(t, ts, id, StateCompleted)
	status, m := get(t, ts, "/stats")
	if status != http.StatusOK {
		t.Fatalf("stats: status %d", status)
	}
	if m["queueCap"] != float64(8) || m["highWater"] != float64(6) || m["lowWater"] != float64(3) {
		t.Errorf("gauges wrong: %v", m)
	}
	counters, _ := m["counters"].(map[string]any)
	if counters["admitted"] != float64(1) || counters["completed"] != float64(1) {
		t.Errorf("counters wrong: %v", counters)
	}
	jobs, _ := m["jobs"].([]any)
	if len(jobs) != 1 {
		t.Fatalf("jobs len %d, want 1", len(jobs))
	}
	jv, _ := jobs[0].(map[string]any)
	if jv["id"] != id || jv["state"] != "completed" || jv["spec"] != "settop" {
		t.Errorf("job view wrong: %v", jv)
	}
}

// TestEventsStream: the SSE stream opens with the current state and
// ends with the terminal event.
func TestEventsStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := submit(t, ts, `{"model": "settop", "workers": 1, "checkpointEvery": 64}`)
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body) // server closes the stream at the terminal event
	if err != nil {
		t.Fatal(err)
	}
	frames := strings.Split(strings.TrimSpace(string(body)), "\n\n")
	if len(frames) == 0 {
		t.Fatal("no SSE frames")
	}
	var last ProgressEvent
	for _, f := range frames {
		for _, line := range strings.Split(f, "\n") {
			if data, ok := strings.CutPrefix(line, "data: "); ok {
				if err := json.Unmarshal([]byte(data), &last); err != nil {
					t.Fatalf("bad SSE data %q: %v", data, err)
				}
			}
		}
	}
	if last.State != StateCompleted || last.JobID != id {
		t.Errorf("terminal event = %+v", last)
	}
	base := core.Explore(models.SetTopBox(), core.Options{})
	if last.Cursor != base.Cursor || last.FrontSize != len(base.Front) {
		t.Errorf("terminal event cursor/front = %d/%d, want %d/%d",
			last.Cursor, last.FrontSize, base.Cursor, len(base.Front))
	}
}

// TestConfigValidation: New rejects nonsensical configurations.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("want error for missing CheckpointDir")
	}
	if _, err := New(Config{CheckpointDir: t.TempDir(), QueueDepth: 4, HighWater: 9}); err == nil {
		t.Error("want error for HighWater above QueueDepth")
	}
}

// TestJobTTLEviction: terminal jobs past the TTL vanish from the
// registry (404, gone from /stats) while fresher and non-terminal jobs
// survive. The sweep is driven with explicit clocks so the test never
// sleeps through a real TTL.
func TestJobTTLEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{JobTTL: time.Minute})
	old := submit(t, ts, `{"model": "settop", "workers": 1}`)
	fresh := submit(t, ts, `{"model": "settop", "workers": 1}`)
	waitState(t, ts, old, StateCompleted)
	waitState(t, ts, fresh, StateCompleted)

	// Pin the terminal timestamps so the sweep decision is deterministic:
	// "old" expired exactly at base+TTL, "fresh" has 30s left.
	base := time.Now()
	s.mu.Lock()
	s.jobs[old].doneAt = base
	s.jobs[fresh].doneAt = base.Add(30 * time.Second)
	s.mu.Unlock()

	if n := s.sweep(base.Add(time.Minute)); n != 1 {
		t.Fatalf("sweep evicted %d jobs, want 1", n)
	}
	if status, m := get(t, ts, "/jobs/"+old); status != http.StatusNotFound {
		t.Errorf("GET evicted job: status %d (%v), want 404", status, m)
	}
	if status, _ := get(t, ts, "/jobs/"+fresh); status != http.StatusOK {
		t.Errorf("GET fresh job: status %d, want 200", status)
	}
	st := s.Snapshot()
	if st.Counters.Evicted != 1 {
		t.Errorf("evicted counter = %d, want 1", st.Counters.Evicted)
	}
	if len(st.Jobs) != 1 || st.Jobs[0].ID != fresh {
		t.Errorf("stats jobs = %+v, want only %s", st.Jobs, fresh)
	}

	// Idempotent at the same instant; a non-terminal job is never
	// evicted no matter how stale its clock looks.
	if n := s.sweep(base.Add(time.Minute)); n != 0 {
		t.Errorf("second sweep evicted %d jobs, want 0", n)
	}
	s.mu.Lock()
	s.jobs[fresh].state = StateRunning
	s.jobs[fresh].doneAt = base.Add(-time.Hour)
	s.mu.Unlock()
	if n := s.sweep(base.Add(time.Hour)); n != 0 {
		t.Errorf("sweep evicted a non-terminal job")
	}
	s.mu.Lock()
	s.jobs[fresh].state = StateCompleted
	s.mu.Unlock()

	// Eviction frees memory, not disk: the checkpoint file (if any)
	// and a zero-TTL server's jobs are untouched.
	s0, ts0 := newTestServer(t, Config{})
	id0 := submit(t, ts0, `{"model": "settop", "workers": 1}`)
	waitState(t, ts0, id0, StateCompleted)
	if n := s0.sweep(time.Now().Add(24 * time.Hour)); n != 0 {
		t.Errorf("zero-TTL sweep evicted %d jobs, want 0", n)
	}
}
