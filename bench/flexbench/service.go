package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

const (
	// serviceRate is the open loop's arrival rate. On a 2-CPU host the
	// daemon serves it with p90 near 40 ms; at 80 jobs/s p90 is 70 to
	// 130 ms, past the knee.
	serviceRate = 40.0 // jobs per second
	// pollInterval is the client's status poll cadence, which bounds
	// how late a completion is observed.
	pollInterval = time.Millisecond
	// jobTimeout fails a job that has not finished this long after it
	// was due.
	jobTimeout = 60 * time.Second
	// jobTTL is how long the daemon keeps a terminal job in memory; the
	// client has fetched the result within a poll interval of the end.
	// Without it the daemon keeps every job, its memory grows with the
	// window's length, and peak RSS would move with the last few GC
	// cycles instead of settling to the service's steady state.
	jobTTL = time.Second
)

// service is a daemon with its default configuration (queue 16, two
// running jobs, one worker each, lint on) and a jobTTL, served on a
// loopback listener, plus the benchmark's two client connections: one
// submits, one polls.
type service struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	base   string
	submit *http.Client
	poll   *http.Client
}

func newClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
}

// startService starts a daemon and returns once /readyz answers 200.
func startService(checkpointDir string) (*service, error) {
	srv, err := server.New(server.Config{CheckpointDir: checkpointDir, Lint: true, JobTTL: jobTTL})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		submit: newClient(),
		poll:   newClient(),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	for start := time.Now(); ; time.Sleep(pollInterval) {
		code, err := s.get("/readyz", nil)
		if err == nil && code == http.StatusOK {
			return s, nil
		}
		if time.Since(start) > 10*time.Second {
			s.close()
			return nil, fmt.Errorf("service not ready after 10s: %w", statusErr(code, err))
		}
	}
}

// close drains the daemon, stops the listener and waits for it.
func (s *service) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if e := s.hs.Shutdown(ctx); err == nil {
		err = e
	}
	<-s.served
	s.submit.CloseIdleConnections()
	s.poll.CloseIdleConnections()
	return err
}

// statusErr is the error of a request that failed with err or answered
// with a status other than 200.
func statusErr(code int, err error) error {
	if err != nil {
		return err
	}
	return fmt.Errorf("status %d", code)
}

// get fetches path on the poll connection and decodes a JSON body into
// v (nil: discard the body).
func (s *service) get(path string, v any) (int, error) {
	resp, err := s.poll.Get(s.base + path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if v == nil || resp.StatusCode != http.StatusOK {
		_, err = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, err
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(v)
}

// requestBody is the POST /jobs body of t.
func requestBody(t *task, periodicCheckpoint bool) ([]byte, error) {
	return json.Marshal(server.Request{
		Spec:               t.specJSON,
		Exhaustive:         t.exhaustive,
		StopAtMaxFlex:      t.stopAtMaxFlex,
		Workers:            t.workers,
		PeriodicCheckpoint: periodicCheckpoint,
	})
}

// job is one submitted job, as the client observed it.
type job struct {
	task    int // index in the workload's tasks
	ref     *reference
	due     time.Time
	id      string
	sent    time.Time // POST sent
	posted  time.Time // POST answered
	running time.Time // first poll that saw it running; zero if none did
	done    time.Time // first poll that saw it terminal
	polls   int
	result  time.Duration // GET result round trip
	stats   core.Stats
	err     error
}

func (s *service) submitJob(j *job, body []byte) {
	j.sent = time.Now()
	resp, err := s.submit.Post(s.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		j.err = err
		return
	}
	defer resp.Body.Close()
	var v server.JobView
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		j.err = fmt.Errorf("POST /jobs: %d %s", resp.StatusCode, msg)
	} else if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		j.err = fmt.Errorf("POST /jobs: %w", err)
	}
	j.posted = time.Now()
	j.id = v.ID
}

// pollOnce polls j's state, fetching and checking its result once it
// has completed. It reports whether j is finished (or has failed).
func (s *service) pollOnce(j *job) bool {
	j.polls++
	var v server.JobView
	code, err := s.get("/jobs/"+j.id, &v)
	now := time.Now()
	switch {
	case err != nil || code != http.StatusOK:
		j.err = fmt.Errorf("GET /jobs/%s: %w", j.id, statusErr(code, err))
	case v.State == server.StateRunning:
		if j.running.IsZero() {
			j.running = now
		}
		return false
	case v.State == server.StateCompleted:
		j.done = now
		j.err = s.fetchResult(j)
	case v.State.Terminal():
		j.done = now
		j.err = fmt.Errorf("job %s %s: %s", j.id, v.State, v.Error)
	default:
		if now.Sub(j.due) < jobTimeout {
			return false
		}
		j.err = fmt.Errorf("job %s still %s after %s", j.id, v.State, jobTimeout)
	}
	return true
}

// resultDoc is the part of GET /jobs/{id}/result the benchmark reads.
type resultDoc struct {
	summary
	Stats struct {
		Scanned      int                 `json:"scanned"`
		BindingRuns  int                 `json:"bindingRuns"`
		BindingNodes int                 `json:"bindingNodes"`
		Cache        core.CacheStats     `json:"cache"`
		Pipeline     *core.PipelineStats `json:"pipeline"`
	} `json:"stats"`
}

func (s *service) fetchResult(j *job) error {
	start := time.Now()
	var doc resultDoc
	code, err := s.get("/jobs/"+j.id+"/result", &doc)
	j.result = time.Since(start)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("GET /jobs/%s/result: %w", j.id, statusErr(code, err))
	}
	j.stats = core.Stats{
		Scanned:      doc.Stats.Scanned,
		BindingRuns:  doc.Stats.BindingRuns,
		BindingNodes: doc.Stats.BindingNodes,
		Cache:        doc.Stats.Cache,
	}
	if doc.Stats.Pipeline != nil {
		j.stats.Pipeline = *doc.Stats.Pipeline
	}
	if err := j.ref.check(doc.summary); err != nil {
		return fmt.Errorf("job %s: %w", j.id, err)
	}
	return nil
}

// runJob submits one job and polls it to the end.
func (s *service) runJob(j *job, body []byte) {
	if s.submitJob(j, body); j.err != nil {
		return
	}
	for !s.pollOnce(j) {
		time.Sleep(pollInterval)
	}
}

// arrival is one job of the open loop.
type arrival struct {
	due      time.Duration // since the window's start
	task     int
	periodic bool
}

// arrivals draws the service workload's jobs for a window of length d:
// a Poisson process at serviceRate conditioned on exactly rate*d
// arrivals (uniform, sorted due times), so every seed offers the same
// load. The job mix is fixed and only its order is drawn: the jobs
// cycle through the ntasks tasks, and every other job of a synthetic
// task (index >= 2) checkpoints at every progress interval. A drawn mix
// would move the work per job, and with it the memory the daemon keeps
// for its terminal jobs, from seed to seed.
func arrivals(seed int64, d time.Duration, ntasks int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	n := max(1, int(serviceRate*d.Seconds()+0.5))
	out := make([]arrival, n)
	for i := range out {
		task := i % ntasks
		out[i] = arrival{task: task, periodic: task >= 2 && (i/ntasks)%2 == 0}
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	for i := range out {
		out[i].due = time.Duration(rng.Int63n(int64(d)))
	}
	slices.SortFunc(out, func(a, b arrival) int { return cmp.Compare(a.due, b.due) })
	return out
}

// openLoop sends the arrivals on schedule from one goroutine while a
// second polls every submitted job until it ends. It returns every job.
func (s *service) openLoop(seq []arrival, bodies [][2][]byte, refs []*reference) []*job {
	submitted := make(chan *job, len(seq)) // one slot per arrival: the generator never waits on the poller
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.pollAll(submitted)
	}()
	jobs := make([]*job, 0, len(seq))
	t0 := time.Now()
	for _, a := range seq {
		due := t0.Add(a.due)
		time.Sleep(time.Until(due))
		j := &job{task: a.task, ref: refs[a.task], due: due}
		jobs = append(jobs, j)
		p := 0
		if a.periodic {
			p = 1
		}
		if s.submitJob(j, bodies[a.task][p]); j.err == nil {
			submitted <- j
		}
	}
	close(submitted)
	wg.Wait()
	return jobs
}

// pollAll polls the pending jobs round-robin every pollInterval until
// submitted is closed and every job has ended.
func (s *service) pollAll(submitted <-chan *job) {
	var pending []*job
	open := true
	for open || len(pending) > 0 {
		if len(pending) == 0 {
			j, ok := <-submitted
			if !ok {
				return
			}
			pending = append(pending, j)
		}
	drain:
		for open {
			select {
			case j, ok := <-submitted:
				if !ok {
					open = false
					break drain
				}
				pending = append(pending, j)
			default:
				break drain
			}
		}
		kept := pending[:0]
		for _, j := range pending {
			if !s.pollOnce(j) {
				kept = append(kept, j)
			}
		}
		pending = kept
		if len(pending) > 0 {
			time.Sleep(pollInterval)
		}
	}
}

// serverCounters reads the daemon's /stats counters.
func (s *service) serverCounters() (server.Counters, error) {
	var st server.Stats
	code, err := s.get("/stats", &st)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET /stats: %d", code)
	}
	return st.Counters, err
}
