// Command explored serves the anytime exploration runtime as a
// fault-tolerant HTTP/JSON daemon (internal/server): admission control
// with a lint preflight and a bounded queue, per-job wall-clock /
// worker / scan budgets, load shedding through checkpoint-backed
// suspend/resume, per-job panic isolation, and a graceful SIGTERM
// drain that checkpoints every in-flight job before exit.
//
// Usage:
//
//	explored -addr :8080 -checkpoint-dir /var/lib/explored
//	curl -d '{"model":"settop"}' http://localhost:8080/jobs
//	curl http://localhost:8080/jobs/j-1/result
//
// The API (endpoints, job state machine, error codes) is documented in
// docs/explored-api.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/server"
)

// cliFlags carries the parsed command line for validation; explicit
// indicates which flags the user actually set (flag.Visit), so
// incompatible-combination checks do not misfire on defaults.
type cliFlags struct {
	addr          string
	checkpointDir string
	queueDepth    int
	maxRunning    int
	highWater     int
	maxDeadline   time.Duration
	jobTTL        time.Duration
	workers       int
	lintMode      string
	drainTimeout  time.Duration
	explicit      map[string]bool
}

// problems returns every reason the flag combination is rejected; a
// non-empty result exits with status 2 before the server starts.
func (f *cliFlags) problems() []string {
	var out []string
	if f.addr == "" {
		out = append(out, "-addr must not be empty")
	}
	if f.checkpointDir == "" {
		out = append(out, "-checkpoint-dir is required (the suspend/resume and drain snapshots land there)")
	}
	if f.queueDepth <= 0 {
		out = append(out, "-queue-depth must be > 0")
	}
	if f.maxRunning <= 0 {
		out = append(out, "-max-running must be > 0")
	}
	if f.highWater < 0 {
		out = append(out, "-high-water must be >= 0 (0 selects 3/4 of -queue-depth)")
	}
	if f.explicit["high-water"] && f.highWater > f.queueDepth {
		out = append(out, fmt.Sprintf("-high-water %d must not exceed -queue-depth %d", f.highWater, f.queueDepth))
	}
	if f.maxDeadline < 0 {
		out = append(out, "-max-deadline must be >= 0 (0 = no default and no cap)")
	}
	if f.jobTTL < 0 {
		out = append(out, "-job-ttl must be >= 0 (0 keeps terminal jobs forever)")
	}
	if f.workers < 0 {
		out = append(out, "-workers must be >= 0 (0 selects GOMAXPROCS per job)")
	}
	if f.lintMode != "on" && f.lintMode != "off" {
		out = append(out, "-lint must be on or off")
	}
	if f.drainTimeout <= 0 {
		out = append(out, "-drain-timeout must be > 0 (the SIGTERM drain needs time to checkpoint in-flight jobs)")
	}
	return out
}

// readHeaderTimeout bounds how long a connection may take to send a
// request's headers, so a client that opens connections and sends
// partial requests cannot hold their goroutines and read buffers
// indefinitely. It does not bound a request body's read or a
// response, so the SSE progress streams run as long as the job.
const readHeaderTimeout = 10 * time.Second

// newHTTPServer returns the daemon's HTTP server over h.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout}
}

func main() {
	os.Exit(run())
}

// run is main minus the exit, so deferred cleanup runs on every path.
func run() int {
	addr := flag.String("addr", "localhost:8080", "listen address")
	ckDir := flag.String("checkpoint-dir", "", "directory for job checkpoints (required)")
	queueDepth := flag.Int("queue-depth", 16, "admission queue bound; a full queue answers 429 + Retry-After")
	maxRunning := flag.Int("max-running", 2, "concurrently running jobs")
	highWater := flag.Int("high-water", 0, "queue length that triggers load shedding (0 = 3/4 of -queue-depth)")
	maxDeadline := flag.Duration("max-deadline", 0, "default and cap for per-job wall-clock budgets (0 = none)")
	jobTTL := flag.Duration("job-ttl", 0, "evict terminal jobs from memory after this long (0 = keep forever); checkpoint files stay on disk")
	workers := flag.Int("workers", 1, "default per-job worker budget (0 = GOMAXPROCS, 1 = sequential)")
	lintMode := flag.String("lint", "on", "admission lint preflight: on | off (defective specs are rejected with 422)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "bound on the SIGTERM graceful drain")
	flag.Parse()

	fl := &cliFlags{
		addr: *addr, checkpointDir: *ckDir, queueDepth: *queueDepth,
		maxRunning: *maxRunning, highWater: *highWater, maxDeadline: *maxDeadline,
		jobTTL: *jobTTL, workers: *workers, lintMode: *lintMode, drainTimeout: *drainTimeout,
		explicit: map[string]bool{},
	}
	flag.Visit(func(f *flag.Flag) { fl.explicit[f.Name] = true })
	if probs := fl.problems(); len(probs) > 0 {
		for _, p := range probs {
			fmt.Fprintln(os.Stderr, "explored:", p)
		}
		return 2
	}

	// server.Config maps DefaultWorkers <= 0 to 1 (sequential); resolve
	// the documented "-workers 0 = GOMAXPROCS per job" here.
	if *workers == 0 {
		*workers = runtime.GOMAXPROCS(0)
	}

	logger := log.New(os.Stderr, "explored: ", log.LstdFlags)
	srv, err := server.New(server.Config{
		CheckpointDir:  *ckDir,
		QueueDepth:     *queueDepth,
		MaxRunning:     *maxRunning,
		HighWater:      *highWater,
		MaxDeadline:    *maxDeadline,
		JobTTL:         *jobTTL,
		DefaultWorkers: *workers,
		Lint:           *lintMode != "off",
		Logf:           logger.Printf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "explored:", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "explored:", err)
		return 1
	}
	hs := newHTTPServer(srv.Handler())
	logger.Printf("listening on http://%s (checkpoints in %s)", ln.Addr(), *ckDir)

	// SIGTERM/SIGINT starts the graceful drain: stop admitting, suspend
	// every running job through a digest-guarded checkpoint, persist the
	// queued and suspended remainder, then close the listener. A second
	// signal (or the drain timeout) forces exit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "explored:", err)
		return 1
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second signal kills us
	logger.Printf("signal received; draining (timeout %s)", *drainTimeout)

	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	code := 0
	if err := srv.Shutdown(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "explored: drain:", err)
		code = 1
	} else {
		logger.Printf("drain complete; all in-flight jobs checkpointed")
	}
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "explored:", err)
		code = 1
	}
	<-serveErr // Serve has returned http.ErrServerClosed
	return code
}
