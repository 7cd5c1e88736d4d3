package main

import (
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// baseFlags returns a valid default flag set; tests mutate one aspect
// and assert on problems().
func baseFlags() *cliFlags {
	return &cliFlags{
		addr: "localhost:8080", checkpointDir: "/tmp/ck",
		queueDepth: 16, maxRunning: 2, lintMode: "on",
		workers: 1, drainTimeout: 30 * time.Second,
		explicit: map[string]bool{},
	}
}

func TestFlagValidationAccepts(t *testing.T) {
	cases := []func(*cliFlags){
		func(f *cliFlags) {},
		func(f *cliFlags) { f.addr = ":0" },
		func(f *cliFlags) { f.queueDepth = 1; f.maxRunning = 1 },
		func(f *cliFlags) { f.highWater = 12; f.explicit["high-water"] = true },
		func(f *cliFlags) { f.highWater = 16; f.explicit["high-water"] = true },
		func(f *cliFlags) { f.maxDeadline = time.Minute },
		func(f *cliFlags) { f.jobTTL = time.Hour },
		func(f *cliFlags) { f.jobTTL = 0 },
		func(f *cliFlags) { f.workers = 0 },
		func(f *cliFlags) { f.workers = 8 },
		func(f *cliFlags) { f.lintMode = "off" },
		func(f *cliFlags) { f.drainTimeout = time.Second },
	}
	for i, mutate := range cases {
		f := baseFlags()
		mutate(f)
		if probs := f.problems(); len(probs) != 0 {
			t.Errorf("case %d: valid flags rejected: %v", i, probs)
		}
	}
}

func TestFlagValidationRejects(t *testing.T) {
	cases := []struct {
		mutate func(*cliFlags)
		want   string
	}{
		{func(f *cliFlags) { f.addr = "" }, "-addr"},
		{func(f *cliFlags) { f.checkpointDir = "" }, "-checkpoint-dir is required"},
		{func(f *cliFlags) { f.queueDepth = 0 }, "-queue-depth"},
		{func(f *cliFlags) { f.queueDepth = -4 }, "-queue-depth"},
		{func(f *cliFlags) { f.maxRunning = 0 }, "-max-running"},
		{func(f *cliFlags) { f.highWater = -1 }, "-high-water must be >= 0"},
		{func(f *cliFlags) { f.highWater = 17; f.explicit["high-water"] = true }, "must not exceed -queue-depth"},
		{func(f *cliFlags) { f.maxDeadline = -time.Second }, "-max-deadline"},
		{func(f *cliFlags) { f.jobTTL = -time.Minute }, "-job-ttl"},
		{func(f *cliFlags) { f.workers = -1 }, "-workers"},
		{func(f *cliFlags) { f.lintMode = "maybe" }, "-lint"},
		{func(f *cliFlags) { f.drainTimeout = 0 }, "-drain-timeout"},
		{func(f *cliFlags) { f.drainTimeout = -time.Second }, "-drain-timeout"},
	}
	for i, tc := range cases {
		f := baseFlags()
		tc.mutate(f)
		probs := f.problems()
		found := false
		for _, p := range probs {
			if strings.Contains(p, tc.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("case %d: want a problem matching %q, got %v", i, tc.want, probs)
		}
	}
}

// Every rejection must surface all problems at once, not just the first.
func TestFlagValidationReportsAll(t *testing.T) {
	f := baseFlags()
	f.checkpointDir = ""
	f.queueDepth = 0
	f.workers = -1
	if probs := f.problems(); len(probs) < 3 {
		t.Errorf("want >= 3 problems, got %v", probs)
	}
}

// TestHTTPServerTimesOutSlowHeaders: the daemon's server carries the
// fixed header timeout, and under it a connection that never finishes
// its request headers is closed. The behavioural half runs with the
// timeout shortened to keep the test fast.
func TestHTTPServerTimesOutSlowHeaders(t *testing.T) {
	h := http.NotFoundHandler()
	hs := newHTTPServer(h)
	if hs.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout %v, want %v", hs.ReadHeaderTimeout, readHeaderTimeout)
	}
	if hs.Handler == nil {
		t.Fatal("server has no handler")
	}

	hs.ReadHeaderTimeout = 50 * time.Millisecond
	ln, err := net.Listen("tcp", "localhost:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	defer hs.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("POST /jobs HTTP/1.1\r\nHost: x\r\n")); err != nil {
		t.Fatal(err)
	}
	// Closed by the server, the read ends at EOF; left open, it hits
	// the deadline.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("the server kept the partial request open: %v", err)
	}
}
