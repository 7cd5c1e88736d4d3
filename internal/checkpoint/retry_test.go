package checkpoint

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/models"
)

// retrySnapshot builds a valid snapshot to exercise the writer with.
func retrySnapshot(t *testing.T) *Snapshot {
	t.Helper()
	s := models.SetTopBox()
	snap, err := FromResult(s, core.Options{}, core.Explore(s, core.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestSaveWithRetryRecoversTransientWrite: the first write attempt
// fails at the checkpoint/write site, the retry succeeds, and the file
// on disk is a loadable snapshot.
func TestSaveWithRetryRecoversTransientWrite(t *testing.T) {
	snap := retrySnapshot(t)
	path := filepath.Join(t.TempDir(), "ck.json")
	plan := faultinject.New().ErrorAt(SiteWrite, 0, nil)
	w := &Writer{Path: path, Fault: plan}

	var slept []time.Duration
	var retried []int
	pol := RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   8 * time.Millisecond,
		Sleep:       func(d time.Duration) { slept = append(slept, d) },
		OnRetry:     func(attempt int, err error) { retried = append(retried, attempt) },
	}
	if err := w.SaveWithRetry(snap, pol); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err != nil {
		t.Fatalf("snapshot unreadable after retried save: %v", err)
	}
	if len(slept) != 1 {
		t.Fatalf("slept %v times, want exactly 1 backoff", len(slept))
	}
	if len(retried) != 1 || retried[0] != 1 {
		t.Fatalf("OnRetry calls = %v, want [1]", retried)
	}
	if got := len(plan.Firings()); got != 1 {
		t.Fatalf("fired %d rules, want 1", got)
	}
}

// TestSaveWithRetryRecoversTransientRename: same, for the
// checkpoint/rename site (the temp file was written, the rename failed).
func TestSaveWithRetryRecoversTransientRename(t *testing.T) {
	snap := retrySnapshot(t)
	path := filepath.Join(t.TempDir(), "ck.json")
	w := &Writer{Path: path, Fault: faultinject.New().ErrorAt(SiteRename, 0, nil)}
	pol := RetryPolicy{Sleep: func(time.Duration) {}}
	if err := w.SaveWithRetry(snap, pol); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err != nil {
		t.Fatalf("snapshot unreadable after retried save: %v", err)
	}
}

// TestSaveWithRetryExhausted: a persistent failure surfaces the last
// error (wrapping the injected sentinel) after exactly MaxAttempts
// attempts and MaxAttempts-1 sleeps.
func TestSaveWithRetryExhausted(t *testing.T) {
	snap := retrySnapshot(t)
	path := filepath.Join(t.TempDir(), "ck.json")
	w := &Writer{Path: path, Fault: faultinject.New().ErrorAt(SiteWrite, -1, nil)}

	var slept []time.Duration
	retries := 0
	pol := RetryPolicy{
		MaxAttempts: 4,
		Sleep:       func(d time.Duration) { slept = append(slept, d) },
		OnRetry:     func(int, error) { retries++ },
	}
	err := w.SaveWithRetry(snap, pol)
	if err == nil {
		t.Fatal("want error after exhausting attempts")
	}
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("error %v does not wrap the injected sentinel", err)
	}
	if len(slept) != 3 || retries != 3 {
		t.Fatalf("slept %d times, OnRetry %d times; want 3 and 3", len(slept), retries)
	}
}

// TestSaveWithRetryDeterministicSchedule: the same policy produces the
// same jittered delay sequence on every run — the seeded generator and
// the injected sleeper make the backoff fully reproducible.
func TestSaveWithRetryDeterministicSchedule(t *testing.T) {
	snap := retrySnapshot(t)
	schedule := func(seed int64) []time.Duration {
		w := &Writer{
			Path:  filepath.Join(t.TempDir(), "ck.json"),
			Fault: faultinject.New().ErrorAt(SiteWrite, -1, nil),
		}
		var slept []time.Duration
		pol := RetryPolicy{
			MaxAttempts: 5,
			BaseDelay:   10 * time.Millisecond,
			MaxDelay:    40 * time.Millisecond,
			Seed:        seed,
			Sleep:       func(d time.Duration) { slept = append(slept, d) },
		}
		if err := w.SaveWithRetry(snap, pol); err == nil {
			t.Fatal("want exhaustion")
		}
		return slept
	}
	a, b := schedule(7), schedule(7)
	if len(a) != 4 {
		t.Fatalf("want 4 backoffs, got %v", a)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule not deterministic: %v vs %v", a, b)
		}
	}
	// Equal-jitter bounds: delay i sits in [d/2, d] for the exponential
	// un-jittered d capped at MaxDelay.
	caps := []time.Duration{10, 20, 40, 40}
	for i, d := range a {
		hi := caps[i] * time.Millisecond
		if d < hi/2 || d > hi {
			t.Errorf("backoff %d = %v outside [%v, %v]", i, d, hi/2, hi)
		}
	}
}

// TestSaveWithRetryFirstAttemptClean: a healthy writer neither sleeps
// nor reports retries.
func TestSaveWithRetryFirstAttemptClean(t *testing.T) {
	snap := retrySnapshot(t)
	w := &Writer{Path: filepath.Join(t.TempDir(), "ck.json")}
	pol := RetryPolicy{
		Sleep:   func(time.Duration) { t.Error("unexpected sleep") },
		OnRetry: func(int, error) { t.Error("unexpected retry") },
	}
	if err := w.SaveWithRetry(snap, pol); err != nil {
		t.Fatal(err)
	}
}

// TestSaveWithRetryAllocatesLikeSave: a save that succeeds at the first
// attempt costs no more allocations under SaveWithRetry than a plain
// Save — the jitter generator is seeded only when a retry needs it.
func TestSaveWithRetryAllocatesLikeSave(t *testing.T) {
	if raceDetector {
		t.Skip("a -race build's sync.Pool drops entries at random; the no-race CI step runs this pin")
	}
	snap := retrySnapshot(t)
	w := &Writer{Path: filepath.Join(t.TempDir(), "ck.json")}
	save := testing.AllocsPerRun(50, func() {
		if err := w.Save(snap); err != nil {
			t.Fatal(err)
		}
	})
	retry := testing.AllocsPerRun(50, func() {
		if err := w.SaveWithRetry(snap, RetryPolicy{}); err != nil {
			t.Fatal(err)
		}
	})
	if retry > save {
		t.Fatalf("SaveWithRetry allocates %v times per save, Save %v", retry, save)
	}
}
