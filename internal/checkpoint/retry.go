package checkpoint

import (
	"fmt"
	"math/rand"
	"time"
)

// RetryPolicy bounds the retries of a checkpoint save and shapes the
// backoff between attempts. Transient filesystem errors (a full page
// cache, a slow NFS rename, an injected fault) should not cost a
// long-running job its snapshot, so callers on the serving path wrap
// Save in SaveWithRetry; the jittered exponential backoff decorrelates
// concurrent writers that failed together.
//
// The policy is deterministic by construction: the jitter comes from a
// seeded generator (never the process-global source) and the sleeps go
// through an injectable Sleep, so tests can record the exact delay
// sequence. The zero value selects the defaults.
type RetryPolicy struct {
	// MaxAttempts is the total number of Save attempts (1 = no retry);
	// <= 0 selects 3.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; it doubles per
	// further retry. <= 0 selects 10ms.
	BaseDelay time.Duration
	// MaxDelay caps the un-jittered backoff; <= 0 selects 1s.
	MaxDelay time.Duration
	// Seed seeds the jitter generator. Concurrent writers should use
	// distinct seeds so their retries spread out; equal seeds are still
	// correct, just synchronized.
	Seed int64
	// Sleep is called with each backoff delay; nil selects time.Sleep.
	// Tests inject a recorder to make the schedule observable.
	Sleep func(time.Duration)
	// OnRetry, if non-nil, is called after each failed attempt that
	// will be retried, with the 1-based attempt number and its error —
	// the hook the server uses to count retries in /stats.
	OnRetry func(attempt int, err error)
}

func (p RetryPolicy) maxAttempts() int {
	if p.MaxAttempts <= 0 {
		return 3
	}
	return p.MaxAttempts
}

func (p RetryPolicy) baseDelay() time.Duration {
	if p.BaseDelay <= 0 {
		return 10 * time.Millisecond
	}
	return p.BaseDelay
}

func (p RetryPolicy) maxDelay() time.Duration {
	if p.MaxDelay <= 0 {
		return time.Second
	}
	return p.MaxDelay
}

// backoff returns the jittered delay before retry number retry (1-based):
// equal-jitter over an exponential schedule, d/2 + uniform[0, d/2] where
// d = min(BaseDelay << (retry-1), MaxDelay).
func (p RetryPolicy) backoff(retry int, rng *rand.Rand) time.Duration {
	d := p.baseDelay()
	for i := 1; i < retry && d < p.maxDelay(); i++ {
		d *= 2
	}
	if d > p.maxDelay() {
		d = p.maxDelay()
	}
	half := d / 2
	return half + time.Duration(rng.Int63n(int64(half)+1))
}

// SaveWithRetry is Save under the retry policy: up to MaxAttempts
// attempts with jittered exponential backoff in between. Each attempt
// is a full Save, so the atomic write-rename guarantee holds throughout
// — a reader observes either the previous snapshot or the new one, no
// matter which attempt succeeded. Exhausting the attempts returns the
// last error, wrapped with the attempt count.
func (w *Writer) SaveWithRetry(snap *Snapshot, pol RetryPolicy) error {
	var rng *rand.Rand // seeded at the first retry: most saves never need it
	sleep := pol.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	var err error
	for attempt := 1; ; attempt++ {
		err = w.Save(snap)
		if err == nil {
			return nil
		}
		if attempt >= pol.maxAttempts() {
			return fmt.Errorf("checkpoint: save %s failed after %d attempt(s): %w", w.Path, attempt, err)
		}
		if pol.OnRetry != nil {
			pol.OnRetry(attempt, err)
		}
		if rng == nil {
			rng = rand.New(rand.NewSource(pol.Seed))
		}
		sleep(pol.backoff(attempt, rng))
	}
}
