package strategy

import (
	"time"

	"ibmig/internal/sim"
)

// MaxSpareRetries bounds how many times one trigger's aborted migration is
// retried onto a fresh spare before the job resumes in place.
const MaxSpareRetries = 3

// Retry backoff: the first spare retry of one trigger is immediate (the
// cluster state that doomed the previous attempt has already changed, a
// fresh spare was picked), and the n-th waits retryBackoffBase·2^(n-2),
// capped at retryBackoffCap, before re-entering Phase 2. Purely a function
// of the attempt number, so replays are bit-identical.
const (
	retryBackoffBase = 25 * time.Millisecond
	retryBackoffCap  = 500 * time.Millisecond
)

// RetryDelay returns the wait before the n-th spare retry (n >= 1) of one
// trigger: 0, 25 ms, 50 ms, 100 ms, … capped at 500 ms.
func RetryDelay(n int) sim.Duration {
	if n <= 1 {
		return 0
	}
	d := retryBackoffBase
	for i := 2; i < n && d < retryBackoffCap; i++ {
		d *= 2
	}
	return min(d, retryBackoffCap)
}
