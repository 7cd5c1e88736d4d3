//go:build race

package checkpoint

// raceDetector reports a -race build. Its sync.Pool drops a random
// share of the entries put back, so a save's allocation count varies
// from run to run and the allocation pins skip.
const raceDetector = true
