//go:build race

package pard_test

// raceDetector reports a -race build, under which sync.Pool drops items at
// random and pooled per-request state is rebuilt on a share of requests.
const raceDetector = true
