//go:build race

package bind

// raceDetector reports a -race build, under which the differential
// grid checks a stride of its views.
const raceDetector = true
