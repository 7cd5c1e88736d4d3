//go:build !race

package bind

const raceDetector = false
