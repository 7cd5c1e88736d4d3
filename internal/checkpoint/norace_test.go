//go:build !race

package checkpoint

const raceDetector = false
