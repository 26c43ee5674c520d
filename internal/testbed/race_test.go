//go:build race

package testbed

func init() { raceDetector = true }
