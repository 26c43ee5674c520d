//go:build race

package stack

func init() { raceDetector = true }
