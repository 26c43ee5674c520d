//go:build race

package arp

func init() { raceDetector = true }
