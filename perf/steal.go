package main

import (
	"errors"
	"os"
	"strconv"
	"strings"
)

// Stolen time is CPU the hypervisor gave to another guest while this one
// wanted to run. On a small VM it is the largest source of run-to-run
// spread the benchmark can see but not control, so every child process is
// bracketed by two readings of it and a repeat that lost too much is run
// again instead of being averaged in.

const (
	// maxStealShare is the stolen share of a repeat's wall time above
	// which the repeat is discarded.
	maxStealShare = 0.05
	// userHz is the unit of /proc/stat's counters (USER_HZ, 100 on Linux).
	userHz = 100
)

var errNoStealColumn = errors.New("/proc/stat has no steal column")

// parseSteal returns the aggregate stolen time, in seconds, from the
// contents of /proc/stat: the eighth counter of the "cpu" line, summed
// over all processors.
func parseSteal(procStat string) (float64, error) {
	for _, line := range strings.Split(procStat, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || f[0] != "cpu" {
			continue
		}
		if len(f) < 9 {
			return 0, errNoStealColumn
		}
		ticks, err := strconv.ParseUint(f[8], 10, 64)
		if err != nil {
			return 0, err
		}
		return float64(ticks) / userHz, nil
	}
	return 0, errNoStealColumn
}

// readSteal reads the stolen seconds so far; ok is false where the
// kernel does not report them.
func readSteal() (seconds float64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	s, err := parseSteal(string(data))
	return s, err == nil
}

// stolen reports whether a repeat that took wall seconds while the
// machine lost stolenS seconds is too disturbed to keep.
func stolen(stolenS, wallS float64) bool {
	return wallS > 0 && stolenS/wallS > maxStealShare
}
