//go:build linux

package main

import (
	"syscall"
	"time"
	"unsafe"
)

// Every clock read of the benchmark goes through this file, so the
// nowallclock allowances below are the only ones perf/ carries. Host time
// is what the benchmark measures; it never feeds the simulation. The CPU
// clocks, like the /proc files the harness reads, exist on Linux only,
// hence the build constraint: elsewhere the benchmark does not build.

// now reads the wall clock.
func now() time.Time {
	//lint:allow nowallclock the benchmark measures host time; the reading never reaches simulated code
	return time.Now()
}

// since returns the wall time elapsed since t.
func since(t time.Time) time.Duration { return now().Sub(t) }

// threadCPU returns the CPU time the calling OS thread has consumed. Time
// the hypervisor steals from the virtual CPU is not charged to the thread,
// so unlike wall time this clock does not jump when the host runs another
// guest. The caller must have locked its goroutine to the thread.
func threadCPU() time.Duration { return cpuClock(3) } // CLOCK_THREAD_CPUTIME_ID

// processCPU returns the CPU time all threads of the process have
// consumed, stolen time likewise excluded.
func processCPU() time.Duration { return cpuClock(2) } // CLOCK_PROCESS_CPUTIME_ID

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
