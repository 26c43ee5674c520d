package main

import "time"

// The machine this benchmark runs on is a small shared VM whose speed
// drifts by tens of percent over seconds to minutes — contention for the
// host's cores and caches that the guest sees neither as stolen time nor
// as load. Raw wall time therefore says more about the neighbours than
// about the program. The reference kernel is the yardstick held up beside
// it: a fixed piece of work that shares no code with the simulator but is
// shaped like it (a binary heap churned under branchy comparisons, random
// reads and writes across a table larger than the L2 cache), run for about
// a millisecond right after each timed segment. Timed metrics are reported
// as the segment's time divided by the kernel's, times refNominal: the
// seconds the segment would take on a machine where the kernel takes its
// nominal time. A change to the program cannot move the kernel, so a
// change in the ratio is a change in the program.
//
// Stolen time is the other half of the noise, and it comes in phases where
// the hypervisor takes a third of every second. The kernel and the
// segments are therefore timed on CPU clocks, which are not charged for
// stolen time (see segment.normalized).

// refNominal is the reference kernel's run time on an undisturbed machine
// of the class this benchmark was sized on. It only sets the unit: with it,
// normalized seconds equal wall seconds when the machine is quiet.
const refNominal = 650 * time.Microsecond

const (
	refHeapSize  = 1 << 14
	refTableSize = 1 << 19 // 4 MB of uint64, more than a core's L2
	// refKernelMB is what the kernel's two arrays hold, which the live
	// heap figure leaves out.
	refKernelMB = 8 * (refHeapSize + refTableSize) / float64(mb)
	refSteps    = 6000
)

// refKernel holds the kernel's state. It allocates once, holds no
// pointers the collector must trace, and never allocates while running, so
// it leaves the measured program's heap and GC cycles alone.
type refKernel struct {
	heap  []uint64
	table []uint64
	state uint64
}

func newRefKernel() *refKernel {
	k := &refKernel{heap: make([]uint64, refHeapSize), table: make([]uint64, refTableSize), state: 88172645463325252}
	for i := range k.heap {
		k.heap[i] = uint64(i) << 20
	}
	for i := range k.table {
		k.table[i] = k.next()
	}
	return k
}

func (k *refKernel) next() uint64 {
	k.state ^= k.state << 13
	k.state ^= k.state >> 7
	k.state ^= k.state << 17
	return k.state
}

// run does one unit of reference work and returns the thread CPU time it
// took.
func (k *refKernel) run() time.Duration {
	t0 := threadCPU()
	h := k.heap
	for s := 0; s < refSteps; s++ {
		// Replace the minimum by a later key drawn through the table, and
		// sift it down: the event heap's pop-and-reschedule.
		slot := k.next() & (refTableSize - 1)
		k.table[slot] += h[0]
		key := h[0] + 1 + k.table[k.next()&(refTableSize-1)]&0xfffff
		i := 0
		for {
			c := 2*i + 1
			if c >= len(h) {
				break
			}
			if c+1 < len(h) && h[c+1] < h[c] {
				c++
			}
			if h[c] >= key {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = key
	}
	return threadCPU() - t0
}
