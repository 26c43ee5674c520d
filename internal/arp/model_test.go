package arp

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
	"time"

	"mosquitonet/internal/bufpool"
	"mosquitonet/internal/ip"
	"mosquitonet/internal/link"
	"mosquitonet/internal/sim"
)

// The resolutions in flight are a list walked on every miss and every ARP
// frame; this test holds them to a map oracle keyed by address — what the
// table was — over seeded runs with several resolutions out at once, replies
// and gratuitous announcements in any order, retries running out, and late
// words for addresses already given up on.

// Timing: a run starts 5 ms past a 10 ms boundary and moves in whole 10 ms
// steps, so no operation shares an instant with the retry lane's buckets. A
// resolution begun at s asks at s, s+105ms and s+205ms and gives up at
// s+305ms (RequestTimeout 100 ms rounded up to the lane, MaxRetries 3).
const (
	modelTimeout = 100 * time.Millisecond
	modelRetries = 3
	modelQueue   = 3
)

// modelResolution is the oracle's view of one address being resolved.
type modelResolution struct {
	began  sim.Time
	queued []uint32
}

// asked is how many requests the resolution has sent by now.
func (r *modelResolution) asked(now sim.Time) int {
	return min(modelRetries, 1+int((now-r.began-sim.Time(5*time.Millisecond))/sim.Time(modelTimeout)))
}

// over reports whether the resolution has given up by now.
func (r *modelResolution) over(now sim.Time) bool {
	return now-r.began > sim.Time(modelRetries*modelTimeout)
}

// resolutionOutcomes counts what a run exercised.
type resolutionOutcomes struct {
	maxInFlight, outOfOrder, failures, lateWords, overflows int
}

// neighbour is a device that never answers ARP on its own — the run speaks
// for it — and records the sequence numbers delivered to it.
type neighbour struct {
	addr ip.Addr
	dev  *link.Device
	got  []uint32
}

func runResolutions(t *testing.T, seed int64) (out resolutionOutcomes) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	loop := sim.New(seed)
	n := link.NewNetwork(loop, "net", link.Ethernet())
	a := newHost(t, loop, n, "a", "10.0.0.1", Config{RequestTimeout: modelTimeout, MaxRetries: modelRetries, MaxPending: modelQueue})
	nbs := make([]*neighbour, 5)
	for i := range nbs {
		nb := &neighbour{addr: ip.Addr{10, 0, 0, byte(10 + i)}, dev: link.NewDevice(loop, "nb", 0, 0)}
		nb.dev.SetReceiver(func(f *link.Frame) {
			if f.Type == link.EtherTypeIPv4 {
				nb.got = append(nb.got, binary.BigEndian.Uint32(f.Payload))
			}
		})
		nb.dev.Attach(n)
		nb.dev.BringUp(nil)
		nbs[i] = nb
	}
	loop.RunFor(5 * time.Millisecond)

	var (
		seq       uint32
		want      = make([][]uint32, len(nbs)) // what each neighbour must receive, in order
		resolved  = make([]bool, len(nbs))     // a holds a fresh entry
		abandoned = make([]bool, len(nbs))     // the last resolution gave up
		resolving = map[int]*modelResolution{}
		oracle    Stats
	)
	// settle ends, in the oracle, every resolution past its last retry.
	settle := func() {
		for i, r := range resolving {
			if r.over(loop.Now()) {
				oracle.RequestsSent += modelRetries
				oracle.ResolveFailures++
				oracle.PacketsDropped += uint64(len(r.queued))
				delete(resolving, i)
				abandoned[i] = true
				out.failures++
			}
		}
	}
	// word delivers neighbour i's reply to a, or its gratuitous request.
	word := func(i int, gratuitous bool) {
		nb := nbs[i]
		m := Message{Op: OpReply, SenderHW: nb.dev.HW(), SenderIP: nb.addr, TargetHW: a.dev.HW(), TargetIP: a.addrs[0]}
		if gratuitous {
			m = Message{Op: OpRequest, SenderHW: nb.dev.HW(), SenderIP: nb.addr, TargetIP: nb.addr}
		}
		switch r := resolving[i]; {
		case r != nil: // flushes the queue, whatever the word
			for _, o := range resolving {
				if o.began < r.began {
					out.outOfOrder++
					break
				}
			}
			want[i] = append(want[i], r.queued...)
			oracle.RequestsSent += uint64(r.asked(loop.Now()))
			delete(resolving, i)
			resolved[i] = true
		case abandoned[i]:
			out.lateWords++
			fallthrough
		default: // a reply is addressed to a and learned; an announcement refreshes only
			resolved[i] = resolved[i] || !gratuitous
		}
		a.cache.HandleFrame(&link.Frame{Type: link.EtherTypeARP, Payload: m.Marshal()})
	}
	check := func(step int) {
		t.Helper()
		var listed, oracleDsts []ip.Addr
		for p := a.cache.pend; p != nil; p = p.next {
			r := resolving[int(p.dst[3])-10]
			if r == nil || len(p.payloads) != len(r.queued) || int(p.tries) != r.asked(loop.Now()) {
				t.Fatalf("seed %d step %d: resolution of %v holds %d packets after %d requests; oracle %+v",
					seed, step, p.dst, len(p.payloads), p.tries, r)
			}
			listed = append(listed, p.dst)
		}
		for i := range resolving {
			oracleDsts = append(oracleDsts, nbs[i].addr)
		}
		cmp := func(x, y ip.Addr) int { return int(x[3]) - int(y[3]) }
		slices.SortFunc(listed, cmp)
		slices.SortFunc(oracleDsts, cmp)
		if !slices.Equal(listed, oracleDsts) || inFlight(t, a.cache) != len(resolving) {
			t.Fatalf("seed %d step %d: resolving %v, oracle %v", seed, step, listed, oracleDsts)
		}
		requests := oracle.RequestsSent
		for _, r := range resolving {
			requests += uint64(r.asked(loop.Now()))
		}
		if st := a.cache.Stats(); st.RequestsSent != requests || st.ResolveFailures != oracle.ResolveFailures || st.PacketsDropped != oracle.PacketsDropped {
			t.Fatalf("seed %d step %d: stats %+v, oracle requests %d failures %d dropped %d",
				seed, step, st, requests, oracle.ResolveFailures, oracle.PacketsDropped)
		}
		freePending(t, loop)
	}

	for step := 0; step < 400; step++ {
		i := rng.Intn(len(nbs))
		switch op := rng.Intn(16); {
		case op < 7: // send to neighbour i
			seq++
			b := bufpool.For(loop).Get(4)
			binary.BigEndian.PutUint32(b, seq)
			switch r := resolving[i]; {
			case resolved[i]:
				want[i] = append(want[i], seq)
			case r == nil:
				resolving[i] = &modelResolution{began: loop.Now(), queued: []uint32{seq}}
				abandoned[i] = false
			case len(r.queued) < modelQueue:
				r.queued = append(r.queued, seq)
			default:
				oracle.PacketsDropped++
				out.overflows++
			}
			a.cache.SendIP(nbs[i].addr, b, 0)
		case op < 9:
			word(i, false)
		case op < 11:
			word(i, true)
		case op < 12: // forget neighbour i
			resolved[i] = false
			a.cache.Delete(nbs[i].addr)
		default:
			loop.RunFor(time.Duration(1+rng.Intn(15)) * 10 * time.Millisecond)
			settle()
		}
		out.maxInFlight = max(out.maxInFlight, len(resolving))
		check(step)
	}
	loop.RunFor(time.Second)
	settle()
	check(-1)
	for i, nb := range nbs {
		if !slices.Equal(nb.got, want[i]) {
			t.Fatalf("seed %d: %v received %v, oracle %v", seed, nb.addr, nb.got, want[i])
		}
	}
	return out
}

// TestResolutionsMatchMapOracle runs seeded sequences and checks they
// reached every case: three or more resolutions in flight at once, a reply
// to one that is not the oldest, a full queue, retries running out, and a
// late word for an address given up on.
func TestResolutionsMatchMapOracle(t *testing.T) {
	var total resolutionOutcomes
	for seed := int64(1); seed <= 30; seed++ {
		o := runResolutions(t, seed)
		total.maxInFlight = max(total.maxInFlight, o.maxInFlight)
		total.outOfOrder += o.outOfOrder
		total.failures += o.failures
		total.lateWords += o.lateWords
		total.overflows += o.overflows
	}
	t.Logf("%+v", total)
	if total.maxInFlight < 3 || total.outOfOrder == 0 || total.failures == 0 || total.lateWords == 0 || total.overflows == 0 {
		t.Fatalf("the runs missed a case: %+v", total)
	}
}
