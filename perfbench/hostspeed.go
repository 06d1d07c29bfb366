package main

import (
	"math/rand/v2"
	"sync"
	"time"
)

// This benchmark was built on a small virtual machine whose physical
// cores, caches and memory are shared with other tenants. Their load
// changes the speed of every instruction the benchmark runs, by 20-35% over
// minutes and with little steal time to show for it: the same seeded pass
// is that much slower in both wall and CPU time. No statistic taken inside a run removes
// a slowdown that outlasts it, so the benchmark measures the host's speed
// between the segments of every pass, with a fixed computation that shares
// no code with the program, and reports each segment's times at a fixed
// reference speed.
//
// The reference is a dependent-load walk over a random cycle the size of
// one core's L2 cache. It is bound by memory latency, as the simulator's
// pointer-heavy per-event work is, so it slows down with the same
// neighbours. Compute-bound references (hashing, sorting) moved with the
// host by half as much as the workloads did.

const (
	// refEntries is the cycle's length: 2 MiB of uint32 links.
	refEntries = 1 << 19
	// refSteps is how many links each walker follows in one sample.
	refSteps = 1 << 16
	// refNominal is one sample's time on an undisturbed host of the kind
	// the benchmark was built on (2 vCPUs of an Intel Xeon with 2 MiB of
	// L2 per core, two walkers). Times are scaled by refNominal over the
	// samples taken around them, so on such a host they read as seconds.
	refNominal = 6 * time.Millisecond
)

// hostRef is the reference computation.
type hostRef struct {
	// walkers is how many goroutines walk at once: the workload's
	// parallelism, so a sample sees every core the workload uses.
	walkers int
	next    []uint32
	sink    []uint32
	// taken is every sample's wall time as a multiple of refNominal.
	taken []float64
}

// newHostRef builds the reference cycle from a fixed seed; Sattolo's
// shuffle gives a single cycle through every entry.
func newHostRef(walkers int) *hostRef {
	r := rand.New(rand.NewPCG(0x5eed, 0xcafe))
	next := make([]uint32, refEntries)
	for i := range next {
		next[i] = uint32(i)
	}
	for i := len(next) - 1; i > 0; i-- {
		j := r.IntN(i)
		next[i], next[j] = next[j], next[i]
	}
	return &hostRef{walkers: walkers, next: next, sink: make([]uint32, walkers)}
}

// sample walks the cycle on every walker at once and returns the wall time
// until the last one finishes and the CPU time they used. The workload is
// parked while it runs, so the process's CPU time is the walkers'.
func (h *hostRef) sample() (wall, cpu time.Duration) {
	start := now()
	var wg sync.WaitGroup
	for w := range h.walkers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := uint32(w * (refEntries / h.walkers))
			for range refSteps {
				p = h.next[p]
			}
			h.sink[w] = p
		}()
	}
	wg.Wait()
	end := now()
	wall, cpu = end.at.Sub(start.at), end.cpu-start.cpu
	h.taken = append(h.taken, float64(wall)/float64(refNominal))
	return wall, cpu
}

// mark is a host clock and CPU reading.
type mark struct {
	at  time.Time
	cpu time.Duration
}

func now() mark { return mark{time.Now(), processCPU()} }

// refWindow is how many reference samples on each side of a segment set its
// scale. One short sample is noisy (a steal burst of a few milliseconds
// doubles it), so a segment's speed is the median of the samples around it.
const refWindow = 3

// meter splits a measured phase into consecutive segments and takes a
// reference sample between every two of them, plus refWindow samples before
// the first and after the last, so that every segment has a full window.
// The samples' own time falls between segments, so it is in no segment.
type meter struct {
	ref   *hostRef
	start mark // when the current segment began
	// raw is each segment's measured cost, before scaling.
	raw []segment
	// walls and cpus are the samples' wall and CPU times; segment i lies
	// between samples refWindow-1+i and refWindow+i.
	walls, cpus []float64
}

// begin takes the leading samples and starts the first segment.
func (m *meter) begin() {
	m.take(refWindow)
	m.start = now()
}

// cut ends the current segment and starts the next.
func (m *meter) cut() {
	end := now()
	m.raw = append(m.raw, segment{wall: end.at.Sub(m.start.at), cpu: end.cpu - m.start.cpu})
	m.take(1)
	m.start = now()
}

func (m *meter) take(n int) {
	for range n {
		wall, cpu := m.ref.sample()
		m.walls = append(m.walls, float64(wall))
		m.cpus = append(m.cpus, float64(cpu))
	}
}

// finish takes the trailing samples and returns the phase's segments with
// their scales: for each, the nominal reference time over the median of
// the refWindow samples on each side of it, wall time by sample wall time
// and CPU time by sample CPU time.
func (m *meter) finish() []segment {
	m.take(refWindow - 1)
	segs := make([]segment, len(m.raw))
	for i, s := range m.raw {
		window := 2 * refWindow
		s.wallScale = float64(refNominal) / median(m.walls[i:i+window])
		s.cpuScale = float64(refNominal) * float64(m.ref.walkers) / median(m.cpus[i:i+window])
		segs[i] = s
	}
	return segs
}
