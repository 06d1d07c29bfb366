// Command perfbench is the repository benchmark: it drives three seeded
// discrete-event workloads through the system's public entry points, checks
// every run's oracles and outcome digests, and prints one JSON result line.
//
//	perfbench --workload broadcast-3k|matrix|churn-soak --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics of the untraced run. With
// --trace 1 it runs the workload once untraced and once traced (layer
// boundaries timed from outside the program), runs the layer probes, and
// reports the per-layer metrics. NOTES.md explains the workloads, metrics and
// starting numbers.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	gort "runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// runDeadline bounds a whole invocation; the run aborts (no result line,
// nonzero exit) rather than overrun it.
const runDeadline = 170 * time.Second

// workload is one benchmark input family.
type workload struct {
	// run executes the untraced measurement loop and returns the
	// end-to-end metrics.
	run func(ctx context.Context, b *bench) (map[string]metric, error)
	// trace executes one untraced and one traced pass and returns the
	// workload's per-layer metrics.
	trace func(ctx context.Context, b *bench) (map[string]metric, error)
}

var workloads = map[string]workload{
	"broadcast-3k": {run: broadcastRun, trace: broadcastTrace},
	"matrix":       {run: matrixRun, trace: matrixTrace},
	"churn-soak":   {run: soakRun, trace: soakTrace},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench carries one invocation's arguments and its check ledger.
type bench struct {
	seed    uint64
	seconds time.Duration
	// parallel is the engine shard and worker count: the host's CPUs,
	// capped at 2 so the load shape does not change with the machine.
	parallel int
	// attempted and failed count every oracle and determinism check;
	// inconsistent is set by a determinism or transparency check, which
	// makes the run's measurements untrustworthy.
	attempted, failed int
	inconsistent      bool
	// ref measures the host's speed around every timed segment.
	ref *hostRef
}

// check records one oracle: a failure counts against the run but the
// measurement stands.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: oracle failed: "+format+"\n", args...)
	}
}

// consistent records one determinism or transparency check.
func (b *bench) consistent(ok bool, format string, args ...any) {
	b.check(ok, format, args...)
	if !ok {
		b.inconsistent = true
	}
}

// passes returns how many measured passes fit in the run's budget for a
// workload whose pass nominally takes nominal, and at least least.
func (b *bench) passes(nominal time.Duration, least int) int {
	return max(least, int(b.seconds/nominal))
}

func main() {
	name := flag.String("workload", "", "broadcast-3k, matrix or churn-soak")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 30, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	b := &bench{seed: *seed, seconds: time.Duration(*seconds) * time.Second, parallel: min(2, gort.NumCPU())}
	b.ref = newHostRef(b.parallel)
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()

	var ms map[string]metric
	var err error
	if *trace == 1 {
		ms, err = w.trace(ctx, b)
		if err == nil {
			addProbes(ms)
			completeLayers(ms)
		}
	} else {
		ms, err = w.run(ctx, b)
		if err == nil {
			ms["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
			for name, unit := range endToEnd {
				if m, ok := ms[name]; !ok || m.Unit != unit {
					err = fmt.Errorf("end-to-end metric %s (%s) missing", name, unit)
				}
			}
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	fmt.Printf("%s: host at %.3f of the reference speed (median of %d samples)\n", *name, 1/median(b.ref.taken), len(b.ref.taken))
	out, err := json.Marshal(result{Correct: !b.inconsistent, Attempted: b.attempted, Failed: b.failed, Metrics: ms})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// cost is what one measured phase consumed on the host.
type cost struct {
	wall, cpu    time.Duration
	allocBytes   uint64
	allocObjects uint64
	gcCPU        float64
	gcCycles     uint64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

type counters struct {
	wall           time.Time
	cpu            time.Duration
	bytes, objects uint64
	gcCPU          float64
	gcCycles       uint64
}

func readCounters() counters {
	metrics.Read(runtimeSamples)
	return counters{
		wall:     time.Now(),
		cpu:      processCPU(),
		bytes:    runtimeSamples[0].Value.Uint64(),
		objects:  runtimeSamples[1].Value.Uint64(),
		gcCPU:    runtimeSamples[2].Value.Float64(),
		gcCycles: runtimeSamples[3].Value.Uint64(),
	}
}

// measure runs fn and returns the host cost it incurred.
func measure(fn func() error) (cost, error) {
	before := readCounters()
	err := fn()
	after := readCounters()
	return cost{
		wall:         after.wall.Sub(before.wall),
		cpu:          after.cpu - before.cpu,
		allocBytes:   after.bytes - before.bytes,
		allocObjects: after.objects - before.objects,
		gcCPU:        after.gcCPU - before.gcCPU,
		gcCycles:     after.gcCycles - before.gcCycles,
	}, err
}

// processCPU returns the process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// segment is the host cost of one deterministic slice of a measured pass:
// a score period (broadcast-3k), a scenario (matrix) or an attack
// (churn-soak). Every pass of a run repeats the same seeded work, so the
// same segment of two passes did identical work.
type segment struct {
	wall, cpu time.Duration
	// wallScale and cpuScale bring the segment's times to the reference
	// host speed (meter.finish).
	wallScale, cpuScale float64
}

// wallSeconds and cpuSeconds return the segment's times at the reference
// speed, in seconds.
func (s segment) wallSeconds() float64 { return s.wall.Seconds() * s.wallScale }
func (s segment) cpuSeconds() float64  { return s.cpu.Seconds() * s.cpuScale }

// typical sums, over the segments, the median over passes of each
// segment's wall and CPU time at the reference speed. A segment's scale
// carries the noise of the short samples around it, so a per-segment
// minimum would pick the passes whose samples ran slow; the median does
// not, and it drops the host bursts the samples miss, which rarely hit the
// same segment of several passes.
func typical(passes [][]segment) (wall, cpu float64) {
	for i := range passes[0] {
		ws := make([]float64, len(passes))
		cs := make([]float64, len(passes))
		for j, p := range passes {
			ws[j], cs[j] = p[i].wallSeconds(), p[i].cpuSeconds()
		}
		wall += median(ws)
		cpu += median(cs)
	}
	return wall, cpu
}

// costMetrics reduces a run's measured passes to the host-cost end-to-end
// metrics: time from the per-segment medians, allocation as the median over
// passes, set-up as the median of the set-up phases in plain host time.
// Set-up is not scaled: heap growth and page faults dominate it, which the
// reference walk does not feel, and scaled set-up medians drifted further
// between two sets of runs than plain ones.
func costMetrics(setups []float64, passes [][]segment, totals []cost) map[string]metric {
	wall, cpu := typical(passes)
	mid := func(f func(cost) float64) float64 {
		xs := make([]float64, len(totals))
		for i, c := range totals {
			xs[i] = f(c)
		}
		return median(xs)
	}
	return map[string]metric{
		"wall_s":   {wall, "s"},
		"setup_s":  {median(setups), "s"},
		"cpu_s":    {cpu, "s"},
		"alloc_mb": {mid(func(c cost) float64 { return float64(c.allocBytes) / (1 << 20) }), "MB"},
		"allocs_m": {mid(func(c cost) float64 { return float64(c.allocObjects) / 1e6 }), "M"},
	}
}

// gcMetrics reports the garbage collector's share of one measured phase.
func gcMetrics(ms map[string]metric, c cost) {
	ms["gc.cpu_s"] = metric{c.gcCPU, "s"}
	ms["gc.cycles"] = metric{float64(c.gcCycles), "count"}
}

// overheadShare is the traced phase's extra wall time as a share of the
// untraced phase's.
func overheadShare(untraced, traced cost) metric {
	return metric{(traced.wall.Seconds() - untraced.wall.Seconds()) / untraced.wall.Seconds(), "ratio"}
}
