package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// The sharded tests drive a toy flooding protocol through the engine's
// delivery path: every node logs what it sees (receipts, timers, deferred
// globals), and the concatenated logs form a fingerprint that must be
// byte-identical for every shard count — the engine's core contract.

const twin = 2 * time.Millisecond // lookahead window of the toy workload

type toyNet struct {
	e       *Engine
	nodes   []*toyNode
	globals []string // appended only in the global phase (single-threaded)
}

type toyNode struct {
	net   *toyNet
	id    int32
	ctx   Context
	log   []string
	state uint64
}

// Deliver is the toy protocol: log the receipt, fold it into node state,
// forward the hop-decremented payload to two pseudo-random targets, and
// occasionally arm a self-timer or defer a global action. It runs on the
// destination shard's goroutine; everything it touches is owned by node
// `to` except the engine's own scheduling entry points.
func (t *toyNet) Deliver(from, to int32, payload any, size int32) {
	n := t.nodes[to]
	hop := payload.(int)
	n.log = append(n.log, fmt.Sprintf("n%d recv hop=%d from=%d at=%v", to, hop, from, n.ctx.Now()))
	n.state = n.state*31 + uint64(from)*7 + uint64(hop)
	if hop == 0 {
		return
	}
	for k := 0; k < 2; k++ {
		tgt := (int(to)*5 + hop*13 + k*3) % len(t.nodes)
		d := twin + time.Duration(n.state%5)*time.Millisecond
		t.e.Deliver(to, int32(tgt), d, t, hop-1, size)
	}
	if n.state%3 == 0 {
		n.ctx.After(time.Duration(n.state%2)*time.Millisecond, func() {
			n.log = append(n.log, fmt.Sprintf("n%d timer at=%v", n.id, n.ctx.Now()))
		})
	}
	if n.state%7 == 0 {
		id := n.id
		t.e.DeferGlobal(int(id), func() {
			t.globals = append(t.globals, fmt.Sprintf("global from=%d at=%v", id, t.e.Now()))
		})
	}
}

func runToy(s int, drive func(e *Engine)) *toyNet {
	e := NewSharded(s, twin)
	t := &toyNet{e: e}
	const nodes = 24
	for i := 0; i < nodes; i++ {
		t.nodes = append(t.nodes, &toyNode{net: t, id: int32(i), ctx: e.Domain(i)})
	}
	for i := 0; i < nodes; i += 3 {
		e.Deliver(int32(i), int32((i+1)%nodes), twin+time.Duration(i%4)*time.Millisecond, t, 6, 64)
	}
	drive(e)
	return t
}

func (t *toyNet) fingerprint() string {
	var sb strings.Builder
	for _, n := range t.nodes {
		for _, l := range n.log {
			sb.WriteString(l)
			sb.WriteByte('\n')
		}
	}
	for _, g := range t.globals {
		sb.WriteString(g)
		sb.WriteByte('\n')
	}
	return sb.String()
}

func TestShardedInvariance(t *testing.T) {
	runAll := func(e *Engine) { e.RunAll() }
	ref := runToy(1, runAll)
	if len(ref.fingerprint()) == 0 {
		t.Fatal("toy workload produced no events")
	}
	for _, s := range []int{2, 3, 8, 24, 31} {
		got := runToy(s, runAll)
		if got.fingerprint() != ref.fingerprint() {
			t.Fatalf("S=%d diverged from S=1:\n--- S=1 ---\n%s--- S=%d ---\n%s",
				s, ref.fingerprint(), s, got.fingerprint())
		}
		if got.e.Events() != ref.e.Events() {
			t.Fatalf("S=%d executed %d events, S=1 executed %d", s, got.e.Events(), ref.e.Events())
		}
	}
}

// RunChunk with a small event budget must land on the same outcome and
// final clock as one uninterrupted run — the cancellation seam the runtime
// backend depends on.
func TestShardedRunChunkEquivalence(t *testing.T) {
	const until = 200 * time.Millisecond
	ref := runToy(3, func(e *Engine) { e.Run(until) })
	got := runToy(3, func(e *Engine) {
		for e.RunChunk(until, 16) > 0 {
		}
	})
	if got.fingerprint() != ref.fingerprint() {
		t.Fatalf("chunked run diverged:\n--- Run ---\n%s--- RunChunk ---\n%s",
			ref.fingerprint(), got.fingerprint())
	}
	if got.e.Now() != ref.e.Now() {
		t.Fatalf("chunked run clock = %v, uninterrupted = %v", got.e.Now(), ref.e.Now())
	}
	if n := got.e.RunChunk(until, 16); n != 0 {
		t.Fatalf("RunChunk after completion executed %d events, want 0", n)
	}
}

// Run(until) executes events at ≤ until (inclusive boundary), leaves later
// events queued, and parks every clock exactly at until, on more than one
// shard too.
func TestShardedRunUntilBoundary(t *testing.T) {
	e := NewSharded(2, twin)
	ran := map[int]bool{}
	for _, ms := range []int{10, 20, 30} {
		ms := ms
		e.After(time.Duration(ms)*time.Millisecond, func() { ran[ms] = true })
	}
	e.Run(20 * time.Millisecond)
	if !ran[10] || !ran[20] || ran[30] {
		t.Fatalf("boundary events wrong: ran=%v", ran)
	}
	if e.Now() != 20*time.Millisecond {
		t.Fatalf("clock = %v, want 20ms", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.Run(time.Second)
	if !ran[30] {
		t.Fatal("resumed run did not execute the remaining event")
	}
}

// Global (harness) events run before any node event of the same instant,
// regardless of which shard the node lives on — a shard-count-independent
// rule the cluster's period ticks rely on.
func TestShardedGlobalBeforeNodeAtSameInstant(t *testing.T) {
	for _, s := range []int{1, 2} {
		e := NewSharded(s, twin)
		var order []string
		d := e.Domain(1)
		d.After(10*time.Millisecond, func() { order = append(order, "node") })
		e.After(10*time.Millisecond, func() { order = append(order, "global") })
		e.RunAll()
		if len(order) != 2 || order[0] != "global" || order[1] != "node" {
			t.Fatalf("S=%d order = %v, want [global node]", s, order)
		}
	}
}

// DeferGlobal from a node callback runs in the global phase one lookahead
// later; from the global phase it runs at the current instant. Same-instant
// ordering puts deferred globals (keyed by their node's domain) before
// harness After callbacks: a follow-up the first deferred action of a burst
// schedules with After(0) must see the whole burst applied.
func TestDeferGlobal(t *testing.T) {
	e := NewSharded(2, twin)
	var order []string
	d := e.Domain(0)
	d.After(10*time.Millisecond, func() {
		e.DeferGlobal(0, func() {
			order = append(order, fmt.Sprintf("deferred at=%v", e.Now()))
		})
	})
	e.RunAll()
	if len(order) != 1 || order[0] != "deferred at=12ms" {
		t.Fatalf("in-window DeferGlobal = %v, want [deferred at=12ms]", order)
	}

	order = nil
	e.After(0, func() { order = append(order, "harness") })
	e.DeferGlobal(0, func() { order = append(order, "deferred") })
	e.RunAll()
	if len(order) != 2 || order[0] != "deferred" || order[1] != "harness" {
		t.Fatalf("global-phase DeferGlobal = %v, want [deferred harness]", order)
	}
}

// After from inside a node callback panics, at any shard count: harness
// scheduling with a global sequence would make event order depend on the
// shard layout.
func TestShardedAfterPanicsInWindow(t *testing.T) {
	e := NewSharded(1, twin)
	var panicked bool
	d := e.Domain(0)
	d.After(time.Millisecond, func() {
		defer func() { panicked = recover() != nil }()
		e.After(time.Millisecond, func() {})
	})
	e.RunAll()
	if !panicked {
		t.Fatal("After inside a node callback did not panic")
	}
}

// A cross-shard delivery below the lookahead window panics: the destination
// shard may already have advanced past the delivery time.
func TestShardedCrossShardMinDelayPanics(t *testing.T) {
	e := NewSharded(2, twin)
	sink := &countSink{}
	var panicked bool
	d := e.Domain(0)
	d.After(time.Millisecond, func() {
		defer func() { panicked = recover() != nil }()
		e.Deliver(0, 1, twin/2, sink, nil, 0) // node 1 lives on the other shard
	})
	e.RunAll()
	if !panicked {
		t.Fatal("sub-window cross-shard delivery did not panic")
	}
}

// Same-shard deliveries carry no lookahead constraint.
func TestShardedSameShardShortDelay(t *testing.T) {
	e := NewSharded(2, twin)
	sink := &countSink{}
	d := e.Domain(0)
	d.After(time.Millisecond, func() {
		e.Deliver(0, 2, 0, sink, nil, 0) // node 2 shares shard 0
	})
	e.RunAll()
	if sink.n != 1 {
		t.Fatalf("same-shard zero-delay delivery count = %d, want 1", sink.n)
	}
}

type countSink struct{ n int }

func (c *countSink) Deliver(from, to int32, payload any, size int32) { c.n++ }

// BenchmarkEngineDrain measures the harness scheduling hot path: pooled
// global event, heap push/pop, barrier hop, callback dispatch. ns/op is
// ns/event.
func BenchmarkEngineDrain(b *testing.B) {
	e := NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(time.Microsecond, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.After(0, tick)
	e.RunAll()
}

// BenchmarkEngineSharded measures the node delivery path end to end —
// pooled events through a Sink, window barriers, outbox merges — with a
// constant population of in-flight messages ring-forwarded across 64 nodes.
// ns/op is ns/event (the run is capped at b.N events, ±one window).
func BenchmarkEngineSharded(b *testing.B) {
	for _, s := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("S=%d", s), func(b *testing.B) {
			e := NewSharded(s, twin)
			const nodes = 64
			sink := &ringSink{e: e, nodes: nodes}
			for i := 0; i < nodes; i++ {
				e.Domain(i)
			}
			for i := 0; i < nodes; i++ {
				e.Deliver(int32(i), int32((i+1)%nodes), twin, sink, nil, 64)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var total uint64
			for total < uint64(b.N) {
				total += e.RunChunk(time.Duration(1<<62), uint64(b.N)-total)
			}
		})
	}
}

// ringSink forwards every delivery one node ahead at exactly the lookahead
// window, keeping the in-flight population constant.
type ringSink struct {
	e     *Engine
	nodes int32
}

func (r *ringSink) Deliver(from, to int32, payload any, size int32) {
	r.e.Deliver(to, (to+1)%r.nodes, twin, r.e.sinkOf(r), payload, size)
}

// sinkOf exists only to keep the benchmark's Deliver call shaped like the
// production one (interface value already in hand, no per-call conversion).
func (e *Engine) sinkOf(s Sink) Sink { return s }
