// Package sim implements a deterministic discrete-event simulation engine
// with a virtual clock. The gossip and LiFTinG protocol logic is written
// against the small Context interface so the same node code runs both under
// this engine (for large-scale Monte-Carlo runs, §6 of the paper) and over
// real UDP sockets in wall-clock time under internal/transport (the
// deployment of §7).
//
// The engine has one layout: nodes are partitioned across S ≥ 1 shards,
// each with its own heap and clock, advancing in lockstep lookahead windows
// with a deterministic cross-shard merge. Harness callbacks run on a global
// queue between windows. Events are ordered by the shard-count-independent
// key (time, scheduling domain, per-domain sequence), so results are
// byte-identical for every S — see DESIGN.md, "The discrete-event engine".
// NewEngine is the one-shard engine.
//
// Event structs are pooled and the heap is hand-rolled, so the
// steady-state scheduling path — harness timers and message delivery
// through a Sink alike — performs no allocation.
package sim

import (
	"fmt"
	"time"
)

// Context is the execution environment a protocol node sees: a virtual (or
// real) clock plus one-shot timers. Implementations guarantee that all
// callbacks for one node are serialized.
type Context interface {
	// Now returns the current virtual time, measured from the start of the
	// run.
	Now() time.Duration
	// After schedules fn to run once, d from now. d < 0 is treated as 0.
	After(d time.Duration, fn func())
}

// Sink receives a simulated message delivery. It exists so network
// implementations can schedule deliveries without allocating a closure per
// message: the engine stores the four delivery operands in the pooled event
// and calls Deliver when the event fires.
type Sink interface {
	// Deliver hands the payload scheduled from node `from` to node `to`.
	// Under a sharded engine it runs on the goroutine of to's shard.
	Deliver(from, to int32, payload any, size int32)
}

// globalDomain is the ordering domain of harness events (After). Global
// events always run before node events at the same instant — the global
// queue drains to the barrier before a window starts — so the domain only
// orders events *within* the global queue: harness callbacks sort after
// same-instant deferred globals (which carry their scheduling node's
// domain). A follow-up scheduled with After(0) by the first deferred action
// of a burst therefore runs once the whole burst has drained, letting it
// coalesce the burst (manager rebalances after an expulsion wave rely on
// this).
const globalDomain int32 = 1<<31 - 1

// event is one scheduled occurrence. fn != nil marks a callback event;
// otherwise it is a delivery through sink. Events are pooled: exec copies
// the fields out and releases the struct before invoking the callback.
type event struct {
	at  time.Duration
	seq uint64
	dom int32 // ordering domain: node id, or globalDomain

	fn      func()
	sink    Sink
	payload any
	from    int32
	to      int32
	size    int32
}

// less is the canonical event order: time, then domain, then per-domain
// sequence.
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.dom != b.dom {
		return a.dom < b.dom
	}
	return a.seq < b.seq
}

// eheap is a hand-rolled binary min-heap of events. container/heap costs an
// interface call per comparison and an allocation per Push on the hot path;
// at tens of millions of events both show up in profiles.
type eheap struct {
	h []*event
}

func (q *eheap) len() int { return len(q.h) }

func (q *eheap) top() *event { return q.h[0] }

func (q *eheap) push(ev *event) {
	h := append(q.h, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !less(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	q.h = h
}

func (q *eheap) pop() *event {
	h := q.h
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && less(h[r], h[l]) {
			c = r
		}
		if !less(h[c], h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	q.h = h
	return top
}

// pool recycles event structs. A pool is owned by one goroutine at a time:
// a shard's by its shard goroutine during a window, the global pool by the
// coordinator.
type pool []*event

func (p *pool) alloc() *event {
	if n := len(*p); n > 0 {
		ev := (*p)[n-1]
		(*p)[n-1] = nil
		*p = (*p)[:n-1]
		return ev
	}
	return &event{}
}

// release zeroes the event's reference fields (so the pool retains neither
// closures nor payloads) and returns it to the pool.
func (p *pool) release(ev *event) {
	*ev = event{}
	*p = append(*p, ev)
}

// shard is one partition of the engine: a heap, a clock, an event pool and
// the outboxes for cross-shard and deferred-global traffic. During a window
// a shard is owned exclusively by one goroutine; between windows the
// coordinator owns all of them.
type shard struct {
	now    time.Duration
	q      eheap
	pool   pool
	events uint64
	// out buffers events destined for other shards during a window; the
	// coordinator merges them at the barrier. out[own index] is unused
	// (same-shard events are pushed directly).
	out [][]*event
	// outG buffers deferred-global events scheduled from this shard's
	// node callbacks during a window.
	outG []*event
}

// exec runs one event on behalf of shard sh, releasing the event struct
// back to sh's pool before invoking the callback (so the callback can
// schedule into a warm pool).
func (sh *shard) exec(ev *event) {
	if ev.fn != nil {
		fn := ev.fn
		sh.pool.release(ev)
		fn()
		return
	}
	sink, from, to, payload, size := ev.sink, ev.from, ev.to, ev.payload, ev.size
	sh.pool.release(ev)
	sink.Deliver(from, to, payload, size)
}

// Engine is a deterministic discrete-event scheduler. The zero value is not
// usable; create one with NewEngine or NewSharded. Node events run during
// lookahead windows — on per-shard goroutines when there is more than one
// shard; everything outside Run — setup, harness callbacks, global events —
// happens on the caller's goroutine.
type Engine struct {
	shards  []*shard
	window  time.Duration
	now     time.Duration // global clock T: the current window's start
	gq      eheap         // global events: harness callbacks and deferred globals
	gpool   pool
	gseq    uint64
	gevents uint64
	last    time.Duration // time of the latest executed event
	nodeSeq []uint64
	domains []*Domain
	// inWindow is true while shard goroutines execute a window. It is
	// written by the coordinator with a happens-before edge to the workers
	// (the window dispatch), so they may read it without synchronization.
	inWindow bool
}

// DefaultWindow is NewEngine's lookahead window. With one shard no delivery
// crosses shards, so any positive window is safe; it only sets how far a
// DeferGlobal action trails its node event.
const DefaultWindow = time.Millisecond

// NewEngine returns a one-shard engine with the clock at zero.
func NewEngine() *Engine {
	return NewSharded(1, DefaultWindow)
}

// NewSharded returns an engine that partitions nodes across s shards
// (node → shard id%s) and advances them in lockstep windows of the given
// lookahead. The lookahead must be a lower bound on every cross-node
// delivery delay (Deliver panics on a violation); window must be > 0 and
// s ≥ 1. Results are byte-identical for every shard count, including 1.
func NewSharded(s int, window time.Duration) *Engine {
	if s < 1 {
		panic("sim: NewSharded needs at least one shard")
	}
	if window <= 0 {
		panic("sim: NewSharded needs a positive lookahead window")
	}
	e := &Engine{window: window, shards: make([]*shard, s)}
	for i := range e.shards {
		sh := &shard{out: make([][]*event, s)}
		e.shards[i] = sh
	}
	return e
}

var _ Context = (*Engine)(nil)

// InWindow reports whether a window is currently executing — i.e. whether
// the caller is running inside a node callback. Harness code uses it to
// decide between acting immediately (global phase) and deferring through
// DeferGlobal.
func (e *Engine) InWindow() bool { return e.inWindow }

// Now returns the global clock: the current window's start. Harness
// callbacks run at the window start, so they see their own event time;
// node callbacks should use their Domain's clock, which tracks event time
// within the window.
func (e *Engine) Now() time.Duration { return e.now }

// After schedules a global (harness) event at Now()+d. It runs in the
// global phase between windows, before any node event of the same instant;
// events scheduled for the same instant run in scheduling order (FIFO),
// which keeps runs reproducible.
//
// After must itself be called from the global phase — calling it from a
// node callback panics, because a per-node scheduling order would depend
// on the shard layout. Node callbacks schedule through their own Context
// (or DeferGlobal for harness work).
func (e *Engine) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	if e.inWindow {
		panic("sim: Engine.After called from a node callback; use the node Context or DeferGlobal")
	}
	e.gseq++
	ev := e.gpool.alloc()
	ev.at, ev.dom, ev.seq, ev.fn = e.now+d, globalDomain, e.gseq, fn
	e.gq.push(ev)
}

// At schedules fn at absolute virtual time t. Times in the past run
// immediately (at the current time).
func (e *Engine) At(t time.Duration, fn func()) {
	e.After(t-e.Now(), fn)
}

// Domain returns the scheduling context of node id: a context bound to its
// shard, with the per-domain sequence that makes the event order
// shard-count-independent.
//
// Growing the domain table (first call for a given id) must happen outside
// a running window — node construction is global-phase work.
func (e *Engine) Domain(id int) Context {
	if id < 0 {
		panic("sim: negative node id")
	}
	e.ensureNode(id)
	return e.domains[id]
}

func (e *Engine) ensureNode(id int) {
	if id < len(e.domains) && e.domains[id] != nil {
		return
	}
	if e.inWindow {
		panic("sim: node domains must be created in the global phase, not from a node callback")
	}
	for len(e.domains) <= id {
		e.domains = append(e.domains, nil)
		e.nodeSeq = append(e.nodeSeq, 0)
	}
	if e.domains[id] == nil {
		e.domains[id] = &Domain{e: e, id: int32(id), sh: e.shards[id%len(e.shards)]}
	}
}

// NodeNow returns node id's current clock: its shard's event time during a
// window, the global clock otherwise.
func (e *Engine) NodeNow(id int) time.Duration {
	return e.shards[id%len(e.shards)].now
}

// Deliver schedules a message delivery from node `from` to node `to`, d
// from from's current clock, through sink. This is the allocation-free
// delivery path: the operands ride in a pooled event, no closure is built.
// The sender must have a domain (see Domain).
//
// The delivery is keyed by (time, from, from's send sequence) — a
// shard-count-independent order — and a cross-shard delivery with d < the
// lookahead window panics: the destination shard may already have advanced
// past it.
func (e *Engine) Deliver(from, to int32, d time.Duration, sink Sink, payload any, size int32) {
	if d < 0 {
		d = 0
	}
	s := len(e.shards)
	src := e.shards[int(from)%s]
	dst := int(to) % s
	ev := src.pool.alloc()
	ev.at, ev.dom, ev.seq = src.now+d, from, e.nodeSeq[from]
	e.nodeSeq[from]++
	ev.sink, ev.payload, ev.from, ev.to, ev.size = sink, payload, from, to, size
	if dst == int(from)%s {
		src.q.push(ev)
		return
	}
	if e.inWindow {
		if d < e.window {
			panic(fmt.Sprintf("sim: cross-shard delivery %d→%d with delay %v below the %v lookahead window", from, to, d, e.window))
		}
		src.out[dst] = append(src.out[dst], ev)
		return
	}
	// Global phase: every shard is parked at the barrier, push directly.
	e.shards[dst].q.push(ev)
}

// DeferGlobal schedules fn as a global-phase event one lookahead window
// from node `from`'s current clock. It is the bridge from node callbacks to
// harness work that must mutate global state (expulsions, membership): the
// event is keyed by (time, from, from's sequence), so the order in which
// deferred actions run is shard-count-independent. Calling it from the
// global phase runs fn through the global queue at the current instant.
func (e *Engine) DeferGlobal(from int, fn func()) {
	sh := e.shards[from%len(e.shards)]
	if e.inWindow {
		ev := sh.pool.alloc()
		ev.at, ev.dom, ev.seq, ev.fn = sh.now+e.window, int32(from), e.nodeSeq[from], fn
		e.nodeSeq[from]++
		sh.outG = append(sh.outG, ev)
		return
	}
	// Global phase: run at the current instant, in queue order.
	ev := e.gpool.alloc()
	ev.at, ev.dom, ev.seq, ev.fn = sh.now, int32(from), e.nodeSeq[from], fn
	e.nodeSeq[from]++
	e.gq.push(ev)
}

// Run executes events until every queue is empty or the clock would pass
// until. It returns the number of events executed. Events scheduled exactly
// at until still run.
func (e *Engine) Run(until time.Duration) uint64 {
	return e.run(until, ^uint64(0))
}

// RunChunk executes events up to until in a bounded burst and returns the
// number executed, so callers can interleave event bursts with cancellation
// checks and still end on the same clock as one uninterrupted Run. A return
// of 0 means the advance to until is complete. The budget max is checked
// at window granularity, so a call may overshoot it by one window's events.
func (e *Engine) RunChunk(until time.Duration, max uint64) uint64 {
	return e.run(until, max)
}

// RunAll executes events until every queue is empty and returns the number
// of events executed. The clock stops at the last event. Use only for
// workloads that provably quiesce.
func (e *Engine) RunAll() uint64 {
	var total uint64
	for e.Pending() > 0 {
		total += e.run(e.now+1000*e.window, ^uint64(0))
	}
	if total > 0 {
		// The last pass advanced the clock to its horizon. Nothing is
		// queued, so pulling it back to the last event is unobservable.
		e.now = e.last
		for _, sh := range e.shards {
			sh.now = e.last
		}
	}
	return total
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int {
	n := e.gq.len()
	for _, sh := range e.shards {
		n += sh.q.len()
	}
	return n
}

// Events returns the total number of events executed so far.
func (e *Engine) Events() uint64 {
	n := e.gevents
	for _, sh := range e.shards {
		n += sh.events
	}
	return n
}

// Domain is a node's scheduling context: the shard clock plus timers keyed
// by the node's own sequence. All of a node's
// callbacks run serialized on its shard, so a Domain may only be used from
// its own node's callbacks or from the global phase.
type Domain struct {
	e  *Engine
	id int32
	sh *shard
}

var _ Context = (*Domain)(nil)

// Now returns the node's current virtual time: its shard's event time
// during a window, the window-start time in the global phase.
func (d *Domain) Now() time.Duration { return d.sh.now }

// After schedules fn on this node, d from now. Self-timers have no
// lookahead constraint — they stay on the node's own shard.
func (d *Domain) After(dur time.Duration, fn func()) {
	if dur < 0 {
		dur = 0
	}
	e := d.e
	ev := d.sh.pool.alloc()
	ev.at, ev.dom, ev.seq, ev.fn = d.sh.now+dur, d.id, e.nodeSeq[d.id], fn
	e.nodeSeq[d.id]++
	d.sh.q.push(ev)
}
