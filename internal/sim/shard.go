package sim

import (
	"sync"
	"time"
)

// run advances the engine toward until, executing at least
// min(max, everything due) events, in lockstep lookahead windows:
//
//  1. Global phase: with every shard parked at the barrier time T, drain
//     the global queue of events at T (harness callbacks, deferred
//     globals). Global events run on the coordinator goroutine and may
//     freely mutate shared state and schedule into any shard.
//  2. Pick the window bound B = min(T+window, next global event, just past
//     until). Every shard then executes its events with time < B — in
//     parallel, one goroutine per shard. Cross-shard deliveries produced
//     inside the window land at ≥ T+window ≥ B (the lookahead guarantee),
//     so no shard can affect another within the window; they are buffered
//     in per-shard outboxes.
//  3. Barrier: merge the outboxes into the destination heaps and the
//     deferred globals into the global queue, advance every clock to the
//     new T, repeat.
//
// Each event carries the canonical key (time, domain, per-domain seq);
// every heap pops its slice of that one total order, which is what makes
// the outcome identical for every shard count — see DESIGN.md.
//
// The return value is the number of events executed; 0 means the advance
// to until was already complete. The event budget max is checked at window
// granularity, so a call may overshoot it by one window's events.
func (e *Engine) run(until time.Duration, max uint64) uint64 {
	var executed uint64
	for {
		// Global phase at T = e.now.
		for e.gq.len() > 0 && e.gq.top().at <= e.now {
			ev := e.gq.pop()
			e.gevents++
			executed++
			e.last = ev.at
			fn := ev.fn
			e.gpool.release(ev)
			fn()
		}
		nextG := time.Duration(1<<63 - 1)
		if e.gq.len() > 0 {
			nextG = e.gq.top().at
		}
		if e.idleUpTo(until) && nextG > until {
			e.advanceTo(until)
			return executed
		}
		if executed >= max {
			return executed
		}
		// Fast-forward across empty stretches: nothing anywhere is due
		// before earliest, so hop the barrier straight there instead of
		// walking empty windows one lookahead at a time.
		earliest := nextG
		for _, sh := range e.shards {
			if sh.q.len() > 0 && sh.q.top().at < earliest {
				earliest = sh.q.top().at
			}
		}
		if earliest > e.now {
			e.advanceTo(earliest)
			continue
		}
		bound := e.now + e.window
		if nextG < bound {
			bound = nextG
		}
		final := false
		if until+1 <= bound {
			// The last window is [T, until]: events exactly at until still
			// run (Run's contract), and nothing they produce can land at
			// ≤ until — cross-shard and deferred events carry at least the
			// lookahead, self-timers run within the window itself.
			bound = until + 1
			final = true
		}
		executed += e.runWindow(bound)
		e.mergeOutboxes()
		if final {
			e.advanceTo(until)
			return executed
		}
		e.advanceTo(bound)
	}
}

// idleUpTo reports whether no shard has an event due at or before until.
func (e *Engine) idleUpTo(until time.Duration) bool {
	for _, sh := range e.shards {
		if sh.q.len() > 0 && sh.q.top().at <= until {
			return false
		}
	}
	return true
}

// advanceTo moves the global clock and every shard clock to t (never
// backwards: a shard that executed events inside the final window sits at
// its last event time, at most t).
func (e *Engine) advanceTo(t time.Duration) {
	if e.now < t {
		e.now = t
	}
	for _, sh := range e.shards {
		if sh.now < t {
			sh.now = t
		}
	}
}

// runWindow executes every shard's events with time < bound and returns
// how many ran. With more than one shard the shards run on their own
// goroutines; the WaitGroup gives the coordinator a happens-before edge
// over all shard state.
func (e *Engine) runWindow(bound time.Duration) uint64 {
	var before uint64
	for _, sh := range e.shards {
		before += sh.events
	}
	e.inWindow = true
	if len(e.shards) == 1 {
		e.shards[0].runTo(bound)
	} else {
		var wg sync.WaitGroup
		for _, sh := range e.shards {
			if sh.q.len() == 0 || sh.q.top().at >= bound {
				continue
			}
			wg.Add(1)
			go func(sh *shard) {
				defer wg.Done()
				sh.runTo(bound)
			}(sh)
		}
		wg.Wait()
	}
	e.inWindow = false
	var after uint64
	for _, sh := range e.shards {
		after += sh.events
		// A shard that ran nothing sits at the window start, which no
		// event of the window precedes.
		e.last = max(e.last, sh.now)
	}
	return after - before
}

// runTo executes the shard's events with time strictly below bound.
func (sh *shard) runTo(bound time.Duration) {
	for sh.q.len() > 0 {
		top := sh.q.top()
		if top.at >= bound {
			break
		}
		sh.q.pop()
		sh.now = top.at
		sh.events++
		sh.exec(top)
	}
}

// mergeOutboxes folds every shard's cross-shard and deferred-global events
// into their destination queues. Push order is irrelevant: keys are unique
// and the heaps order by them.
func (e *Engine) mergeOutboxes() {
	for _, sh := range e.shards {
		for d, lst := range sh.out {
			if len(lst) == 0 {
				continue
			}
			dst := &e.shards[d].q
			for i, ev := range lst {
				dst.push(ev)
				lst[i] = nil
			}
			sh.out[d] = lst[:0]
		}
		if len(sh.outG) > 0 {
			for i, ev := range sh.outG {
				e.gq.push(ev)
				sh.outG[i] = nil
			}
			sh.outG = sh.outG[:0]
		}
	}
}
