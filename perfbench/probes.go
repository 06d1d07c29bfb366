package main

import (
	"time"

	"lifting/internal/content"
	"lifting/internal/history"
	"lifting/internal/membership"
	"lifting/internal/metrics"
	"lifting/internal/msg"
	"lifting/internal/net"
	"lifting/internal/reputation"
	"lifting/internal/rng"
	"lifting/internal/sim"
	"lifting/internal/stats"
	"lifting/internal/stream"
)

// Probes time single public functions of one layer on inputs shaped like
// broadcast-3k: a 50-period history with fanout 7, 5264-byte chunks, 3000
// node ids, M = 25 managers. Each reports the median ns per operation over
// probeBatches batches. The comment on each names the end-to-end metric it
// predicts.

const (
	probeBatches = 7
	probeNodes   = 3000
	probeM       = 25
	probeF       = 7
	probeHistory = 50
)

// chunksPerPeriod is broadcast-3k's chunk rate per gossip period.
var chunksPerPeriod = int(broadcastPeriod / stream.Config{BitrateBps: 674_000, ChunkPayload: broadcastChunk}.ChunkInterval())

// probeNs runs op in probeBatches batches of n operations and returns the
// median ns per operation.
func probeNs(n int, op func(i int)) float64 {
	per := make([]float64, probeBatches)
	for b := range per {
		start := time.Now()
		for i := 0; i < n; i++ {
			op(b*n + i)
		}
		per[b] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return median(per)
}

var probeSink bool

// addProbes adds every layer probe to ms.
func addProbes(ms map[string]metric) {
	ns := func(name string, v float64) { ms[name] = metric{v, "ns"} }
	hasRecent, record := historyProbes()
	// Witness duty inside core.confirm; predicts wall_s on all workloads.
	ns("history.has_recent_ns", hasRecent)
	ns("history.record_ns", record)
	// Payload verification and storage inside gossip.serve; predicts
	// broadcast-3k wall_s.
	verify, store := contentProbes()
	ns("content.verify_ns", verify)
	ns("content.store_ns", store)
	// Engine heap drain; predicts broadcast-3k wall_s.
	ns("sim.drain_ns", drainProbe())
	// Blame batch flush to M managers; predicts churn-soak wall_s.
	ns("reputation.flush_ns", flushProbe())
	// Manager lookup: hits predict broadcast-3k, misses churn-soak.
	hit, miss := managersProbes()
	ns("membership.managers_hit_ns", hit)
	ns("membership.managers_miss_ns", miss)
	// Collector hot path; predicts broadcast-3k wall_s.
	ns("metrics.on_send_ns", onSendProbe())
	// Audit entropy; predicts matrix wall_s.
	ns("stats.entropy_ns", entropyProbe())
}

// historyProbes fills a retention-50 log with f = 7 proposals of one
// period's chunks per period, then times the witness lookup for a sender
// proposing in every period, and the per-proposal record cost of a log that
// keeps advancing (so pruning is included).
func historyProbes() (hasRecent, record float64) {
	log := history.NewLog(probeHistory)
	chunks := func(p msg.Period) []msg.ChunkID {
		out := make([]msg.ChunkID, chunksPerPeriod)
		for i := range out {
			out[i] = msg.ChunkID(int(p)*chunksPerPeriod + i)
		}
		return out
	}
	for p := msg.Period(1); p <= probeHistory; p++ {
		for s := 0; s < probeF; s++ {
			log.RecordProposalReceived(p, msg.NodeID(s+1), chunks(p))
		}
	}
	ask := chunks(probeHistory - 3)
	hasRecent = probeNs(2000, func(i int) {
		probeSink = log.HasRecentProposalFrom(msg.NodeID(i%probeF+1), ask)
	})
	recordLog := history.NewLog(probeHistory)
	batch := chunks(1)
	record = probeNs(20000, func(i int) {
		p := msg.Period(i/probeF + 1)
		recordLog.RecordProposalReceived(p, msg.NodeID(i%probeF+1), batch)
	})
	return hasRecent, record
}

// contentProbes time hash verification of one 5264-byte chunk, and one
// store Put+Get pair at the capacity broadcast-3k nodes use.
func contentProbes() (verify, store float64) {
	cfg := stream.Config{BitrateBps: 674_000, ChunkPayload: broadcastChunk}
	src := content.NewSource(1, broadcastChunk)
	payloads := make([][]byte, 256)
	hashes := make([]uint64, 256)
	for c := range payloads {
		payloads[c], hashes[c] = src.Chunk(msg.ChunkID(c))
	}
	verify = probeNs(20000, func(i int) {
		probeSink = content.Verify(payloads[i%256], hashes[i%256])
	})
	s := content.NewStore(content.StoreCapacityFor(cfg.ChunkInterval(), broadcastPeriod))
	store = probeNs(200000, func(i int) {
		c := msg.ChunkID(i)
		s.Put(c, payloads[i%256], hashes[i%256])
		_, _, probeSink = s.Get(c)
	})
	return verify, store
}

// drainProbe times the serial engine's schedule-and-dispatch path: a
// self-rescheduling timer chain, ns per event.
func drainProbe() float64 {
	const events = 500000
	return probeNs(1, func(int) {
		e := sim.NewEngine()
		n := 0
		var tick func()
		tick = func() {
			n++
			if n < events {
				e.After(time.Microsecond, tick)
			}
		}
		e.After(0, tick)
		e.RunAll()
	}) / events
}

// discardNet swallows sends, so the flush probe measures the client alone.
type discardNet struct{}

func (discardNet) Send(msg.NodeID, msg.NodeID, msg.Message, net.Mode) {}

// flushProbe times one accumulate-and-flush cycle of 64 blamed targets
// against 3000 nodes with M = 25.
func flushProbe() float64 {
	const targets = 64
	client := reputation.NewClient(0, reputation.Config{M: probeM}, discardNet{}, membership.Sequential(probeNodes))
	return probeNs(200, func(int) {
		for t := 0; t < targets; t++ {
			client.Blame(msg.NodeID(t+1), 1.5, msg.ReasonNoAck)
		}
		client.Flush()
	})
}

// managersProbes time a cached manager lookup, and the first lookup after a
// membership epoch bump (the bump itself untimed).
func managersProbes() (hit, miss float64) {
	dir := membership.Sequential(probeNodes)
	for i := 0; i < probeNodes; i++ {
		dir.Managers(msg.NodeID(i), probeM)
	}
	hit = probeNs(200000, func(i int) {
		_ = dir.Managers(msg.NodeID(i%probeNodes), probeM)
	})
	per := make([]float64, 0, 200)
	for i := 0; i < cap(per); i++ {
		churned := msg.NodeID(probeNodes - 1 - (i/2)%100)
		if i%2 == 0 {
			dir.Expel(churned)
		} else {
			dir.Join(churned)
		}
		start := time.Now()
		_ = dir.Managers(msg.NodeID(i%probeNodes), probeM)
		per = append(per, float64(time.Since(start).Nanoseconds()))
	}
	return hit, median(per)
}

// onSendProbe times the collector's send+deliver accounting of one serve
// across 3000 sender ids.
func onSendProbe() float64 {
	c := metrics.NewCollector()
	serve := &msg.Serve{Sender: 1, Chunk: 1, PayloadSize: broadcastChunk}
	size := serve.WireSize()
	return probeNs(200000, func(i int) {
		id := msg.NodeID(i % probeNodes)
		c.OnSend(id, serve, size)
		c.OnDeliver((id+1)%probeNodes, serve, size)
	})
}

// entropyProbe times the audit's entropy of a 600-entry multiset.
func entropyProbe() float64 {
	r := rng.New(3)
	ms := stats.NewMultiset[uint32]()
	for i := 0; i < 600; i++ {
		ms.Add(uint32(r.IntN(10000)))
	}
	var sink float64
	v := probeNs(2000, func(int) { sink += ms.Entropy() })
	probeSink = sink > 0
	return v
}
