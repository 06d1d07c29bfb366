package net

import (
	"time"

	"lifting/internal/metrics"
	"lifting/internal/msg"
	"lifting/internal/rng"
	"lifting/internal/sim"
)

// reliableSetupFactor models the extra one-way latency of establishing a TCP
// connection (SYN/SYN-ACK) relative to a bare datagram.
const reliableSetupFactor = 3

// SimNet delivers messages through the discrete-event engine. It is the
// simulation-side implementation of Network.
//
// Sends from nodes on different shards run concurrently, so each sender
// draws loss and jitter from its own derived stream and tracks its own
// uplink, keyed by node id: the draw sequence then depends only on the
// sender's own event order, which is what makes results
// shard-count-invariant.
type SimNet struct {
	engine    *sim.Engine
	rand      *rng.Stream // parent of the per-node streams
	collector *metrics.Collector
	handlers  map[msg.NodeID]Handler
	conds     map[msg.NodeID]*Conditions
	defaults  Conditions

	// Per-node state. Only a node's own shard touches its slots during a
	// window; the slices grow in Attach or a node's first send, which is
	// global-phase work.
	nodeRand   []*rng.Stream
	nodeUplink []time.Duration
}

var _ Network = (*SimNet)(nil)
var _ sim.Sink = (*SimNet)(nil)

// NewSimNet creates a network on the given engine. rand is the loss/latency
// randomness source; collector may be nil to disable accounting; defaults
// apply to nodes without explicit conditions.
func NewSimNet(engine *sim.Engine, rand *rng.Stream, collector *metrics.Collector, defaults Conditions) *SimNet {
	return &SimNet{
		engine:    engine,
		rand:      rand,
		collector: collector,
		handlers:  make(map[msg.NodeID]Handler),
		conds:     make(map[msg.NodeID]*Conditions),
		defaults:  defaults,
	}
}

// Attach registers the handler for a node. A nil handler detaches the node.
func (n *SimNet) Attach(id msg.NodeID, h Handler) {
	if h == nil {
		delete(n.handlers, id)
		return
	}
	n.handlers[id] = h
	n.stream(id)
}

// stream returns node id's draw stream, creating it — and the node's engine
// domain — on first use. Derivation hashes the parent seed with the id,
// independent of creation order, so churn joins stay deterministic.
func (n *SimNet) stream(id msg.NodeID) *rng.Stream {
	if int(id) < len(n.nodeRand) && n.nodeRand[id] != nil {
		return n.nodeRand[id]
	}
	n.engine.Domain(int(id)) // panics inside a window: growth is global-phase work
	for len(n.nodeRand) <= int(id) {
		n.nodeRand = append(n.nodeRand, nil)
		n.nodeUplink = append(n.nodeUplink, 0)
	}
	n.nodeRand[id] = n.rand.ForNode(uint32(id))
	return n.nodeRand[id]
}

// SetConditions overrides the connection quality of a node.
func (n *SimNet) SetConditions(id msg.NodeID, c Conditions) {
	cc := c
	n.conds[id] = &cc
}

// ConditionsOf returns the effective conditions of a node.
func (n *SimNet) ConditionsOf(id msg.NodeID) Conditions {
	if c, ok := n.conds[id]; ok {
		return *c
	}
	return n.defaults
}

// SetDown marks a node as departed (true) or alive (false), preserving its
// other conditions.
func (n *SimNet) SetDown(id msg.NodeID, down bool) {
	c := n.ConditionsOf(id)
	c.Down = down
	n.conds[id] = &c
}

// Send implements Network. The message is delivered through the event queue
// after uplink serialization and propagation delay, unless it is lost.
// Send must be called from the sending node's own callbacks (or the global
// phase) — the same serialization the rest of a node's state already
// requires.
func (n *SimNet) Send(from, to msg.NodeID, m msg.Message, mode Mode) {
	size := m.WireSize()
	if n.collector != nil {
		n.collector.OnSend(from, m, size)
	}
	src := n.ConditionsOf(from)
	dst := n.ConditionsOf(to)
	if src.Down || dst.Down || Partitioned(src.PartitionGroup, dst.PartitionGroup) {
		n.drop(m, size)
		return
	}
	rand := n.stream(from)
	now := n.engine.NodeNow(int(from))
	if mode == Unreliable {
		if rand.Bernoulli(src.LossOut) || rand.Bernoulli(dst.LossIn) {
			n.drop(m, size)
			return
		}
	}

	start := max(now, n.nodeUplink[from])
	var tx time.Duration
	if src.UplinkBps > 0 {
		tx = time.Duration(float64(size) / src.UplinkBps * float64(time.Second))
	}
	n.nodeUplink[from] = start + tx

	latency := src.LatencyBase/2 + dst.LatencyBase/2
	jitter := src.LatencyJitter/2 + dst.LatencyJitter/2
	if jitter > 0 {
		latency += time.Duration(rand.Float64() * float64(jitter))
	}
	if mode == Reliable {
		latency *= reliableSetupFactor
	}
	if mode == Unreliable && rand.Bernoulli(src.ReorderProb) {
		// Hold the datagram back so later sends overtake it.
		latency += src.ReorderDelay
	}

	n.engine.Deliver(int32(from), int32(to), start+tx+latency-now, n, m, int32(size))

	if mode == Unreliable && rand.Bernoulli(src.DupProb) {
		// In-network duplication: a second identical copy arrives right
		// behind the first (no extra uplink charge). It is accounted as
		// a send of its own so the sent/recv/dropped books still balance.
		if n.collector != nil {
			n.collector.OnSend(from, m, size)
		}
		n.engine.Deliver(int32(from), int32(to), start+tx+latency-now, n, m, int32(size))
	}
}

// Deliver implements sim.Sink: the arrival half of Send, fired by the
// engine at delivery time. Handler lookup and down-ness are evaluated on
// arrival, exactly as the closure-based path did.
func (n *SimNet) Deliver(from, to int32, payload any, size int32) {
	m := payload.(msg.Message)
	h, ok := n.handlers[msg.NodeID(to)]
	if !ok || n.ConditionsOf(msg.NodeID(to)).Down {
		n.drop(m, int(size))
		return
	}
	if n.collector != nil {
		n.collector.OnDeliver(msg.NodeID(to), m, int(size))
	}
	h.HandleMessage(msg.NodeID(from), m)
}

func (n *SimNet) drop(m msg.Message, size int) {
	if n.collector != nil {
		n.collector.OnDrop(m, size)
	}
}
