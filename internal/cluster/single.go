package cluster

import (
	"sort"
	"sync"
	"time"

	"lifting/internal/content"
	"lifting/internal/core"
	"lifting/internal/gossip"
	"lifting/internal/membership"
	"lifting/internal/metrics"
	"lifting/internal/msg"
	"lifting/internal/reputation"
	"lifting/internal/rng"
	"lifting/internal/runtime"
	"lifting/internal/stream"
)

// NodeOptions configures the assembly of ONE node of a distributed
// deployment: the node, its verifier, its share of the reputation substrate
// (manager duty plus a blame client), and — when it is the source — the
// stream injection schedule. All peers are remote: they live in other
// processes (the lifting-node daemon) or behind other runtimes, reachable
// only through the runtime's network.
//
// Blames always travel as messages (the BlameMessages mode of the full
// Cluster): there is no shared board across processes.
type NodeOptions struct {
	// ID is this node's identity.
	ID msg.NodeID
	// Members is the full membership, including ID. Every process must use
	// the same member list: the manager assignment is derived from it.
	Members []msg.NodeID
	// Seed roots the deployment's randomness. Every process uses the SAME
	// seed; per-node streams are derived from it exactly as the in-process
	// cluster derives them.
	Seed uint64
	// Gossip is the dissemination configuration.
	Gossip gossip.Config
	// Core is LiFTinG's configuration. Used when LiFTinG is enabled.
	Core core.Config
	// Rep configures the reputation substrate.
	Rep reputation.Config
	// Stream describes the broadcast content (used by the source).
	Stream stream.Config
	// LiFTinG enables the verification machinery.
	LiFTinG bool
	// Source makes this node inject the stream (the cluster convention is
	// that node 0 is the source).
	Source bool
	// Behavior is this node's dissemination behavior; nil means honest.
	Behavior gossip.Behavior
	// ExpectedLoss and ExpectedR feed the default compensation (Equation 5)
	// when Rep.Compensation is zero, mirroring Options.
	ExpectedLoss float64
	ExpectedR    int
	// OnExpel, if non-nil, observes every expulsion this node learns about.
	OnExpel func(target msg.NodeID, reason msg.BlameReason)
	// Collector, if non-nil, receives this node's traffic, redundancy and
	// verification accounting. Pass the same collector to the runtime
	// (transport.Options.Collector) to add wire-level send/recv/drop
	// counts; the host adds the gossip- and reputation-plane events.
	Collector *metrics.Collector
	// StoreCapacity is the node's chunk store capacity in chunks (0 =
	// sized from the stream rate and gossip period via
	// content.StoreCapacityFor). As in the full cluster, the content
	// plane is on whenever Stream is a valid configuration.
	StoreCapacity int
	// ClockSkew is this node's clock-rate factor: 1.02 fires every local
	// timer — gossip rounds, verifier deadlines, the score-period clock —
	// 2% late, drifting against the period auditors on other processes.
	// 0 (or 1) means a true clock.
	ClockSkew float64
}

// NodeHost is one assembled node of a distributed deployment.
type NodeHost struct {
	Opts NodeOptions
	RT   runtime.Runtime
	Dir  *membership.Directory
	Node *gossip.Node
	// Verifier and Manager are nil when LiFTinG is disabled.
	Verifier *core.Verifier
	Manager  *reputation.Manager
	// Store is the node's chunk store and Content the stream's canonical
	// payload source; both are nil when the content plane is off. The HTTP
	// stream gateway reads the store concurrently with node callbacks (the
	// store is internally locked) and uses Content — on the source node —
	// to regenerate chunks that have aged out of the store.
	Store   *content.Store
	Content *content.Source

	client *reputation.Client
	reader *reputation.Reader
	skew   float64 // 0 = true clock; see NodeOptions.ClockSkew

	mu       sync.Mutex
	period   msg.Period
	expelled map[msg.NodeID]msg.BlameReason
}

// ScoreRead is the result of one over-the-wire score read.
type ScoreRead struct {
	// Score is the min-vote over the manager copies that answered.
	Score float64
	// Expelled reports whether any answering manager holds an expulsion
	// verdict.
	Expelled bool
	// Replies is how many manager copies answered before the timeout.
	Replies int
}

// NewNodeHost assembles one node against the given runtime. The runtime is
// typically a transport runtime hosting just this node, with the rest of the
// membership reachable through its address book; any runtime.Runtime works,
// which is what the in-process tests use.
func NewNodeHost(rt runtime.Runtime, opts NodeOptions) *NodeHost {
	if len(opts.Members) < 2 {
		panic("cluster: a deployment needs at least 2 members")
	}
	if opts.ExpectedR == 0 {
		if opts.Gossip.MaxRequest > 0 {
			opts.ExpectedR = opts.Gossip.MaxRequest
		} else {
			opts.ExpectedR = 4
		}
	}
	if opts.Rep.Compensation == 0 && opts.LiFTinG {
		opts.Rep.Compensation = CompensationFor(opts.ExpectedLoss, opts.Gossip.F, opts.ExpectedR, opts.Core.Pdcc)
	}
	if opts.Core.Population == 0 {
		opts.Core.Population = len(opts.Members)
	}

	members := append([]msg.NodeID(nil), opts.Members...)
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	h := &NodeHost{
		Opts:     opts,
		RT:       rt,
		Dir:      membership.NewDirectory(members),
		expelled: make(map[msg.NodeID]msg.BlameReason),
	}

	id := opts.ID
	nodeRand := rng.New(opts.Seed).ForNode(uint32(id))
	ctx := rt.Context(id)
	if f := opts.ClockSkew; f > 0 && f != 1 {
		h.skew = f
		ctx = skewCtx{Context: ctx, factor: f}
	}
	netw := rt.Network()

	behavior := opts.Behavior
	if behavior == nil {
		behavior = gossip.Honest{}
	}
	gcfg := opts.Gossip
	gcfg.StartOffset = time.Duration(nodeRand.Derive("offset").Float64() * float64(gcfg.Period))

	deps := gossip.Deps{
		Ctx:      ctx,
		Net:      netw,
		Dir:      h.Dir,
		Rand:     nodeRand.Derive("gossip"),
		Behavior: behavior,
		Metrics:  opts.Collector,
	}
	if opts.Stream.Validate() == nil {
		// Same derivation as the in-process cluster: every process of a
		// deployment — and any in-process run of the same seed — generates
		// byte-identical chunk payloads.
		h.Content = content.NewSource(rng.New(opts.Seed).Derive("content").Seed(), opts.Stream.ChunkPayload)
		capacity := opts.StoreCapacity
		if capacity <= 0 {
			capacity = content.StoreCapacityFor(opts.Stream.ChunkInterval(), opts.Gossip.Period)
		}
		h.Store = content.NewStore(capacity)
		deps.Store = h.Store
		if col := opts.Collector; col != nil {
			interval := opts.Stream.ChunkInterval()
			var lastArrival time.Duration
			seenArrival := false
			deps.OnChunk = func(ch msg.ChunkID, at time.Duration) {
				col.OnStreamLag(at - opts.Stream.GenTime(ch))
				if seenArrival {
					col.OnJitter((at - lastArrival) - interval)
				}
				lastArrival, seenArrival = at, true
			}
		}
	}
	node := gossip.NewNode(id, gcfg, deps)

	if opts.LiFTinG {
		repCfg := opts.Rep
		repCfg.OnExpel = h.onExpel
		h.client = reputation.NewClient(id, repCfg, netw, h.Dir)
		var sink core.BlameSink = h.client
		if opts.Collector != nil {
			sink = countingSink{coll: opts.Collector, inner: sink}
		}
		h.Verifier = core.NewVerifier(id, opts.Core, ctx, netw, nodeRand.Derive("verify"), node.History(), behavior, sink)
		h.Manager = reputation.NewManager(id, repCfg, netw, h.Dir)
		h.reader = reputation.NewReader(id, repCfg, ctx, netw, h.Dir, 2*gcfg.Period)
		deps.Monitor = h.Verifier
		deps.Aux = auxChain{h.Verifier, managerAux{h.Manager}, h.reader}
		deps.History = node.History()
		node = gossip.NewNode(id, gcfg, deps)

		// Track, as of period 0, every member this node manages, so r counts
		// time in the system — the same pre-registration the cluster does.
		for _, target := range members {
			for _, m := range h.Dir.Managers(target, repCfg.M) {
				if m == id {
					h.Manager.Track(target, 0)
					break
				}
			}
		}
	}

	h.Node = node
	rt.Attach(id, node)
	return h
}

// onExpel records an expulsion verdict — decided by this node's manager duty
// or learned from another manager's Expel message — and applies it locally:
// the target leaves the sampling population, and a node that learns of its
// own expulsion stops gossiping.
func (h *NodeHost) onExpel(target msg.NodeID, reason msg.BlameReason) {
	h.mu.Lock()
	if _, dup := h.expelled[target]; dup {
		h.mu.Unlock()
		return
	}
	h.expelled[target] = reason
	h.mu.Unlock()
	if h.Opts.Collector != nil {
		h.Opts.Collector.OnExpel()
	}
	h.Dir.Expel(target)
	if target == h.Opts.ID {
		h.RT.Exec(target, h.Node.Stop)
	}
	if h.Opts.OnExpel != nil {
		h.Opts.OnExpel(target, reason)
	}
}

// Start launches the node and its score-period clock.
func (h *NodeHost) Start() {
	h.RT.Exec(h.Opts.ID, h.Node.Start)
	h.scheduleTick(1)
}

// scheduleTick advances the score period every Tg, mirroring Cluster: the
// manager re-evaluates expulsions and the blame client flushes its batch.
// Each process runs its own period clock; periods only feed the r in
// score = b̃ − blame/r, so clocks need to agree in rate, not in phase —
// which is exactly what a skewed clock violates, so ClockSkew stretches
// this timer too and the period-drift gauge can watch the divergence.
func (h *NodeHost) scheduleTick(p msg.Period) {
	tick := h.Opts.Gossip.Period
	if h.skew > 0 {
		tick = time.Duration(float64(tick) * h.skew)
	}
	h.RT.After(tick, func() {
		h.mu.Lock()
		h.period = p
		h.mu.Unlock()
		if h.Manager != nil {
			h.Manager.Tick(p)
		}
		if h.client != nil {
			flushEvery := msg.Period(h.Opts.Rep.FlushEvery)
			if flushEvery < 1 {
				flushEvery = 1
			}
			if p%flushEvery == 0 {
				h.RT.Exec(h.Opts.ID, h.client.Flush)
			}
		}
		h.scheduleTick(p + 1)
	})
}

// Period returns the current score period.
func (h *NodeHost) Period() msg.Period {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.period
}

// Expelled returns the expulsions this node has learned about.
func (h *NodeHost) Expelled() map[msg.NodeID]msg.BlameReason {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[msg.NodeID]msg.BlameReason, len(h.expelled))
	//lint:allow ordered-map-range map-to-map copy; the copy is order-insensitive
	for id, r := range h.expelled {
		out[id] = r
	}
	return out
}

// LocalScores returns this node's manager-duty view: the score each tracked
// target holds on the local manager copy. It is a partial, local view — the
// authoritative score is the min-vote over all M copies — but it is exactly
// what an operator wants from a single daemon's /status.
func (h *NodeHost) LocalScores() map[msg.NodeID]float64 {
	if h.Manager == nil {
		return nil
	}
	return h.Manager.Scores()
}

// StartStream schedules chunk injections for the given duration. Only the
// source calls this; chunks then travel to every other process over the
// wire.
func (h *NodeHost) StartStream(duration time.Duration) {
	if !h.Opts.Source {
		panic("cluster: StartStream on a non-source node")
	}
	total := h.Opts.Stream.ChunksBy(duration)
	ctx := h.RT.Context(h.Opts.ID)
	for i := 0; i < total; i++ {
		ch := msg.ChunkID(i)
		at := h.Opts.Stream.GenTime(ch)
		if at > duration {
			break
		}
		ctx.After(at, func() {
			if h.Content != nil {
				payload, hash := h.Content.Chunk(ch)
				h.Node.InjectChunkData(ch, payload, hash)
			} else {
				h.Node.InjectChunk(ch)
			}
		})
	}
}

// ReadScores performs decentralized score reads for the given targets: each
// target's M managers are queried over the wire and the copies are combined
// by min-vote (§5.1). It blocks until every read resolves or a deadline
// slightly past the reader's timeout expires — a runtime closed mid-read
// (early shutdown) yields partial results, never a hang. Must not be called
// from inside a node callback.
func (h *NodeHost) ReadScores(targets []msg.NodeID) map[msg.NodeID]ScoreRead {
	if h.reader == nil {
		return nil
	}
	out := make(map[msg.NodeID]ScoreRead, len(targets))
	var mu sync.Mutex
	resolved := make(chan struct{}, len(targets)) // buffered: callbacks never block
	h.RT.Exec(h.Opts.ID, func() {
		for _, target := range targets {
			target := target
			h.reader.Read(target, func(score float64, expelled bool, replies int) {
				mu.Lock()
				out[target] = ScoreRead{Score: score, Expelled: expelled, Replies: replies}
				mu.Unlock()
				resolved <- struct{}{}
			})
		}
	})
	// The reader answers every read within its 2·Tg timeout; anything
	// slower means the runtime stopped scheduling our callbacks (Close
	// dropped them), so give up rather than wait on tokens that will never
	// come.
	//lint:allow no-wallclock liveness deadline for the UDP backend's reader; sim runs resolve every read long before it fires
	deadline := time.NewTimer(4*h.Opts.Gossip.Period + time.Second)
	defer deadline.Stop()
collect:
	for i := 0; i < len(targets); i++ {
		select {
		case <-resolved:
		case <-deadline.C:
			break collect
		}
	}
	mu.Lock()
	defer mu.Unlock()
	copied := make(map[msg.NodeID]ScoreRead, len(out))
	//lint:allow ordered-map-range map-to-map copy; the copy is order-insensitive
	for id, r := range out {
		copied[id] = r
	}
	return copied
}
