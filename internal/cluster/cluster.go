// Package cluster assembles complete LiFTinG systems: gossip nodes with
// their verifiers, the reputation substrate, freerider behaviors, a stream
// source and playout tracking — everything the experiments, integration
// tests and examples need to run end-to-end scenarios.
//
// Assembly is written against the runtime.Runtime seam, so the same wiring
// executes under the deterministic discrete-event engine (Options.Backend =
// runtime.KindSim, the default) or over real UDP sockets on loopback
// (runtime.KindUDP, one socket per node, wall-clock time). Scenarios —
// quickstart, collusion, PlanetLab heterogeneity, churn — are therefore
// written once and run on either backend. For deployments where each node is its own OS
// process, see NodeHost.
package cluster

import (
	"context"
	"fmt"
	gort "runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"lifting/internal/analysis"
	"lifting/internal/chaos"
	"lifting/internal/content"
	"lifting/internal/core"
	"lifting/internal/gossip"
	"lifting/internal/membership"
	"lifting/internal/metrics"
	"lifting/internal/msg"
	"lifting/internal/net"
	"lifting/internal/reputation"
	"lifting/internal/rng"
	"lifting/internal/runtime"
	"lifting/internal/sim"
	"lifting/internal/stats"
	"lifting/internal/stream"

	// The UDP backend registers itself with the runtime registry; importing
	// it here makes every Options.Backend constructible.
	_ "lifting/internal/transport"
)

// BlameMode selects how blames reach the scores.
type BlameMode int

// Blame routing modes.
const (
	// BlameDirect applies blames straight onto a shared board — the
	// idealized reputation used by the large-scale score experiments
	// (equivalent to min-vote over loss-free managers).
	BlameDirect BlameMode = iota + 1
	// BlameMessages routes blames as messages to each target's M managers,
	// as deployed on PlanetLab (§7).
	BlameMessages
)

// Options configures a cluster.
type Options struct {
	// N is the number of nodes (ids 0..N-1; node 0 is the stream source
	// and is always honest). Churn may add nodes beyond N mid-run.
	N int
	// Seed roots all randomness.
	Seed uint64
	// Backend selects the execution backend: the deterministic
	// discrete-event engine (runtime.KindSim, the zero value) or the UDP
	// socket transport in single-process-many-sockets mode
	// (runtime.KindUDP).
	Backend runtime.Kind
	// Shards partitions the discrete-event engine for configurations
	// that can run in parallel (LiFTinG in message mode with no external
	// harness callbacks): -1 uses one shard per CPU, n >= 1 exactly n
	// shards, 0 one shard. Every other configuration runs one shard.
	// Seeded results are byte-identical for every value.
	Shards int
	// Gossip is the dissemination configuration.
	Gossip gossip.Config
	// Core is LiFTinG's configuration. Used when LiFTinG is enabled.
	Core core.Config
	// Rep configures the reputation substrate. If Rep.Compensation is 0 it
	// is derived from ExpectedLoss via the analysis (Equation 5, scaled by
	// Pdcc-dependent terms are left to the caller).
	Rep reputation.Config
	// Stream describes the broadcast content.
	Stream stream.Config
	// NetDefaults is the default connection quality.
	NetDefaults net.Conditions
	// ConditionsFor, if non-nil, overrides per-node conditions (the
	// PlanetLab heterogeneity of §7).
	ConditionsFor func(id msg.NodeID) (net.Conditions, bool)
	// LiFTinG enables the verification machinery.
	LiFTinG bool
	// BlameMode defaults to BlameDirect.
	BlameMode BlameMode
	// BehaviorFor, if non-nil, supplies per-node behaviors (freeriders).
	// Returning nil means honest. Node 0 (the source) is always honest.
	BehaviorFor func(id msg.NodeID, dir *membership.Directory, rand *rng.Stream) gossip.Behavior
	// ExpelOnDetection removes nodes whose score crosses η (or who fail an
	// audit): they are stopped, marked down, and leave the membership.
	ExpelOnDetection bool
	// ExpectedLoss is the pl used for compensation (defaults to
	// NetDefaults' effective loss).
	ExpectedLoss float64
	// ExpectedR is the |R| used for compensation (defaults to
	// Gossip.MaxRequest, else 4).
	ExpectedR int
	// TrackPlayout enables per-node playout recording for health curves.
	TrackPlayout bool
	// StoreCapacity is the per-node chunk store capacity in chunks (0 =
	// sized from the stream rate and gossip period via
	// content.StoreCapacityFor). The content plane — real payload
	// bytes in serves, hash verification on receipt — is on whenever Stream
	// is a valid configuration; an invalid/zero Stream keeps the legacy
	// modelled-size behavior.
	StoreCapacity int
	// OnBlame, if non-nil, observes every blame emission (diagnostics and
	// per-reason accounting in experiments). Only effective in direct mode.
	// Under the UDP backend it is invoked concurrently from node
	// goroutines with no lock held; synchronize externally if it mutates
	// shared state.
	OnBlame func(target msg.NodeID, value float64, reason msg.BlameReason)
	// Chaos, if non-nil, layers a deterministic fault schedule onto the
	// run: crash→restart cycles with manager score handoff, partitions,
	// correlated loss bursts, standing duplication/reordering and per-node
	// clock skew. Events apply from harness timers (the engine's global
	// phase), and the plan itself is pure data, so a configuration that
	// runs in parallel stays byte-identical across shard counts. Keep the
	// stream source out of the plan's candidates.
	Chaos *chaos.Plan
	// OnPeriodSnapshot, if non-nil, receives a deterministic metrics
	// snapshot at the start of every score period, before the period's
	// flushes and expulsion checks. Under the sim backend it fires in the
	// global phase with every shard parked at the barrier, so the
	// counts are byte-identical across shard and worker counts; the
	// callback receives a value copy and cannot perturb the run.
	OnPeriodSnapshot func(p msg.Period, s metrics.Snapshot)
}

// Cluster is an assembled system.
type Cluster struct {
	Opts Options
	// RT is the execution backend everything is wired to.
	RT runtime.Runtime
	// Engine and Net expose the discrete-event internals; both are nil
	// under the UDP backend.
	Engine    *sim.Engine
	Net       *net.SimNet
	Dir       *membership.Directory
	Collector *metrics.Collector
	// Content is the stream's canonical payload source (nil when the
	// content plane is off). Its memoized slices are shared by every
	// node's store, so large populations hold one copy of the stream.
	Content   *content.Source
	Nodes     map[msg.NodeID]*gossip.Node
	Verifiers map[msg.NodeID]*core.Verifier
	Managers  map[msg.NodeID]*reputation.Manager
	Board     *reputation.Board // direct mode; nil in message mode
	Playouts  map[msg.NodeID]*stream.Playout
	// Expelled records when each node was expelled (virtual time).
	Expelled map[msg.NodeID]time.Duration
	// Joined records when each churn arrival entered the system.
	Joined map[msg.NodeID]time.Duration
	// Departed records when each node voluntarily left (churn).
	Departed map[msg.NodeID]time.Duration
	// Crashed records when each node last crashed (fault plane); Restarted
	// when it last came back.
	Crashed   map[msg.NodeID]time.Duration
	Restarted map[msg.NodeID]time.Duration
	// Freeriders records which nodes got a non-honest behavior.
	Freeriders map[msg.NodeID]bool

	// mu guards the mutable maps above plus period/clients/handoffs: under
	// the UDP backend churn, expulsion and ticks run on separate
	// goroutines. boardMu serializes all access to Board and OnBlame.
	mu      sync.Mutex
	boardMu sync.Mutex

	root          *rng.Stream
	repCfg        reputation.Config
	auditor       *core.Auditor
	period        msg.Period
	clients       []ownedClient // message-mode blame clients, flushed per period
	nextID        msg.NodeID
	handoffs      int
	rebalance     bool // a manager rebalance is scheduled
	rebalanceFull bool // ...and must rescan every assignment (a join)

	// Message-mode rebalance bookkeeping: the manager set last applied per
	// target, its reverse index (manager -> targets it manages), and the
	// nodes removed since the last rebalance. Together they make a
	// removal-triggered rebalance O(affected targets) instead of O(N·M):
	// only the departed managers' targets can change assignment.
	lastMgrs       map[msg.NodeID][]msg.NodeID
	mgrTargets     map[msg.NodeID]map[msg.NodeID]bool
	pendingRemoved []msg.NodeID

	// Fault-plane state (guarded by mu): nodes currently down from a crash,
	// the current partition's minority island, the loss-burst overlays, and
	// how many plan events have been applied.
	crashedNow   map[msg.NodeID]bool
	partMinority map[msg.NodeID]bool
	partitioned  bool
	burstLoss    map[msg.NodeID]float64
	chaosApplied int
}

// ownedClient pairs a blame client with the node whose execution context
// serializes it.
type ownedClient struct {
	owner  msg.NodeID
	client *reputation.Client
}

// auxChain fans a message out to handlers until one claims it.
type auxChain []gossip.AuxHandler

func (c auxChain) HandleAux(from msg.NodeID, m msg.Message) bool {
	for _, h := range c {
		if h != nil && h.HandleAux(from, m) {
			return true
		}
	}
	return false
}

// skewCtx runs one node's timers on a drifting local clock: every delay is
// scaled by a constant rate factor, so a node with factor 1.02 fires its
// gossip periods 2% late and slowly drifts against the period auditor. Now
// stays on true time — arrival timestamps (QoE, playout) measure when
// chunks actually land. Scaling is a pure function of the delay, so skewed
// runs remain deterministic and shard-count-invariant.
type skewCtx struct {
	sim.Context
	factor float64
}

func (s skewCtx) After(d time.Duration, fn func()) {
	s.Context.After(time.Duration(float64(d)*s.factor), fn)
}

// managerAux adapts a reputation.Manager to gossip.AuxHandler.
type managerAux struct{ m *reputation.Manager }

func (a managerAux) HandleAux(from msg.NodeID, mm msg.Message) bool {
	return a.m.HandleMessage(from, mm)
}

// boardSink routes blames onto the shared board under the board lock. The
// observer callback runs outside it, so it may freely read cluster state
// (Scores, the board) without self-deadlocking.
type boardSink struct{ c *Cluster }

func (s boardSink) Blame(target msg.NodeID, value float64, reason msg.BlameReason) {
	s.c.boardMu.Lock()
	s.c.Board.AddBlame(target, value)
	s.c.boardMu.Unlock()
	if s.c.Opts.OnBlame != nil {
		s.c.Opts.OnBlame(target, value, reason)
	}
}

// countingSink wraps a BlameSink with per-reason issue accounting. The
// counter adds commute, so wrapping does not affect sharded determinism.
type countingSink struct {
	coll  *metrics.Collector
	inner core.BlameSink
}

func (s countingSink) Blame(target msg.NodeID, value float64, reason msg.BlameReason) {
	s.coll.OnBlameIssued(reason.String())
	s.inner.Blame(target, value, reason)
}

// auditorProxy routes audit responses to the cluster's auditor once it
// exists (the auditor is created lazily, after the nodes).
type auditorProxy struct{ c *Cluster }

func (p auditorProxy) HandleAux(from msg.NodeID, m msg.Message) bool {
	if p.c.auditor == nil {
		return false
	}
	return p.c.auditor.HandleAux(from, m)
}

// New assembles a cluster. It panics on invalid configuration (experiments
// are code, not user input).
func New(opts Options) *Cluster {
	if opts.N < 2 {
		panic("cluster: need at least 2 nodes")
	}
	if opts.BlameMode == 0 {
		opts.BlameMode = BlameDirect
	}
	if opts.ExpectedR == 0 {
		if opts.Gossip.MaxRequest > 0 {
			opts.ExpectedR = opts.Gossip.MaxRequest
		} else {
			opts.ExpectedR = 4
		}
	}
	if opts.ExpectedLoss == 0 {
		d := opts.NetDefaults
		opts.ExpectedLoss = 1 - (1-d.LossIn)*(1-d.LossOut)
	}
	if opts.Rep.Compensation == 0 && opts.LiFTinG {
		opts.Rep.Compensation = CompensationFor(opts.ExpectedLoss, opts.Gossip.F, opts.ExpectedR, opts.Core.Pdcc)
	}
	if opts.Core.Population == 0 {
		opts.Core.Population = opts.N
	}
	if opts.ExpelOnDetection && opts.Rep.GracePeriods == 0 {
		// Young scores are noisy (σ(s) ∝ 1/√r); don't act on them.
		opts.Rep.GracePeriods = 8
	}
	if opts.Chaos != nil {
		// The plan's standing link perturbations apply to every node for
		// the whole run, so they fold into the default conditions before
		// the backend is built.
		if opts.Chaos.DupProb > 0 {
			opts.NetDefaults.DupProb = opts.Chaos.DupProb
		}
		if opts.Chaos.ReorderProb > 0 {
			opts.NetDefaults.ReorderProb = opts.Chaos.ReorderProb
			opts.NetDefaults.ReorderDelay = opts.Chaos.ReorderDelay
		}
	}

	c := &Cluster{
		Opts:       opts,
		Dir:        membership.Sequential(opts.N),
		Collector:  metrics.NewCollector(),
		Nodes:      make(map[msg.NodeID]*gossip.Node, opts.N),
		Verifiers:  make(map[msg.NodeID]*core.Verifier, opts.N),
		Managers:   make(map[msg.NodeID]*reputation.Manager, opts.N),
		Playouts:   make(map[msg.NodeID]*stream.Playout, opts.N),
		Expelled:   make(map[msg.NodeID]time.Duration),
		Joined:     make(map[msg.NodeID]time.Duration),
		Departed:   make(map[msg.NodeID]time.Duration),
		Crashed:    make(map[msg.NodeID]time.Duration),
		Restarted:  make(map[msg.NodeID]time.Duration),
		Freeriders: make(map[msg.NodeID]bool),
		root:       rng.New(opts.Seed),
		nextID:     msg.NodeID(opts.N),
		lastMgrs:   make(map[msg.NodeID][]msg.NodeID),
		mgrTargets: make(map[msg.NodeID]map[msg.NodeID]bool),

		crashedNow:   make(map[msg.NodeID]bool),
		partMinority: make(map[msg.NodeID]bool),
		burstLoss:    make(map[msg.NodeID]float64),
	}
	if opts.Stream.Validate() == nil {
		// The content seed derives from the root exactly as NodeHost derives
		// it, so an in-process cluster and a multi-process deployment of the
		// same seed broadcast byte-identical streams.
		c.Content = content.NewSource(c.root.Derive("content").Seed(), opts.Stream.ChunkPayload)
	}

	if opts.Backend == runtime.KindSim {
		window := opts.NetDefaults.LatencyBase
		if window <= 0 {
			window = sim.DefaultWindow // only one shard runs then
		}
		engine := sim.NewSharded(c.shardCount(), window)
		simnet := net.NewSimNet(engine, c.root.Derive("net"), c.Collector, opts.NetDefaults)
		c.Engine = engine
		c.Net = simnet
		c.RT = runtime.NewSim(engine, simnet)
	} else {
		rt, err := runtime.New(opts.Backend, runtime.BackendOptions{
			Seed:      c.root.Derive("net").Seed(),
			Collector: c.Collector,
			Defaults:  opts.NetDefaults,
		})
		if err != nil {
			panic(fmt.Sprintf("cluster: backend %v: %v", opts.Backend, err))
		}
		c.RT = rt
	}

	if opts.BlameMode == BlameDirect {
		c.Board = reputation.NewBoard(opts.Rep.Compensation)
	}
	c.repCfg = opts.Rep

	for i := 0; i < opts.N; i++ {
		c.buildNode(msg.NodeID(i))
	}

	if cf := opts.ConditionsFor; cf != nil {
		for i := 0; i < opts.N; i++ {
			if cond, ok := cf(msg.NodeID(i)); ok {
				c.RT.SetConditions(msg.NodeID(i), cond)
			}
		}
	}

	// Pre-register every node with the scorekeepers at period 0 so r counts
	// time in the system, not time since first blame.
	if opts.LiFTinG {
		for i := 0; i < opts.N; i++ {
			c.registerScorekeepers(msg.NodeID(i), 0)
		}
	}

	return c
}

// buildNode assembles one node — gossip, verifier, manager duty, behavior —
// and attaches it to the runtime. The caller registers scorekeepers and
// per-node conditions.
func (c *Cluster) buildNode(id msg.NodeID) {
	opts := c.Opts
	nodeRand := c.root.ForNode(uint32(id))
	ctx := c.RT.Context(id)
	if opts.Chaos != nil {
		if f := opts.Chaos.SkewFactor(id); f != 1 {
			ctx = skewCtx{Context: ctx, factor: f}
		}
	}
	netw := c.RT.Network()

	var behavior gossip.Behavior
	if opts.BehaviorFor != nil && id != 0 {
		behavior = opts.BehaviorFor(id, c.Dir, nodeRand.Derive("behavior"))
	}
	isFreerider := behavior != nil
	if behavior == nil {
		behavior = gossip.Honest{}
	}

	gcfg := opts.Gossip
	gcfg.StartOffset = time.Duration(nodeRand.Derive("offset").Float64() * float64(gcfg.Period))

	deps := gossip.Deps{
		Ctx:      ctx,
		Net:      netw,
		Dir:      c.Dir,
		Rand:     nodeRand.Derive("gossip"),
		Behavior: behavior,
		Metrics:  c.Collector,
	}

	if c.Content != nil {
		capacity := opts.StoreCapacity
		if capacity <= 0 {
			capacity = content.StoreCapacityFor(opts.Stream.ChunkInterval(), opts.Gossip.Period)
		}
		deps.Store = content.NewStore(capacity)
	}

	var playout *stream.Playout
	if opts.TrackPlayout {
		playout = stream.NewPlayout(opts.Stream)
	}
	if playout != nil || c.Content != nil {
		// QoE accounting rides the same per-chunk callback as playout
		// tracking. The closure state (previous arrival) is only touched
		// from the node's serialized execution context, and the collector
		// sums are commuting integer adds, so sharded runs stay
		// byte-identical across shard counts.
		var interval time.Duration
		if c.Content != nil {
			interval = opts.Stream.ChunkInterval()
		}
		var lastArrival time.Duration
		seenArrival := false
		deps.OnChunk = func(ch msg.ChunkID, at time.Duration) {
			if playout != nil {
				playout.Received(ch, at)
			}
			if c.Content == nil {
				return
			}
			c.Collector.OnStreamLag(at - opts.Stream.GenTime(ch))
			if seenArrival {
				c.Collector.OnJitter((at - lastArrival) - interval)
			}
			lastArrival, seenArrival = at, true
		}
	}

	node := gossip.NewNode(id, gcfg, deps)
	var verifier *core.Verifier
	var manager *reputation.Manager
	if opts.LiFTinG {
		var sink core.BlameSink
		var client *reputation.Client
		if opts.BlameMode == BlameDirect {
			sink = boardSink{c}
		} else {
			client = reputation.NewClient(id, c.repCfg, netw, c.Dir)
			sink = client
		}
		sink = countingSink{coll: c.Collector, inner: sink}
		verifier = core.NewVerifier(id, opts.Core, ctx, netw, nodeRand.Derive("verify"), node.History(), behavior, sink)
		var aux auxChain
		aux = append(aux, verifier)
		if opts.BlameMode == BlameMessages {
			// The expulsion callback carries the hosting manager's id: under
			// the sim backend it fires inside a lookahead window, and the
			// resulting membership mutation must be deferred to the global
			// phase keyed by the node that triggered it.
			mcfg := c.repCfg
			mcfg.OnExpel = func(target msg.NodeID, _ msg.BlameReason) { c.expelFrom(id, target) }
			manager = reputation.NewManager(id, mcfg, netw, c.Dir)
			aux = append(aux, managerAux{manager})
		}
		if id == 0 {
			aux = append(aux, auditorProxy{c})
		}
		deps.Monitor = verifier
		deps.Aux = aux
		deps.History = node.History()
		// Rebuild the node with the full wiring (cheap; state empty).
		node = gossip.NewNode(id, gcfg, deps)
		if client != nil {
			c.mu.Lock()
			c.clients = append(c.clients, ownedClient{owner: id, client: client})
			c.mu.Unlock()
		}
	}

	c.mu.Lock()
	if isFreerider {
		c.Freeriders[id] = true
	}
	c.Nodes[id] = node
	if verifier != nil {
		c.Verifiers[id] = verifier
	}
	if manager != nil {
		c.Managers[id] = manager
	}
	if playout != nil {
		c.Playouts[id] = playout
	}
	c.mu.Unlock()

	c.RT.Attach(id, node)
}

// registerScorekeepers starts tracking id's score as of period p.
func (c *Cluster) registerScorekeepers(id msg.NodeID, p msg.Period) {
	switch c.Opts.BlameMode {
	case BlameDirect:
		c.boardMu.Lock()
		c.Board.Join(id)
		c.boardMu.Unlock()
	case BlameMessages:
		set := c.Dir.Managers(id, c.Opts.Rep.M)
		c.mu.Lock()
		c.setAssignmentLocked(id, set)
		mgrs := make([]*reputation.Manager, 0, len(set))
		for _, m := range set {
			if mgr, ok := c.Managers[m]; ok {
				mgrs = append(mgrs, mgr)
			}
		}
		c.mu.Unlock()
		for _, mgr := range mgrs {
			mgr.Track(id, p)
		}
	}
}

// setAssignmentLocked records set as target's current manager assignment
// and maintains the reverse index. Callers hold c.mu. The slice comes from
// Directory.Managers and is shared and read-only.
func (c *Cluster) setAssignmentLocked(target msg.NodeID, set []msg.NodeID) {
	for _, m := range c.lastMgrs[target] {
		delete(c.mgrTargets[m], target)
	}
	c.lastMgrs[target] = set
	for _, m := range set {
		ts := c.mgrTargets[m]
		if ts == nil {
			ts = make(map[msg.NodeID]bool)
			c.mgrTargets[m] = ts
		}
		ts[target] = true
	}
}

// shardCount returns the number of shards to run the discrete-event engine
// with. More than one requires a positive base latency (the lookahead
// window) and a configuration whose harness stays out of the event hot
// path: LiFTinG in message mode (the direct-mode board is a shared mutable
// global), no per-blame observer and no per-node condition overrides.
func (c *Cluster) shardCount() int {
	o := &c.Opts
	if o.Shards == 0 || !o.LiFTinG || o.BlameMode != BlameMessages || o.OnBlame != nil ||
		o.ConditionsFor != nil || o.NetDefaults.LatencyBase <= 0 {
		return 1
	}
	if o.Shards > 0 {
		return o.Shards
	}
	return max(1, gort.GOMAXPROCS(0))
}

// expelFrom expels target on behalf of owner. Inside an engine window the
// membership mutation is deferred to the global phase, keyed by owner so
// the expulsion order is shard-count-independent; everywhere else it
// applies immediately.
func (c *Cluster) expelFrom(owner msg.NodeID, target msg.NodeID) {
	if c.Engine != nil && c.Engine.InWindow() {
		c.Engine.DeferGlobal(int(owner), func() { c.expel(target) })
		return
	}
	c.expel(target)
}

// CompensationFor returns the per-period compensation b̃ for the given loss,
// fanout, |R| and pdcc. Direct-verification wrongful blames and the
// broken-chain blame (the (a)-term of Equation 3) accrue always; witness
// blames only accrue when the verifier polls, i.e. a fraction pdcc of the
// time (§6.2 analyzes pdcc = 1, where this reduces to Equation 5).
func CompensationFor(loss float64, f, r int, pdcc float64) float64 {
	p := analysis.Params{F: f, R: r, Loss: loss}
	return p.DirectVerificationBlame() + p.CrossCheckBlameChain() + pdcc*p.CrossCheckBlameWitness()
}

// Calibration is the result of an honest pilot run: the empirical wrongful
// blame rate and its spread. The analysis's b̃ (Equation 5) assumes the
// saturated workload of §6.2 — every node receiving f proposals per period,
// each answered by an |R|-chunk request. A real chunk workload is lighter
// (each chunk is served to each node once), so deployments estimate b̃ from
// observed traffic; Calibrate plays that role here.
type Calibration struct {
	// Compensation is the measured mean wrongful blame per node per period
	// (the empirical b̃).
	Compensation float64
	// ScoreStd is the standard deviation of the resulting normalized
	// honest scores; η is typically set at a few multiples of it (the
	// paper's η = −9.75 is ≈ 2.7·σ(s) at its parameters).
	ScoreStd float64
	// Scores is the empirical distribution of honest pilot scores (with
	// Compensation applied). Under heterogeneous connectivity it has a
	// poor-node tail; thresholds are best placed by quantile (the paper's
	// η flags ≈12% of honest nodes, almost all from that tail, §7.3).
	Scores *stats.ECDF
	// Periods is the pilot length used.
	Periods int
}

// Calibrate runs an all-honest pilot with the given options and returns the
// empirical compensation and honest score spread. The pilot always runs on
// the discrete-event backend (it is a Monte-Carlo measurement, not an
// integration test), ignores BehaviorFor, expulsion and playout tracking,
// and discards the first 25% of the run as warmup (the dissemination
// ramp-up produces atypical blame). Cancelling ctx aborts the pilot and
// returns ctx.Err() with a zero Calibration.
func Calibrate(ctx context.Context, opts Options, duration time.Duration) (Calibration, error) {
	pilot := opts
	pilot.Backend = runtime.KindSim
	pilot.BehaviorFor = nil
	pilot.ExpelOnDetection = false
	pilot.TrackPlayout = false
	pilot.BlameMode = BlameDirect
	pilot.OnBlame = nil
	pilot.Seed = opts.Seed ^ 0x5afec0de
	c := New(pilot)
	c.Start()
	c.StartStream(duration)

	warmup := duration / 4
	if err := c.RunContext(ctx, warmup); err != nil {
		c.Close()
		return Calibration{}, err
	}
	warmupPeriod := int(c.Board.Period())
	atWarmup := make(map[msg.NodeID]float64, pilot.N)
	for i := 1; i < pilot.N; i++ {
		atWarmup[msg.NodeID(i)] = c.Board.TotalBlame(msg.NodeID(i))
	}
	if err := c.RunContext(ctx, duration+pilot.Gossip.Period); err != nil {
		c.Close()
		return Calibration{}, err
	}

	periods := int(c.Board.Period()) - warmupPeriod
	if periods < 1 {
		periods = 1
	}
	var blame stats.Moments
	rates := make([]float64, 0, pilot.N-1)
	for i := 1; i < pilot.N; i++ { // skip the source: it never requests
		rate := (c.Board.TotalBlame(msg.NodeID(i)) - atWarmup[msg.NodeID(i)]) / float64(periods)
		blame.Add(rate)
		rates = append(rates, rate)
	}
	// With compensation set to the measured mean, s = comp − total/r, so
	// σ(s) equals the spread of per-period blame rates.
	scores := make([]float64, len(rates))
	for i, r := range rates {
		scores[i] = blame.Mean() - r
	}
	return Calibration{
		Compensation: blame.Mean(),
		ScoreStd:     blame.Std(),
		Scores:       stats.NewECDF(scores),
		Periods:      periods,
	}, nil
}

// Start launches every node (in id order, for reproducibility).
func (c *Cluster) Start() {
	for i := 0; i < c.Opts.N; i++ {
		c.Nodes[msg.NodeID(i)].Start()
	}
	c.scheduleTick(1)
	c.startChaos()
}

// scheduleTick advances the score period every Tg.
func (c *Cluster) scheduleTick(p msg.Period) {
	c.RT.After(c.Opts.Gossip.Period, func() {
		c.tick(p)
		c.scheduleTick(p + 1)
	})
}

// tick runs one score-period advance: board clock, expulsion checks, blame
// flushes and manager ticks. Under the UDP backend it runs on a harness
// goroutine outside any node lock.
func (c *Cluster) tick(p msg.Period) {
	if c.Opts.OnPeriodSnapshot != nil {
		// Sampled before the period's flushes so the snapshot reflects
		// exactly the traffic of completed periods.
		c.Opts.OnPeriodSnapshot(p, c.Collector.SnapshotAt(uint64(p)))
	}
	c.mu.Lock()
	c.period = p
	clients := make([]ownedClient, len(c.clients))
	copy(clients, c.clients)
	mgrIDs := make([]msg.NodeID, 0, len(c.Managers))
	//lint:allow ordered-map-range collect-then-sort: ids are sorted before the period fan-out
	for id := range c.Managers {
		// A crashed node's manager replica is frozen, not authoritative:
		// it must not advance its clock or issue expulsion verdicts while
		// the process is down. Its entries stay readable for handoff.
		if c.crashedNow[id] {
			continue
		}
		mgrIDs = append(mgrIDs, id)
	}
	c.mu.Unlock()

	if c.Board != nil {
		c.boardMu.Lock()
		c.Board.SetPeriod(p)
		var toExpel []msg.NodeID
		if c.Opts.ExpelOnDetection {
			c.Board.Each(func(id msg.NodeID, e reputation.Entry) {
				if e.Expelled || c.Board.Periods(id) < c.Opts.Rep.GracePeriods {
					return
				}
				if c.Board.Score(id) < c.Opts.Rep.Eta {
					toExpel = append(toExpel, id)
				}
			})
			sort.Slice(toExpel, func(i, j int) bool { return toExpel[i] < toExpel[j] })
			for _, id := range toExpel {
				c.Board.MarkExpelled(id, msg.ReasonUnknown)
			}
		}
		c.boardMu.Unlock()
		for _, id := range toExpel {
			c.expel(id)
		}
	}

	flushEvery := msg.Period(c.Opts.Rep.FlushEvery)
	if flushEvery < 1 {
		flushEvery = 1
	}
	if p%flushEvery == 0 {
		for _, oc := range clients {
			client := oc.client
			// Client state is written by the owner's verifier under the
			// node's serialization; flush there too.
			c.RT.Exec(oc.owner, client.Flush)
		}
	}

	sort.Slice(mgrIDs, func(i, j int) bool { return mgrIDs[i] < mgrIDs[j] })
	c.mu.Lock()
	mgrs := make([]*reputation.Manager, 0, len(mgrIDs))
	for _, id := range mgrIDs {
		mgrs = append(mgrs, c.Managers[id])
	}
	c.mu.Unlock()
	for _, m := range mgrs {
		m.Tick(p)
	}
}

// expel removes a node from the running system.
func (c *Cluster) expel(id msg.NodeID) {
	c.mu.Lock()
	if _, done := c.Expelled[id]; done {
		c.mu.Unlock()
		return
	}
	if _, gone := c.Departed[id]; gone {
		c.mu.Unlock()
		return
	}
	c.Expelled[id] = c.RT.Now()
	node := c.Nodes[id]
	c.mu.Unlock()
	c.Collector.OnExpel()
	if c.Opts.ExpelOnDetection {
		c.remove(id, node)
	}
}

// remove takes a node out of the running system: out of the sampling
// population, off the network, stopped.
func (c *Cluster) remove(id msg.NodeID, node *gossip.Node) {
	c.Dir.Expel(id)
	c.RT.SetDown(id, true)
	if node != nil {
		c.RT.Exec(id, node.Stop)
	}
	c.mu.Lock()
	c.pendingRemoved = append(c.pendingRemoved, id)
	c.mu.Unlock()
	// A removal only adds one replacement manager per affected target (the
	// assignment probes over the unchanged registration set, skipping the
	// departed node), so the cheap gains-only rebalance suffices.
	c.scheduleRebalance(false)
}

// StartStream schedules chunk injections at the source (node 0) for the
// given duration.
func (c *Cluster) StartStream(duration time.Duration) {
	total := c.Opts.Stream.ChunksBy(duration)
	source := c.Nodes[0]
	ctx := c.RT.Context(0)
	for i := 0; i < total; i++ {
		ch := msg.ChunkID(i)
		at := c.Opts.Stream.GenTime(ch)
		if at > duration {
			break
		}
		ctx.After(at, func() {
			if c.Content != nil {
				payload, hash := c.Content.Chunk(ch)
				source.InjectChunkData(ch, payload, hash)
			} else {
				source.InjectChunk(ch)
			}
		})
		if p, ok := c.Playouts[0]; ok {
			p.Received(ch, at)
		}
	}
}

// Run advances the cluster to the given time: virtual under the
// discrete-event backend, wall-clock under the UDP one. It is
// RunContext with a background context — for runs nothing cancels.
func (c *Cluster) Run(until time.Duration) { c.RT.Run(context.Background(), until) }

// RunContext advances the cluster like Run but aborts promptly when ctx is
// cancelled, returning ctx.Err(). After a cancelled advance the cluster is
// still consistent; call Close to tear it down (wall-clock backends cancel
// their pending timers there, so an interrupted run does not wait out the
// rest of its schedule).
func (c *Cluster) RunContext(ctx context.Context, until time.Duration) error {
	return c.RT.Run(ctx, until)
}

// After schedules a harness callback at d from now (audits, churn events,
// mid-run probes), outside any node's serialization.
func (c *Cluster) After(d time.Duration, fn func()) { c.RT.After(d, fn) }

// Close shuts the backend down and waits for in-flight callbacks. Call it
// before reading node state after a UDP run; it is a no-op under the
// discrete-event backend.
func (c *Cluster) Close() { c.RT.Close() }

// Auditor lazily creates the system's auditor, hosted at the source node
// (audits run sporadically from any node; one auditor keeps the experiments
// deterministic). Its outcomes expel on verdict when ExpelOnDetection is
// set.
func (c *Cluster) Auditor(onOutcome func(core.AuditOutcome)) *core.Auditor {
	if c.auditor != nil {
		return c.auditor
	}
	var sink core.BlameSink
	if c.Board != nil {
		sink = boardSink{c}
	} else {
		client := reputation.NewClient(0, c.repCfg, c.RT.Network(), c.Dir)
		c.mu.Lock()
		c.clients = append(c.clients, ownedClient{owner: 0, client: client})
		c.mu.Unlock()
		sink = client
	}
	sink = countingSink{coll: c.Collector, inner: sink}
	c.auditor = core.NewAuditor(0, c.Opts.Core, c.RT.Context(0), c.RT.Network(), c.root.Derive("auditor"), sink,
		func(out core.AuditOutcome) {
			c.Collector.OnAuditOutcome(out.Responded, !out.Expel)
			if out.Expel {
				c.expelFrom(0, out.Target)
			}
			if onOutcome != nil {
				onOutcome(out)
			}
		})
	return c.auditor
}

// Scores returns every known node's current score: the board score in
// direct mode, or the min-vote over manager copies in message mode. Under
// the UDP backend call it after Close (or accept slightly stale reads).
func (c *Cluster) Scores() map[msg.NodeID]float64 {
	ids := c.Dir.All()
	out := make(map[msg.NodeID]float64, len(ids))
	if c.Board != nil {
		c.boardMu.Lock()
		for _, id := range ids {
			out[id] = c.Board.Score(id)
		}
		c.boardMu.Unlock()
		return out
	}
	c.mu.Lock()
	mgrByID := make(map[msg.NodeID]*reputation.Manager, len(c.Managers))
	//lint:allow ordered-map-range map-to-map copy; the copy is order-insensitive
	for id, m := range c.Managers {
		mgrByID[id] = m
	}
	c.mu.Unlock()
	for _, target := range ids {
		var copies []float64
		for _, m := range c.Dir.Managers(target, c.Opts.Rep.M) {
			mgr, ok := mgrByID[m]
			if !ok {
				continue
			}
			if s, tracked := mgr.Score(target); tracked {
				copies = append(copies, s)
			}
		}
		score, _ := reputation.MinVoteScore(copies, nil)
		out[target] = score
	}
	return out
}

// Period returns the current score period.
func (c *Cluster) Period() msg.Period {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.period
}

// Handoffs returns how many reputation-manager state transfers membership
// changes have triggered so far.
func (c *Cluster) Handoffs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.handoffs
}

// --- churn ---

// ScheduleJoin arranges for a fresh node to join the system at time at. The
// node's id is allocated immediately (and returned); the node itself — with
// its behavior from BehaviorFor, verifier and manager duty — is assembled
// and started when the time comes. Scorekeepers pick it up at the
// then-current period, and in message mode the manager assignment is
// rebalanced with state handoff.
func (c *Cluster) ScheduleJoin(at time.Duration) msg.NodeID {
	c.mu.Lock()
	id := c.nextID
	c.nextID++
	c.mu.Unlock()
	c.RT.After(at, func() { c.join(id) })
	return id
}

// ScheduleLeave arranges for id to leave the system voluntarily at time at:
// it stops gossiping, drops off the network and exits the sampling
// population. In message mode its manager duties are handed off.
func (c *Cluster) ScheduleLeave(at time.Duration, id msg.NodeID) {
	c.RT.After(at, func() { c.leave(id) })
}

// join brings a scheduled churn arrival into the running system.
func (c *Cluster) join(id msg.NodeID) {
	c.Dir.Join(id)
	c.buildNode(id)
	if cf := c.Opts.ConditionsFor; cf != nil {
		if cond, ok := cf(id); ok {
			c.RT.SetConditions(id, cond)
		}
	}
	if c.Opts.Chaos != nil {
		// A node joining mid-partition lands on the majority side.
		c.applyChaosConditions(id)
	}
	c.mu.Lock()
	c.Joined[id] = c.RT.Now()
	p := c.period
	node := c.Nodes[id]
	c.mu.Unlock()
	if c.Opts.LiFTinG {
		c.registerScorekeepers(id, p)
	}
	// The node starts inside its own serialization domain.
	c.RT.Exec(id, node.Start)
	// A join grows the registration set, which can reshuffle the manager
	// assignment of every existing target: full rebalance.
	c.scheduleRebalance(true)
}

// leave removes a voluntarily departing node.
func (c *Cluster) leave(id msg.NodeID) {
	c.mu.Lock()
	if _, gone := c.Departed[id]; gone {
		c.mu.Unlock()
		return
	}
	if _, done := c.Expelled[id]; done {
		c.mu.Unlock()
		return
	}
	c.Departed[id] = c.RT.Now()
	node := c.Nodes[id]
	c.mu.Unlock()
	c.remove(id, node)
}

// --- fault plane ---

// startChaos schedules every event of the configured fault plan. All
// scheduling happens up front, in the plan's (sorted, deterministic) order,
// from harness timers — under the sim backend they fire in the global
// phase, where membership and condition mutations are safe and
// shard-count-invariant.
func (c *Cluster) startChaos() {
	plan := c.Opts.Chaos
	if plan == nil {
		return
	}
	for _, e := range plan.Events {
		ev := e
		c.RT.After(ev.At, func() { c.applyChaosEvent(ev) })
	}
}

// applyChaosEvent performs one fault transition.
func (c *Cluster) applyChaosEvent(ev chaos.Event) {
	c.mu.Lock()
	c.chaosApplied++
	c.mu.Unlock()
	switch ev.Kind {
	case chaos.Crash:
		for _, id := range ev.Nodes {
			c.crash(id)
		}
	case chaos.Restart:
		for _, id := range ev.Nodes {
			c.restart(id)
		}
	case chaos.Partition:
		c.mu.Lock()
		c.partitioned = true
		for _, id := range ev.Nodes {
			c.partMinority[id] = true
		}
		c.mu.Unlock()
		c.applyChaosConditionsAll()
	case chaos.Heal:
		c.mu.Lock()
		c.partitioned = false
		c.partMinority = make(map[msg.NodeID]bool)
		c.mu.Unlock()
		c.applyChaosConditionsAll()
	case chaos.LossBurst:
		c.mu.Lock()
		for _, id := range ev.Nodes {
			c.burstLoss[id] = ev.Loss
		}
		c.mu.Unlock()
		for _, id := range ev.Nodes {
			c.applyChaosConditions(id)
		}
	case chaos.LossHeal:
		c.mu.Lock()
		for _, id := range ev.Nodes {
			delete(c.burstLoss, id)
		}
		c.mu.Unlock()
		for _, id := range ev.Nodes {
			c.applyChaosConditions(id)
		}
	}
}

// chaosConditionsLocked rebuilds node id's effective conditions from its
// base (defaults or ConditionsFor) plus the current fault overlays. Caller
// holds c.mu.
func (c *Cluster) chaosConditionsLocked(id msg.NodeID) net.Conditions {
	cond := c.Opts.NetDefaults
	if cf := c.Opts.ConditionsFor; cf != nil {
		if o, ok := cf(id); ok {
			cond = o
		}
	}
	if c.partitioned {
		if c.partMinority[id] {
			cond.PartitionGroup = 2
		} else {
			cond.PartitionGroup = 1
		}
	}
	if extra, ok := c.burstLoss[id]; ok {
		// The correlated burst stacks on the link's own loss.
		cond.LossIn = 1 - (1-cond.LossIn)*(1-extra)
	}
	if _, gone := c.Expelled[id]; gone {
		cond.Down = true
	}
	if _, gone := c.Departed[id]; gone {
		cond.Down = true
	}
	if c.crashedNow[id] {
		cond.Down = true
	}
	return cond
}

// applyChaosConditions pushes node id's rebuilt conditions to the backend.
func (c *Cluster) applyChaosConditions(id msg.NodeID) {
	c.mu.Lock()
	cond := c.chaosConditionsLocked(id)
	c.mu.Unlock()
	c.RT.SetConditions(id, cond)
}

// applyChaosConditionsAll reapplies conditions for every id ever seen —
// partition transitions change the group of all nodes, including down ones
// (whose Down flag the rebuild preserves).
func (c *Cluster) applyChaosConditionsAll() {
	c.mu.Lock()
	limit := c.nextID
	c.mu.Unlock()
	for id := msg.NodeID(0); id < limit; id++ {
		c.applyChaosConditions(id)
	}
}

// crash takes node id down hard: off the membership and the network, its
// process state (gossip history, pending blames, its manager replica's
// clock) frozen. The node's own score lives on its remote managers and is
// untouched. No-op for nodes already gone.
func (c *Cluster) crash(id msg.NodeID) {
	c.mu.Lock()
	if _, gone := c.Expelled[id]; gone {
		c.mu.Unlock()
		return
	}
	if _, gone := c.Departed[id]; gone {
		c.mu.Unlock()
		return
	}
	if c.crashedNow[id] {
		c.mu.Unlock()
		return
	}
	c.crashedNow[id] = true
	c.Crashed[id] = c.RT.Now()
	node := c.Nodes[id]
	// The crashed process's unflushed blames die with it.
	kept := c.clients[:0]
	for _, oc := range c.clients {
		if oc.owner != id {
			kept = append(kept, oc)
		}
	}
	c.clients = kept
	c.mu.Unlock()
	c.remove(id, node)
}

// restart brings a crashed node back with fresh protocol state, as a churn
// join of the same id: its managers re-track it at the current period (a
// no-op where the entry survived — Track does not reset tracked state), and
// the full rebalance re-adopts the most pessimistic surviving replica onto
// its fresh local manager. A node expelled or departed while down stays out.
func (c *Cluster) restart(id msg.NodeID) {
	c.mu.Lock()
	if !c.crashedNow[id] {
		c.mu.Unlock()
		return
	}
	if _, gone := c.Expelled[id]; gone {
		c.mu.Unlock()
		return
	}
	if _, gone := c.Departed[id]; gone {
		c.mu.Unlock()
		return
	}
	delete(c.crashedNow, id)
	c.Restarted[id] = c.RT.Now()
	c.mu.Unlock()

	c.Dir.Join(id)
	c.buildNode(id)
	if cf := c.Opts.ConditionsFor; cf != nil {
		if cond, ok := cf(id); ok {
			c.RT.SetConditions(id, cond)
		}
	}
	// Rebuilding conditions clears Down and restores any standing overlays
	// (partition side, loss burst) the node is still subject to.
	c.applyChaosConditions(id)

	c.mu.Lock()
	p := c.period
	node := c.Nodes[id]
	c.mu.Unlock()
	if c.Opts.LiFTinG {
		c.registerScorekeepers(id, p)
	}
	c.RT.Exec(id, node.Start)
	c.scheduleRebalance(true)
}

// ChaosApplied returns how many fault-plan events have fired so far.
func (c *Cluster) ChaosApplied() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.chaosApplied
}

// MaxTrackedPerManager returns the largest per-manager tracked-target count
// (message mode; 0 in direct mode). The soak invariants bound it by the
// total population ever seen.
func (c *Cluster) MaxTrackedPerManager() int {
	c.mu.Lock()
	mgrs := make([]*reputation.Manager, 0, len(c.Managers))
	//lint:allow ordered-map-range max reduction over the collected managers commutes
	for _, m := range c.Managers {
		mgrs = append(mgrs, m)
	}
	c.mu.Unlock()
	most := 0
	for _, m := range mgrs {
		if n := m.TrackedCount(); n > most {
			most = n
		}
	}
	return most
}

// scheduleRebalance queues a manager-assignment rebalance (message mode
// only). It runs as a harness event so no manager locks are held when it
// starts, and coalesces bursts of membership changes (a full request
// upgrades a pending cheap one).
func (c *Cluster) scheduleRebalance(full bool) {
	if c.Opts.BlameMode != BlameMessages || !c.Opts.LiFTinG {
		return
	}
	c.mu.Lock()
	c.rebalanceFull = c.rebalanceFull || full
	if c.rebalance {
		c.mu.Unlock()
		return
	}
	c.rebalance = true
	c.mu.Unlock()
	c.RT.After(0, c.rebalanceManagers)
}

// rebalanceManagers recomputes manager assignments after a membership
// change and performs the state handoff: a manager that became responsible
// for a target adopts the most pessimistic replica (consistent with
// min-vote reads), and managers no longer responsible drop their copy.
// Deterministic under the simulator: targets in id order, candidate
// replicas in id order.
//
// The pass is incremental. The directory's probe assignment only changes a
// target's manager set when one of the recorded managers left (a removal)
// or the registration set grew (a join), so a removal-triggered rebalance
// visits only the departed nodes' targets — found through the reverse
// index — and a join-triggered one walks every target but short-circuits
// the unchanged assignments. Handoff candidates are the union of the old
// and new sets: the old set is by construction exactly the target's live
// tracker set (registration seeds it, every rebalance re-establishes it),
// so no live replica escapes the pessimism scan. Replicas frozen on
// long-expelled managers are not candidates — they are equally invisible
// to min-vote reads, which only consult the current assignment.
func (c *Cluster) rebalanceManagers() {
	c.mu.Lock()
	c.rebalance = false
	full := c.rebalanceFull
	c.rebalanceFull = false
	removed := c.pendingRemoved
	c.pendingRemoved = nil
	p := c.period
	mgrByID := make(map[msg.NodeID]*reputation.Manager, len(c.Managers))
	//lint:allow ordered-map-range map-to-map copy; the copy is order-insensitive
	for id, m := range c.Managers {
		mgrByID[id] = m
	}
	var targets []msg.NodeID
	if full {
		targets = c.Dir.All()
	} else {
		seen := make(map[msg.NodeID]bool)
		for _, r := range removed {
			//lint:allow ordered-map-range collect-then-sort: targets are deduped then sorted below
			for t := range c.mgrTargets[r] {
				if !seen[t] {
					seen[t] = true
					targets = append(targets, t)
				}
			}
		}
		sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
	}
	c.mu.Unlock()

	// A replica's pessimism is its per-period blame rate — the score is
	// comp − blame/r, so the lowest score is the highest rate, not the
	// largest raw blame (a freshly joined entry with little blame but tiny
	// r can be the most damning copy). Expulsion verdicts trump rates.
	rate := func(e reputation.Entry) float64 {
		r := int(p) - int(e.JoinPeriod)
		if r < 1 {
			r = 1
		}
		return e.TotalBlame / float64(r)
	}
	worse := func(a, b reputation.Entry) bool { // is a more pessimistic than b?
		if a.Expelled != b.Expelled {
			return a.Expelled
		}
		return rate(a) > rate(b)
	}
	transfers := 0
	for _, target := range targets {
		newSet := c.Dir.Managers(target, c.Opts.Rep.M)
		c.mu.Lock()
		oldSet := c.lastMgrs[target]
		if slices.Equal(oldSet, newSet) {
			c.mu.Unlock()
			continue
		}
		c.setAssignmentLocked(target, newSet)
		c.mu.Unlock()
		cand := make([]msg.NodeID, 0, len(oldSet)+len(newSet))
		cand = append(cand, oldSet...)
		for _, m := range newSet {
			if !slices.Contains(oldSet, m) {
				cand = append(cand, m)
			}
		}
		sort.Slice(cand, func(i, j int) bool { return cand[i] < cand[j] })
		// The most pessimistic replica seeds (or upgrades) the responsible
		// managers, so the min-vote score cannot jump up through a handoff.
		var best reputation.Entry
		bestOK := false
		for _, id := range cand {
			mgr, ok := mgrByID[id]
			if !ok {
				continue
			}
			if e, tracked := mgr.Snapshot(target); tracked {
				if !bestOK || worse(e, best) {
					best, bestOK = e, true
				}
			}
		}
		for _, m := range newSet {
			mgr, ok := mgrByID[m]
			if !ok {
				continue
			}
			if e, tracked := mgr.Snapshot(target); tracked {
				// Already tracking, but perhaps only a near-empty entry from
				// an in-flight blame: adopt the historical copy if it is
				// more pessimistic, or the outgoing managers would discard
				// the target's record.
				if full && bestOK && worse(best, e) {
					mgr.Adopt(target, best, p)
					transfers++
				}
				continue
			}
			if bestOK {
				mgr.Adopt(target, best, p)
				transfers++
			} else {
				mgr.Track(target, p)
			}
		}
		if !full {
			// A removal never strips an alive manager of responsibility:
			// gains only, no drops.
			continue
		}
		for _, id := range cand {
			if slices.Contains(newSet, id) {
				continue
			}
			mgr, ok := mgrByID[id]
			if !ok {
				continue
			}
			if _, tracked := mgr.Snapshot(target); tracked {
				mgr.Drop(target)
			}
		}
	}
	c.mu.Lock()
	c.handoffs += transfers
	c.mu.Unlock()
}
