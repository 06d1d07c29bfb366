package experiment

import (
	"context"
	"fmt"
	"math"
	"time"

	"lifting/internal/chaos"
	"lifting/internal/cluster"
	"lifting/internal/core"
	"lifting/internal/freerider"
	"lifting/internal/gossip"
	"lifting/internal/membership"
	"lifting/internal/metrics"
	"lifting/internal/msg"
	"lifting/internal/net"
	"lifting/internal/reputation"
	"lifting/internal/rng"
	"lifting/internal/runtime"
	"lifting/internal/stream"
)

// SoakConfig describes the soak workload: churn plus one adversary cohort
// plus a seeded fault schedule (crashes with restarts, partitions, loss
// bursts, duplication, reordering, clock skew), all running at once against
// a set of standing invariants checked at every score period. Where the
// other cluster experiments each isolate one axis, the soak's subject is
// composition: LiFTinG's §4–§5 guarantees are statistical claims about
// detection under faulty conditions, so the expulsion verdict must survive
// the faults happening *while* the attack runs — and honest nodes that
// merely crashed, rebooted or sat behind a partition must not be expelled
// for it.
type SoakConfig struct {
	// N is the initial population.
	N int
	// FreeriderPct of the initial population runs the attack behavior.
	FreeriderPct float64
	// Attack selects the adversary cohort's behavior: "freeride" (degree
	// Delta, the default), "blame-spam" (§5.1 bad-mouthing) or
	// "period-stretch" (§4.1(iv) gossip-period ×2).
	Attack string
	Delta  [3]float64
	F      int
	Period time.Duration
	// M managers per node; blames and score reads travel as messages so the
	// crash→restart manager handoff is actually exercised.
	M        int
	MeanLoss float64
	Duration time.Duration
	Seed     uint64
	// Grace is the minimum tracked age before η applies.
	Grace int
	// Shards partitions the discrete-event engine (sim backend only; same
	// semantics as ScaleConfig.Shards).
	Shards int
	// Backend selects the execution backend; the soak runs on both.
	Backend runtime.Kind

	// Joins and Leaves are mid-stream arrivals/departures, spread over the
	// middle half of the run — the same window the fault plan uses.
	Joins, Leaves int

	// Fault-plan knobs, passed through to chaos.Generate. Candidates are
	// derived: honest non-source nodes that are not scheduled to leave.
	Crashes       int
	Outage        time.Duration
	Partitions    int
	PartitionSpan time.Duration
	PartitionSize int
	LossBursts    int
	BurstLoss     float64
	BurstSpan     time.Duration
	BurstSize     int
	DupProb       float64
	ReorderProb   float64
	ReorderDelay  time.Duration
	SkewCount     int
	SkewMax       float64

	// RecoveryPeriods bounds recovery: after every heal-like event
	// (restart, partition heal, loss heal) cumulative goodput must have
	// grown within this many periods.
	RecoveryPeriods int

	// EtaSigma and EtaFloor place the threshold: η = −max(EtaSigma·σ,
	// EtaFloor) with σ from an honest chaos-free calibration pilot.
	// EtaFloor 0 means the attack-specific default (6 for blame-spam,
	// whose whole point is wrongful blame pressure on honest scores; 3
	// otherwise).
	EtaSigma, EtaFloor float64
}

// DefaultSoakConfig returns the full soak scenario: 120 nodes, 30 s of
// stream, churn, a 10% freerider cohort and a fault plan touching roughly a
// third of the honest population.
func DefaultSoakConfig() SoakConfig {
	return SoakConfig{
		N:            120,
		FreeriderPct: 0.10,
		Attack:       "freeride",
		// Hard freeriding in fanout and propose, full serves — the same
		// self-contained δ profile the scale workload uses (δ3 blame would
		// land on honest receivers and poison the no-honest-expulsion
		// invariant by construction).
		Delta:    [3]float64{0.7, 0.7, 0},
		F:        7,
		Period:   250 * time.Millisecond,
		M:        12,
		MeanLoss: 0.01,
		Duration: 30 * time.Second,
		Seed:     29,
		Grace:    24,
		Shards:   -1,

		Joins:  10,
		Leaves: 10,

		Crashes:       4,
		Outage:        time.Second,
		Partitions:    2,
		PartitionSpan: 2 * time.Second,
		PartitionSize: 8,
		LossBursts:    2,
		BurstLoss:     0.25,
		BurstSpan:     2 * time.Second,
		BurstSize:     8,
		DupProb:       0.01,
		ReorderProb:   0.02,
		ReorderDelay:  20 * time.Millisecond,
		SkewCount:     4,
		SkewMax:       0.02,

		RecoveryPeriods: 16,
		// 16σ: a 25% correlated loss burst costs a victim ≈10σ of transient
		// blame before it amortizes (blame grows superlinearly with loss),
		// while δ = 0.7 freeriders sit several times deeper by grace expiry.
		EtaSigma: 16,
	}
}

// QuickSoakConfig shrinks the scenario to CI-smoke size: it must finish in
// well under a minute per backend, wall-clock bound on udp. Three
// knobs differ from a plain shrink, all for the wall-clock backends where
// scheduler jitter rides on top of the fault plan: the window is 25 s (a
// marginal freerider's Total/r needs the extra periods to converge past η
// when blame messages are lost in the burst), η gets an absolute floor of
// 8 (the longer calibration pilot measures a smaller σ, which would
// otherwise move η *up* toward the honest fault transients it must
// clear), and the cohort freerides harder (δ = 0.85 vs the full run's
// 0.7) so its blame-rate asymptote sits well below that floor even when
// the burst eats a fraction of the blame messages. At N = 48 the honest
// and freerider score distributions are close enough that a single
// jittery run can smear δ = 0.7 across an η safe for honest transients;
// the full-size run keeps the paper-faithful profile.
func QuickSoakConfig() SoakConfig {
	cfg := DefaultSoakConfig()
	cfg.N = 48
	cfg.Duration = 25 * time.Second
	cfg.EtaFloor = 8
	cfg.Delta = [3]float64{0.85, 0.85, 0}
	cfg.Grace = 16
	cfg.Joins, cfg.Leaves = 4, 4
	cfg.Crashes = 2
	cfg.Outage = 750 * time.Millisecond
	cfg.Partitions = 1
	cfg.PartitionSize = 5
	cfg.LossBursts = 1
	cfg.BurstSize = 5
	cfg.SkewCount = 3
	cfg.RecoveryPeriods = 12
	return cfg
}

// SoakResult aggregates one soak run.
type SoakResult struct {
	N, Freeriders    int
	Joined, Departed int
	Handoffs         int
	// PlanEvents and ChaosApplied pin schedule execution: every generated
	// fault event must actually have fired.
	PlanEvents   int
	ChaosApplied int
	// CrashCycles/PartitionEpisodes/LossBurstEpisodes/SkewedNodes describe
	// the generated plan (each episode is an apply+heal event pair).
	CrashCycles       int
	PartitionEpisodes int
	LossBurstEpisodes int
	SkewedNodes       int
	// Expulsion split. DepartedExpelled counts nodes blamed past η after
	// they had already left voluntarily — a verdict about a node no longer
	// in the system, tracked separately from live honest casualties.
	FreeridersExpelled int
	HonestExpelled     int
	DepartedExpelled   int
	// PeriodsChecked is how many period snapshots the standing invariants
	// ran against; MaxTracked is the largest per-manager tracked-target
	// count ever observed.
	PeriodsChecked int
	MaxTracked     int
	// Violations lists every standing-invariant violation, in period order.
	Violations []string
	// GoodputBytes and OverheadPpm summarize the content plane.
	GoodputBytes uint64
	OverheadPpm  uint64
	// Compensation and Eta are the calibrated b̃ and threshold.
	Compensation, Eta float64
	// Snapshots are the periodic metrics snapshots (every snapshotEvery
	// periods) — the JSON document's metrics_snapshots section.
	Snapshots []metrics.Snapshot
}

// HonestClean reports whether no live honest node was expelled.
func (r *SoakResult) HonestClean() bool { return r.HonestExpelled == 0 }

// CohortExpelled reports whether the whole adversary cohort was expelled.
func (r *SoakResult) CohortExpelled() bool { return r.FreeridersExpelled == r.Freeriders }

// etaFloor returns the configured or attack-specific threshold floor.
func (cfg SoakConfig) etaFloor() float64 {
	if cfg.EtaFloor > 0 {
		return cfg.EtaFloor
	}
	if cfg.Attack == "blame-spam" {
		return 6
	}
	return 3
}

// attackBehavior maps the attack name onto a cohort behavior constructor,
// or nil for an unknown name.
func (cfg SoakConfig) attackBehavior(firstFree msg.NodeID) func(msg.NodeID, *membership.Directory, *rng.Stream) gossip.Behavior {
	n := msg.NodeID(cfg.N)
	inCohort := func(id msg.NodeID) bool { return id >= firstFree && id < n }
	switch cfg.Attack {
	case "", "freeride":
		return func(id msg.NodeID, _ *membership.Directory, _ *rng.Stream) gossip.Behavior {
			if inCohort(id) {
				return freerider.Degree{Delta1: cfg.Delta[0], Delta2: cfg.Delta[1], Delta3: cfg.Delta[2]}
			}
			return nil
		}
	case "blame-spam":
		return func(id msg.NodeID, dir *membership.Directory, _ *rng.Stream) gossip.Behavior {
			if inCohort(id) {
				return &freerider.BlameSpammer{Self: id, Dir: dir, Targets: 2, Value: 7}
			}
			return nil
		}
	case "period-stretch":
		return func(id msg.NodeID, _ *membership.Directory, _ *rng.Stream) gossip.Behavior {
			if inCohort(id) {
				return freerider.PeriodStretcher{Factor: 2}
			}
			return nil
		}
	}
	return nil
}

// soakOptions assembles the cluster options (threshold fields are filled in
// after calibration).
func (cfg SoakConfig) soakOptions(behavior func(msg.NodeID, *membership.Directory, *rng.Stream) gossip.Behavior) cluster.Options {
	return cluster.Options{
		N:       cfg.N,
		Seed:    cfg.Seed,
		Backend: cfg.Backend,
		Shards:  cfg.Shards,
		Gossip: gossip.Config{
			F:              cfg.F,
			Period:         cfg.Period,
			ChunkPayload:   1316,
			HistoryPeriods: 50,
		},
		Core: core.Config{
			F:              cfg.F,
			Period:         cfg.Period,
			Pdcc:           1,
			HistoryPeriods: 50,
			Gamma:          8,
		},
		Rep:          reputation.Config{M: cfg.M, GracePeriods: cfg.Grace},
		Stream:       stream.Config{BitrateBps: 674_000, ChunkPayload: 1316},
		NetDefaults:  net.Uniform(cfg.MeanLoss, 5*time.Millisecond),
		LiFTinG:      true,
		BlameMode:    cluster.BlameMessages,
		ExpectedLoss: cfg.MeanLoss,
		BehaviorFor:  behavior,
	}
}

// soakMaxViolations caps the violation transcript: a systemic breakage
// would otherwise flood the result with one line per period per kind.
const soakMaxViolations = 24

// soakChecker holds the standing-invariant state checked at every period
// snapshot: counter monotonicity, sent ≥ recv + dropped conservation,
// bounded per-manager reputation state, and the per-period goodput history
// the post-run recovery check reads.
type soakChecker struct {
	maxPop     int
	prevKinds  []metrics.KindCount
	prevSnap   metrics.Snapshot
	havePrev   bool
	goodput    map[msg.Period]uint64
	last       msg.Period
	periods    int
	maxTracked int
	truncated  bool
	violations []string
	snaps      []metrics.Snapshot
}

func newSoakChecker(maxPop int) *soakChecker {
	return &soakChecker{maxPop: maxPop, goodput: make(map[msg.Period]uint64)}
}

func (k *soakChecker) fail(format string, args ...any) {
	if len(k.violations) >= soakMaxViolations {
		if !k.truncated {
			k.truncated = true
			k.violations = append(k.violations, "… further violations truncated")
		}
		return
	}
	k.violations = append(k.violations, fmt.Sprintf(format, args...))
}

// check runs the per-period invariants against one snapshot. tracked is the
// largest per-manager tracked-target count at this period.
func (k *soakChecker) check(p msg.Period, snap metrics.Snapshot, tracked int) {
	k.periods++
	if tracked > k.maxTracked {
		k.maxTracked = tracked
	}
	if tracked > k.maxPop {
		k.fail("period %d: a manager tracks %d targets, population ever is %d", p, tracked, k.maxPop)
	}
	cur := make(map[string]metrics.KindCount, len(snap.Kinds))
	for _, kc := range snap.Kinds {
		cur[kc.Kind] = kc
		// Conservation: every sent message is eventually received or
		// dropped; the difference is in flight and never negative. (The
		// inequality direction also tolerates kernel-level UDP loss, which
		// the collector cannot see.)
		if kc.RecvMsgs+kc.DropMsgs > kc.SentMsgs {
			k.fail("period %d: %s messages not conserved: recv %d + dropped %d > sent %d",
				p, kc.Kind, kc.RecvMsgs, kc.DropMsgs, kc.SentMsgs)
		}
		if kc.RecvBytes+kc.DropBytes > kc.SentBytes {
			k.fail("period %d: %s bytes not conserved: recv %d + dropped %d > sent %d",
				p, kc.Kind, kc.RecvBytes, kc.DropBytes, kc.SentBytes)
		}
	}
	if k.havePrev {
		// Monotonicity, iterated in the previous snapshot's (deterministic)
		// kind order so a violation transcript is stable too.
		for _, pv := range k.prevKinds {
			cv, ok := cur[pv.Kind]
			if !ok {
				k.fail("period %d: %s counters disappeared from the snapshot", p, pv.Kind)
				continue
			}
			if cv.SentMsgs < pv.SentMsgs || cv.RecvMsgs < pv.RecvMsgs || cv.DropMsgs < pv.DropMsgs ||
				cv.SentBytes < pv.SentBytes || cv.RecvBytes < pv.RecvBytes || cv.DropBytes < pv.DropBytes {
				k.fail("period %d: %s counters moved backwards", p, pv.Kind)
			}
		}
		for _, m := range []struct {
			name       string
			prev, curr uint64
		}{
			{"goodput bytes", k.prevSnap.GoodputBytes, snap.GoodputBytes},
			{"useful chunks", k.prevSnap.UsefulChunks, snap.UsefulChunks},
			{"dup chunks", k.prevSnap.DupChunks, snap.DupChunks},
			{"blames received", k.prevSnap.BlamesReceived, snap.BlamesReceived},
			{"expulsions", k.prevSnap.Expulsions, snap.Expulsions},
		} {
			if m.curr < m.prev {
				k.fail("period %d: %s moved backwards: %d → %d", p, m.name, m.prev, m.curr)
			}
		}
	}
	k.prevKinds = snap.Kinds
	k.prevSnap = snap
	k.havePrev = true
	k.goodput[p] = snap.GoodputBytes
	if p > k.last {
		k.last = p
	}
	if int(p)%snapshotEvery == 0 {
		k.snaps = append(k.snaps, snap)
	}
}

// recovery runs the post-run goodput-recovery invariant: within
// recoveryPeriods of every heal-like event, cumulative goodput must have
// grown — the stream went back to delivering after the fault cleared.
func (k *soakChecker) recovery(plan *chaos.Plan, period time.Duration, recoveryPeriods int) {
	if k.last == 0 || period <= 0 {
		return
	}
	for _, ev := range plan.Events {
		switch ev.Kind {
		case chaos.Restart, chaos.Heal, chaos.LossHeal:
		default:
			continue
		}
		hp := msg.Period(ev.At/period) + 1
		cp := hp + msg.Period(recoveryPeriods)
		if cp > k.last {
			cp = k.last
		}
		if hp >= cp {
			continue
		}
		before, okB := k.goodput[hp]
		after, okA := k.goodput[cp]
		if !okB || !okA {
			continue
		}
		if after <= before {
			k.fail("no goodput recovery after %s at %s: %d bytes at period %d, still %d at period %d",
				ev.Kind, ev.At, before, hp, after, cp)
		}
	}
}

// Soak runs the soak workload: calibrate a threshold on an honest
// chaos-free pilot, then stream under churn, the configured attack and the
// generated fault plan, with the standing invariants checked at every score
// period. Cancelling ctx aborts the run.
func Soak(ctx context.Context, cfg SoakConfig) (*Table, *SoakResult, error) {
	nFree := int(cfg.FreeriderPct * float64(cfg.N))
	firstFree := msg.NodeID(cfg.N - nFree)
	behavior := cfg.attackBehavior(firstFree)
	if behavior == nil {
		return nil, nil, fmt.Errorf("soak: unknown attack %q (want freeride, blame-spam or period-stretch)", cfg.Attack)
	}

	// Draw the departure set before generating the fault plan: a node that
	// leaves voluntarily cannot also crash or sit in a partition minority,
	// so the plan's candidates are the honest stayers. The adversary cohort
	// and the source stay out too — their fates are what the oracles
	// assert, so a fault must never be an alternative explanation.
	churnRand := rng.New(cfg.Seed).Derive("soak-churn")
	leavePool := int(firstFree) - 1
	leaves := cfg.Leaves
	if leaves > leavePool {
		leaves = leavePool
	}
	leaveIdx := churnRand.SampleK(leavePool, leaves)
	leaving := make(map[msg.NodeID]bool, leaves)
	for _, idx := range leaveIdx {
		leaving[msg.NodeID(idx+1)] = true
	}
	candidates := make([]msg.NodeID, 0, leavePool-leaves)
	for id := msg.NodeID(1); id < firstFree; id++ {
		if !leaving[id] {
			candidates = append(candidates, id)
		}
	}
	plan := chaos.Generate(chaos.Config{
		Seed:          cfg.Seed,
		Duration:      cfg.Duration,
		Candidates:    candidates,
		Crashes:       cfg.Crashes,
		Outage:        cfg.Outage,
		Partitions:    cfg.Partitions,
		PartitionSpan: cfg.PartitionSpan,
		PartitionSize: cfg.PartitionSize,
		LossBursts:    cfg.LossBursts,
		BurstLoss:     cfg.BurstLoss,
		BurstSpan:     cfg.BurstSpan,
		BurstSize:     cfg.BurstSize,
		DupProb:       cfg.DupProb,
		ReorderProb:   cfg.ReorderProb,
		ReorderDelay:  cfg.ReorderDelay,
		SkewCount:     cfg.SkewCount,
		SkewMax:       cfg.SkewMax,
	})

	opts := cfg.soakOptions(behavior)
	// Calibrate on the clean configuration: b̃ and σ describe honest
	// behavior on the healthy network; the faults are what the threshold
	// must then tolerate.
	calOpts := opts
	calOpts.Chaos = nil
	cal, err := cluster.Calibrate(ctx, calOpts, cfg.Duration)
	if err != nil {
		return nil, nil, err
	}
	eta := -math.Max(cfg.EtaSigma*cal.ScoreStd, cfg.etaFloor())
	opts.Chaos = plan
	opts.Rep.Compensation = cal.Compensation
	opts.Rep.Eta = eta
	opts.ExpelOnDetection = true

	chk := newSoakChecker(cfg.N + cfg.Joins)
	var c *cluster.Cluster
	opts.OnPeriodSnapshot = func(p msg.Period, snap metrics.Snapshot) {
		chk.check(p, snap, c.MaxTrackedPerManager())
	}
	c = cluster.New(opts)
	c.Start()
	c.StartStream(cfg.Duration)

	// Churn rides the same middle-half window as the fault plan: the soak's
	// point is everything at once.
	window := cfg.Duration / 2
	windowStart := cfg.Duration / 4
	for i := 0; i < cfg.Joins; i++ {
		at := windowStart + time.Duration(float64(i)/float64(cfg.Joins)*float64(window))
		c.ScheduleJoin(at)
	}
	for i, idx := range leaveIdx {
		at := windowStart + time.Duration(float64(i)/float64(leaves)*float64(window))
		c.ScheduleLeave(at, msg.NodeID(idx+1))
	}

	if err := c.RunContext(ctx, cfg.Duration+2*cfg.Period); err != nil {
		c.Close()
		return nil, nil, err
	}
	c.Close()
	chk.recovery(plan, cfg.Period, cfg.RecoveryPeriods)

	counts := plan.Counts()
	res := &SoakResult{
		N:                 cfg.N,
		Freeriders:        len(c.Freeriders),
		Joined:            len(c.Joined),
		Departed:          len(c.Departed),
		Handoffs:          c.Handoffs(),
		PlanEvents:        len(plan.Events),
		ChaosApplied:      c.ChaosApplied(),
		CrashCycles:       counts[chaos.Crash],
		PartitionEpisodes: counts[chaos.Partition],
		LossBurstEpisodes: counts[chaos.LossBurst],
		SkewedNodes:       len(plan.Skew),
		PeriodsChecked:    chk.periods,
		MaxTracked:        chk.maxTracked,
		Violations:        chk.violations,
		Compensation:      cal.Compensation,
		Eta:               eta,
		Snapshots:         chk.snaps,
	}
	//lint:allow ordered-map-range commutative counts partitioned per id; order cannot affect the totals
	for id := range c.Expelled {
		switch {
		case c.Freeriders[id]:
			res.FreeridersExpelled++
		default:
			if _, gone := c.Departed[id]; gone {
				res.DepartedExpelled++
			} else {
				res.HonestExpelled++
			}
		}
	}
	res.GoodputBytes = c.Collector.GoodputBytes()
	_, vb := c.Collector.VerificationTotals()
	_, pb := c.Collector.ProtocolTotals()
	if pb > 0 {
		res.OverheadPpm = vb * 1_000_000 / pb
	}

	t := &Table{
		Title:   "Soak — churn + " + cfg.Attack + " + fault plan under standing invariants (backend " + cfg.Backend.String() + ")",
		Columns: []string{"quantity", "value"},
	}
	t.AddRow("population / cohort", F(float64(cfg.N), 0)+" / "+F(float64(res.Freeriders), 0))
	t.AddRow("joined / departed", F(float64(res.Joined), 0)+" / "+F(float64(res.Departed), 0))
	t.AddRow("fault events applied", F(float64(res.ChaosApplied), 0)+" of "+F(float64(res.PlanEvents), 0))
	t.AddRow("crash cycles / partitions / bursts",
		F(float64(res.CrashCycles), 0)+" / "+F(float64(res.PartitionEpisodes), 0)+" / "+F(float64(res.LossBurstEpisodes), 0))
	t.AddRow("skewed clocks", F(float64(res.SkewedNodes), 0))
	t.AddRow("manager handoffs", F(float64(res.Handoffs), 0))
	t.AddRow("cohort expelled", F(float64(res.FreeridersExpelled), 0)+" of "+F(float64(res.Freeriders), 0))
	t.AddRow("honest expelled (live / departed)",
		F(float64(res.HonestExpelled), 0)+" / "+F(float64(res.DepartedExpelled), 0))
	t.AddRow("periods checked", F(float64(res.PeriodsChecked), 0))
	t.AddRow("max tracked per manager", F(float64(res.MaxTracked), 0))
	t.AddRow("invariant violations", F(float64(len(res.Violations)), 0))
	t.AddRow("goodput", F(float64(res.GoodputBytes), 0)+" B")
	t.AddRow("overhead", Pct(float64(res.OverheadPpm)/1e6))
	t.Notes = append(t.Notes,
		"b̃ = "+F(cal.Compensation, 2)+" blame/period and η = "+F(eta, 2)+" calibrated on an honest chaos-free pilot",
		"standing invariants, checked at every score period: counters monotone, sent ≥ recv + dropped per kind, per-manager state bounded by the population, goodput recovering within "+F(float64(cfg.RecoveryPeriods), 0)+" periods of every heal",
		"fault candidates are honest stayers only: a crash must never be an alternative explanation for a verdict the oracles assert")
	for _, v := range res.Violations {
		t.Notes = append(t.Notes, "VIOLATION: "+v)
	}
	return t, res, nil
}
