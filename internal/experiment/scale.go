package experiment

import (
	"context"
	"time"

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

// ScaleConfig describes the scale workload: the same LiFTinG-policed
// broadcast with a freerider cohort run at two population sizes — a
// 300-node baseline (the paper's deployment scale, §7) and a large target
// population — asserting that the expulsion verdict is scale-invariant.
// Per-node verification traffic depends on the fanout f, not on N, so the
// calibrated compensation and threshold transfer from the baseline to the
// target population; what the large run actually stresses is the substrate:
// manager assignment (the epoch cache), blame flushing and min-vote reads
// at 10k+ nodes, all in message mode.
type ScaleConfig struct {
	// N is the target population (10000 for the headline run).
	N int
	// BaselineN is the reference population whose verdict N must reproduce
	// (300, the paper's deployment size). The blame compensation and the
	// expulsion threshold are calibrated once, at this scale.
	BaselineN int
	// FreeriderPct of each population freerides at degree Delta.
	FreeriderPct float64
	Delta        [3]float64
	F            int
	Period       time.Duration
	// M managers per node; blames and score reads travel as messages.
	M        int
	MeanLoss float64
	Duration time.Duration
	Seed     uint64
	// Shards partitions the discrete-event engine (−1 = one shard per CPU,
	// 0 = one shard, n ≥ 1 = exactly n). The workload is message-mode with
	// uniform 5 ms base latency, so it always runs in parallel; results
	// are byte-identical for every value.
	Shards int
}

// DefaultScaleConfig returns the 10k-node scenario.
func DefaultScaleConfig() ScaleConfig {
	return ScaleConfig{
		N:            10000,
		BaselineN:    300,
		FreeriderPct: 0.10,
		// Hard freeriding in fanout and propose, full serves: δ1/δ2 blame is
		// self-contained (acks reveal the shrunken partner list, witnesses
		// fail the confirms), whereas a δ3 freerider wrongfully blames its
		// honest receivers for never acking chunks it silently dropped —
		// which would push the honest tail toward the threshold and make a
		// clean verdict unattainable at any scale.
		Delta:  [3]float64{0.7, 0.7, 0},
		F:      7,
		Period: 500 * time.Millisecond,
		M:      25,
		// 1% loss: wrongful blame grows superlinearly with loss (broken
		// chains compound), and the workload's subject is the substrate at
		// scale, not loss tolerance (Fig. 10/11 cover that axis).
		MeanLoss: 0.01,
		Duration: 20 * time.Second,
		Seed:     23,
		Shards:   -1,
	}
}

// ScaleRun is the outcome of one population's run.
type ScaleRun struct {
	N, Freeriders      int
	FreeridersExpelled int
	HonestExpelled     int
	// DetectionMean is the mean expulsion time of the detected freeriders,
	// on the engine's virtual clock — a seed-determined quantity.
	//lint:allow no-time-in-results sim-time mean on the engine clock; byte-stable for a fixed seed
	DetectionMean time.Duration
	// Events is the number of discrete events the engine executed.
	Events uint64
	// OverheadPpm is the verification overhead (verification bytes /
	// dissemination bytes) in parts per million — integral so the run
	// stays a comparable struct and seeded output stays byte-stable.
	OverheadPpm uint64
	// DupChunks and UsefulChunks split received serves into redundant
	// copies and first deliveries.
	DupChunks, UsefulChunks uint64
	// GoodputBytes is the verified chunk payload delivered to first-time
	// receivers — the content plane's QoE headline.
	GoodputBytes uint64
	// StreamLagMeanNs and StreamJitterMeanNs are the mean source-to-receiver
	// chunk lag and the mean inter-arrival deviation from the chunk interval,
	// in integer nanoseconds so the run stays a comparable struct.
	StreamLagMeanNs, StreamJitterMeanNs uint64
	// Elapsed is the wall-clock cost of the run, for the bench harness. It
	// never reaches tables or the JSON document; document-building callers
	// must keep it out (see Scale's table construction).
	//lint:allow no-time-in-results bench-only wall-clock cost; excluded from tables and the JSON document
	Elapsed time.Duration
}

// StreamLag returns the mean chunk lag as a duration.
func (r ScaleRun) StreamLag() time.Duration { return time.Duration(r.StreamLagMeanNs) }

// StreamJitter returns the mean inter-arrival jitter as a duration.
func (r ScaleRun) StreamJitter() time.Duration { return time.Duration(r.StreamJitterMeanNs) }

// Overhead returns the verification overhead as a ratio.
func (r ScaleRun) Overhead() float64 { return float64(r.OverheadPpm) / 1e6 }

// DupRatio returns the share of received serves that were redundant.
func (r ScaleRun) DupRatio() float64 {
	total := r.DupChunks + r.UsefulChunks
	if total == 0 {
		return 0
	}
	return float64(r.DupChunks) / float64(total)
}

// CohortExpelled reports whether every freerider was expelled.
func (r ScaleRun) CohortExpelled() bool { return r.FreeridersExpelled == r.Freeriders }

// HonestClean reports whether no honest node was expelled.
func (r ScaleRun) HonestClean() bool { return r.HonestExpelled == 0 }

// Verdict summarizes the run's expulsion outcome.
func (r ScaleRun) Verdict() string {
	switch {
	case r.CohortExpelled() && r.HonestClean():
		return "cohort expelled, honest clean"
	case r.CohortExpelled():
		return "cohort expelled, honest casualties"
	default:
		return "cohort not fully expelled"
	}
}

// ScaleResult aggregates the baseline and target runs.
type ScaleResult struct {
	Baseline, Target ScaleRun
	// Compensation and Eta are the calibrated b̃ and threshold shared by
	// both runs.
	Compensation, Eta float64
	// Agree reports whether the target population reproduced the baseline's
	// verdict.
	Agree bool
	// TargetSnapshots are the target run's periodic metrics snapshots
	// (every snapshotEvery periods), deterministic across shard and worker
	// counts — they become the JSON document's metrics_snapshots section.
	TargetSnapshots []metrics.Snapshot
}

// snapshotEvery is the period sampling interval of the metrics snapshots.
const snapshotEvery = 5

// chunkPayload is 4x the paper's 1316-byte chunk at the same bitrate: 8
// chunks per gossip period instead of 32. The chunk rate sets both the
// discrete-event cost per node (what caps the 10k-node run) and the blame
// quantum of a late acknowledgement (expectations are per served chunk), so
// coarser chunks keep the honest blame tail within the calibrated spread.
const chunkPayload = 5264

// scaleOptions assembles the cluster for one population of the workload.
func (cfg ScaleConfig) scaleOptions(n int) cluster.Options {
	nFree := int(cfg.FreeriderPct * float64(n))
	firstFree := msg.NodeID(n - nFree)
	return cluster.Options{
		N:    n,
		Seed: cfg.Seed,
		// The discrete-event engine: 10k real sockets or goroutines is a
		// deployment question, not this workload's.
		Backend: runtime.KindSim,
		Shards:  cfg.Shards,
		Gossip: gossip.Config{
			F:              cfg.F,
			Period:         cfg.Period,
			ChunkPayload:   chunkPayload,
			HistoryPeriods: 50,
		},
		Core: core.Config{
			F:              cfg.F,
			Period:         cfg.Period,
			Pdcc:           1,
			HistoryPeriods: 50,
			Gamma:          8.95,
		},
		// Grace of 24 periods: a single late-ack burst (the heavy tail of
		// honest wrongful blame — one lost ack forfeits a whole period of
		// per-chunk serve expectations) amortizes over r ≥ 24 before η ever
		// applies, while δ = 0.7 freeriders accrue blame steadily and are not
		// latency-bound (§6.3.1: σ(s) shrinks as 1/√r).
		Rep:          reputation.Config{M: cfg.M, FlushEvery: 5, GracePeriods: 24},
		Stream:       stream.Config{BitrateBps: 674_000, ChunkPayload: chunkPayload},
		NetDefaults:  net.Uniform(cfg.MeanLoss, 5*time.Millisecond),
		LiFTinG:      true,
		BlameMode:    cluster.BlameMessages,
		ExpectedLoss: cfg.MeanLoss,
		BehaviorFor: func(id msg.NodeID, _ *membership.Directory, _ *rng.Stream) gossip.Behavior {
			if id >= firstFree && id < msg.NodeID(n) {
				return freerider.Degree{Delta1: cfg.Delta[0], Delta2: cfg.Delta[1], Delta3: cfg.Delta[2]}
			}
			return nil
		},
	}
}

// scaleRun executes one population with the shared compensation/threshold.
// Alongside the outcome it returns the run's periodic metrics snapshots,
// sampled on period boundaries (sim time), every snapshotEvery periods.
func (cfg ScaleConfig) scaleRun(ctx context.Context, n int, compensation, eta float64) (ScaleRun, []metrics.Snapshot, error) {
	//lint:allow no-wallclock bench-only wall-clock cost kept out of the document
	start := time.Now()
	opts := cfg.scaleOptions(n)
	opts.Rep.Compensation = compensation
	opts.Rep.Eta = eta
	opts.ExpelOnDetection = true
	var snaps []metrics.Snapshot
	opts.OnPeriodSnapshot = func(p msg.Period, snap metrics.Snapshot) {
		if p%snapshotEvery == 0 {
			snaps = append(snaps, snap)
		}
	}
	c := cluster.New(opts)
	c.Start()
	c.StartStream(cfg.Duration)
	if err := c.RunContext(ctx, cfg.Duration+2*cfg.Period); err != nil {
		c.Close()
		return ScaleRun{}, nil, err
	}
	c.Close()

	//lint:allow no-wallclock bench-only wall-clock cost kept out of the document
	run := ScaleRun{N: n, Freeriders: len(c.Freeriders), Elapsed: time.Since(start)}
	if c.Engine != nil {
		run.Events = c.Engine.Events()
	}
	_, vb := c.Collector.VerificationTotals()
	_, pb := c.Collector.ProtocolTotals()
	if pb > 0 {
		run.OverheadPpm = vb * 1_000_000 / pb
	}
	run.DupChunks = c.Collector.DupChunks()
	run.UsefulChunks = c.Collector.UsefulChunks()
	run.GoodputBytes = c.Collector.GoodputBytes()
	run.StreamLagMeanNs = c.Collector.StreamLagMeanNs()
	run.StreamJitterMeanNs = c.Collector.StreamJitterMeanNs()
	var latency time.Duration
	//lint:allow ordered-map-range commutative integer sums and counts; order cannot affect the totals
	for id, at := range c.Expelled {
		if c.Freeriders[id] {
			run.FreeridersExpelled++
			latency += at
		} else {
			run.HonestExpelled++
		}
	}
	if run.FreeridersExpelled > 0 {
		run.DetectionMean = latency / time.Duration(run.FreeridersExpelled)
	}
	return run, snaps, nil
}

// Scale runs the scale workload: calibrate at the baseline population, run
// the baseline and the target population with the shared threshold, and
// compare expulsion verdicts. Cancelling ctx aborts whichever phase is
// running — calibration, baseline or the large population.
func Scale(ctx context.Context, cfg ScaleConfig) (*Table, *ScaleResult, error) {
	// Calibrate b̃ and η once, from an honest pilot at baseline scale: the
	// per-node wrongful-blame rate depends on fanout and loss, not on N, so
	// the threshold is meaningful at both populations — and a 300-node pilot
	// costs nothing next to the 10k-node run.
	cal, err := cluster.Calibrate(ctx, cfg.scaleOptions(cfg.BaselineN), cfg.Duration)
	if err != nil {
		return nil, nil, err
	}
	// −10σ: the honest extreme over 10k nodes — including one amortized
	// late-ack burst — stays above it, while the least-blamed δ = 0.7
	// freerider sits a full unit below it by grace expiry.
	eta := -10 * cal.ScoreStd

	res := &ScaleResult{Compensation: cal.Compensation, Eta: eta}
	if res.Baseline, _, err = cfg.scaleRun(ctx, cfg.BaselineN, cal.Compensation, eta); err != nil {
		return nil, nil, err
	}
	if res.Target, res.TargetSnapshots, err = cfg.scaleRun(ctx, cfg.N, cal.Compensation, eta); err != nil {
		return nil, nil, err
	}
	res.Agree = res.Baseline.Verdict() == res.Target.Verdict()

	// The table carries only seed-determined quantities (virtual detection
	// time, event counts) — wall-clock cost stays in ScaleRun.Elapsed for
	// programmatic callers, so the structured JSON document of a seeded run
	// is byte-identical across repetitions.
	t := &Table{
		Title: "Scale — expulsion verdict at baseline vs large population (message-mode reputation)",
		Columns: []string{"population", "freeriders", "expelled", "honest expelled",
			"mean detection", "events", "overhead", "dup serves",
			"goodput", "lag", "jitter", "verdict"},
	}
	for _, r := range []ScaleRun{res.Baseline, res.Target} {
		t.AddRow(
			F(float64(r.N), 0),
			F(float64(r.Freeriders), 0),
			F(float64(r.FreeridersExpelled), 0),
			F(float64(r.HonestExpelled), 0),
			r.DetectionMean.Round(time.Millisecond).String(),
			F(float64(r.Events), 0),
			Pct(r.Overhead()),
			Pct(r.DupRatio()),
			F(float64(r.GoodputBytes), 0)+" B",
			r.StreamLag().Round(time.Millisecond).String(),
			r.StreamJitter().Round(time.Millisecond).String(),
			r.Verdict(),
		)
	}
	agree := "yes"
	if !res.Agree {
		agree = "NO"
	}
	t.Notes = append(t.Notes,
		"verdicts agree: "+agree,
		"b̃ = "+F(cal.Compensation, 2)+" blame/period and η = "+F(eta, 2)+" calibrated once at baseline scale (per-node traffic depends on f, not N)",
		"all blames and expulsions travel as messages to each target's M managers; manager assignment served from the epoch cache",
		"overhead = verification bytes / dissemination bytes (Table 5's metric); dup serves = share of received serves the node already held",
		"goodput = verified payload bytes first-delivered over the content plane; lag = mean source-to-receiver chunk delay; jitter = mean inter-arrival deviation from the chunk interval")
	return t, res, nil
}
