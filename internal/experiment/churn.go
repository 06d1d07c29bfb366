package experiment

import (
	"context"
	"sort"
	"time"

	"lifting/internal/cluster"
	"lifting/internal/core"
	"lifting/internal/freerider"
	"lifting/internal/gossip"
	"lifting/internal/membership"
	"lifting/internal/msg"
	"lifting/internal/net"
	"lifting/internal/reputation"
	"lifting/internal/rng"
	"lifting/internal/runtime"
	"lifting/internal/stats"
	"lifting/internal/stream"
)

// ChurnConfig describes the churn workload: a LiFTinG-policed broadcast in
// which nodes join and leave mid-stream. The paper deploys on a static
// membership (§2 assumes a full-membership view); churn is the natural next
// workload for the reproduction — arrivals must catch up with the stream,
// departures must not strand score state, and the reputation managers must
// hand their duties off as the membership shifts.
type ChurnConfig struct {
	// N is the initial population.
	N int
	// Joins and Leaves are the number of mid-stream arrivals/departures,
	// spread uniformly over the middle half of the run.
	Joins, Leaves int
	// FreeriderPct of the initial population freerides at degree Delta.
	FreeriderPct float64
	Delta        [3]float64
	F            int
	Period       time.Duration
	// M managers per node; blames travel as messages (the handoff path).
	M        int
	MeanLoss float64
	Duration time.Duration
	Seed     uint64
	// Backend selects the execution backend; churn runs identically on the
	// discrete-event engine and the UDP socket runtime.
	Backend runtime.Kind
}

// DefaultChurnConfig returns a medium-scale churn scenario.
func DefaultChurnConfig() ChurnConfig {
	return ChurnConfig{
		N:            120,
		Joins:        20,
		Leaves:       20,
		FreeriderPct: 0.10,
		Delta:        [3]float64{0.3, 0.3, 0.3},
		F:            7,
		Period:       500 * time.Millisecond,
		M:            10,
		MeanLoss:     0.02,
		Duration:     30 * time.Second,
		Seed:         17,
	}
}

// ChurnResult aggregates the run.
type ChurnResult struct {
	Joined, Departed int
	// Handoffs counts reputation-manager state transfers.
	Handoffs int
	// CatchUp is the distribution over arrivals of (chunks received) /
	// (chunks generated after the join).
	CatchUp stats.Moments
	// HonestMean and FreeriderMean are the min-vote score means over the
	// surviving population.
	HonestMean, FreeriderMean float64
	// AliveEnd is the population size at the end.
	AliveEnd int
}

// Churn runs the churn scenario and reports whether LiFTinG's separation
// survives a shifting membership. Cancelling ctx aborts the run mid-stream.
func Churn(ctx context.Context, cfg ChurnConfig) (*Table, *ChurnResult, error) {
	nFree := int(cfg.FreeriderPct * float64(cfg.N))
	firstFree := msg.NodeID(cfg.N - nFree)
	opts := cluster.Options{
		N:       cfg.N,
		Seed:    cfg.Seed,
		Backend: cfg.Backend,
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
			Eta:            -1e9,
		},
		Rep:          reputation.Config{M: cfg.M, Eta: -1e9},
		Stream:       stream.Config{BitrateBps: 674_000, ChunkPayload: 1316},
		NetDefaults:  net.Uniform(cfg.MeanLoss, 5*time.Millisecond),
		LiFTinG:      true,
		BlameMode:    cluster.BlameMessages,
		ExpectedLoss: cfg.MeanLoss,
		BehaviorFor: func(id msg.NodeID, _ *membership.Directory, _ *rng.Stream) gossip.Behavior {
			if id >= firstFree && id < msg.NodeID(cfg.N) {
				return freerider.Degree{Delta1: cfg.Delta[0], Delta2: cfg.Delta[1], Delta3: cfg.Delta[2]}
			}
			return nil
		},
	}
	c := cluster.New(opts)
	c.Start()
	c.StartStream(cfg.Duration)

	// Churn events are spread over the middle half of the run: the ramp-up
	// and the tail stay quiet so catch-up and separation are measurable.
	churnRand := rng.New(cfg.Seed).Derive("churn")
	window := cfg.Duration / 2
	windowStart := cfg.Duration / 4
	joinAt := make(map[msg.NodeID]time.Duration, cfg.Joins)
	for i := 0; i < cfg.Joins; i++ {
		at := windowStart + time.Duration(float64(i)/float64(cfg.Joins)*float64(window))
		joinAt[c.ScheduleJoin(at)] = at
	}
	// Departures are drawn from the honest initial population (the source
	// excluded); freeriders staying put keeps the separation readable.
	leavePool := int(firstFree) - 1
	if cfg.Leaves > leavePool {
		cfg.Leaves = leavePool
	}
	for i, idx := range churnRand.SampleK(leavePool, cfg.Leaves) {
		at := windowStart + time.Duration(float64(i)/float64(cfg.Leaves)*float64(window))
		c.ScheduleLeave(at, msg.NodeID(idx+1))
	}

	if err := c.RunContext(ctx, cfg.Duration+cfg.Period); err != nil {
		c.Close()
		return nil, nil, err
	}
	c.Close()

	res := &ChurnResult{
		Joined:   len(c.Joined),
		Departed: len(c.Departed),
		Handoffs: c.Handoffs(),
		AliveEnd: c.Dir.NAlive(),
	}
	totalChunks := opts.Stream.ChunksBy(cfg.Duration)
	// Accumulate in sorted id order: the Moments mean is a float fold, so
	// map-order iteration would break bit-reproducibility.
	arrivals := make([]msg.NodeID, 0, len(joinAt))
	//lint:allow ordered-map-range collect-then-sort: ids are sorted before the float fold below
	for id := range joinAt {
		arrivals = append(arrivals, id)
	}
	sort.Slice(arrivals, func(i, j int) bool { return arrivals[i] < arrivals[j] })
	for _, id := range arrivals {
		node, ok := c.Nodes[id]
		if !ok {
			// Under the UDP backend a join timer due near the end of the
			// run can be suppressed by Close; the arrival never existed.
			continue
		}
		missed := opts.Stream.ChunksBy(joinAt[id])
		generatedAfter := totalChunks - missed
		if generatedAfter <= 0 {
			continue
		}
		ratio := float64(node.ChunkCount()) / float64(generatedAfter)
		if ratio > 1 {
			ratio = 1
		}
		res.CatchUp.Add(ratio)
	}
	scores := c.Scores()
	var nh, nr int
	for _, id := range c.Dir.All() {
		if id == 0 || !c.Dir.Alive(id) {
			continue
		}
		if c.Freeriders[id] {
			res.FreeriderMean += scores[id]
			nr++
		} else {
			res.HonestMean += scores[id]
			nh++
		}
	}
	if nh > 0 {
		res.HonestMean /= float64(nh)
	}
	if nr > 0 {
		res.FreeriderMean /= float64(nr)
	}

	t := &Table{
		Title:   "Churn — joins/leaves mid-stream with manager handoff (backend " + cfg.Backend.String() + ")",
		Columns: []string{"quantity", "value"},
	}
	t.AddRow("initial population", F(float64(cfg.N), 0))
	t.AddRow("joined mid-stream", F(float64(res.Joined), 0))
	t.AddRow("departed mid-stream", F(float64(res.Departed), 0))
	t.AddRow("alive at end", F(float64(res.AliveEnd), 0))
	t.AddRow("manager handoffs", F(float64(res.Handoffs), 0))
	t.AddRow("arrival catch-up (mean)", Pct(res.CatchUp.Mean()))
	t.AddRow("honest mean score", F(res.HonestMean, 2))
	t.AddRow("freerider mean score", F(res.FreeriderMean, 2))
	t.AddRow("separation gap", F(res.HonestMean-res.FreeriderMean, 2))
	t.Notes = append(t.Notes,
		"arrivals catch up on chunks generated after their join (infect-and-die does not replay history)",
		"manager duties migrate on every membership change; gaining managers adopt the most pessimistic replica")
	return t, res, nil
}
