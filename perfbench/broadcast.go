package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	gort "runtime"
	"slices"
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

// broadcastShape is the broadcast-3k workload: the scale experiment's target
// shape built through the cluster API.
type broadcastShape struct {
	n, pilotN int
	duration  time.Duration
	seed      uint64
	shards    int
	// ref times the measured run's segments.
	ref *hostRef
}

const (
	broadcastPeriod = 500 * time.Millisecond
	// broadcastChunk is the scale workload's 5264-byte chunk at 674 kbps.
	broadcastChunk = 5264
	broadcastF     = 7
	broadcastLoss  = 0.01
	// overheadLimit is the paper's bound on verification overhead (< 8%,
	// Table 5), in parts per million.
	overheadLimit = 80_000
	// snapshotEvery matches the experiments' metrics-snapshot sampling.
	snapshotEvery = 5
)

func (s broadcastShape) options(n int) cluster.Options {
	firstFree := msg.NodeID(n - n/10)
	return cluster.Options{
		N:       n,
		Seed:    s.seed,
		Backend: runtime.KindSim,
		Shards:  s.shards,
		Gossip: gossip.Config{
			F:              broadcastF,
			Period:         broadcastPeriod,
			ChunkPayload:   broadcastChunk,
			HistoryPeriods: 50,
		},
		Core: core.Config{
			F:              broadcastF,
			Period:         broadcastPeriod,
			Pdcc:           1,
			HistoryPeriods: 50,
			Gamma:          8.95,
		},
		Rep:          reputation.Config{M: 25, FlushEvery: 5, GracePeriods: 24},
		Stream:       stream.Config{BitrateBps: 674_000, ChunkPayload: broadcastChunk},
		NetDefaults:  net.Uniform(broadcastLoss, 5*time.Millisecond),
		LiFTinG:      true,
		BlameMode:    cluster.BlameMessages,
		ExpectedLoss: broadcastLoss,
		BehaviorFor: func(id msg.NodeID, _ *membership.Directory, _ *rng.Stream) gossip.Behavior {
			if id >= firstFree && id < msg.NodeID(n) {
				return freerider.Degree{Delta1: 0.7, Delta2: 0.7}
			}
			return nil
		},
	}
}

// kindSlots covers every message kind value (msg.Kind is a byte on the wire).
const kindSlots = 16

// kindAcc accumulates one node's handler work for one message kind.
type kindAcc struct {
	msgs uint64
	busy time.Duration
}

// timedHandler wraps a node's message handler and times HandleMessage per
// message kind. Sharded engines run each node's handlers serialized on its
// shard goroutine, so every node owns its accumulators and needs no lock.
type timedHandler struct {
	inner net.Handler
	acc   *[kindSlots]kindAcc
}

func (h timedHandler) HandleMessage(from msg.NodeID, m msg.Message) {
	k := m.Kind()
	start := time.Now()
	h.inner.HandleMessage(from, m)
	a := &h.acc[k]
	a.busy += time.Since(start)
	a.msgs++
}

// handlerTrace is the traced run's per-node accumulators.
type handlerTrace struct {
	nodes []*[kindSlots]kindAcc
}

// attachTrace re-attaches every node of c behind a timing wrapper.
func attachTrace(c *cluster.Cluster) *handlerTrace {
	t := &handlerTrace{}
	for id := 0; id < c.Opts.N; id++ {
		acc := new([kindSlots]kindAcc)
		t.nodes = append(t.nodes, acc)
		c.RT.Attach(msg.NodeID(id), timedHandler{inner: c.Nodes[msg.NodeID(id)], acc: acc})
	}
	return t
}

// total sums the accumulators of every node for one kind.
func (t *handlerTrace) total(k msg.Kind) kindAcc {
	var sum kindAcc
	for _, acc := range t.nodes {
		sum.msgs += acc[k].msgs
		sum.busy += acc[k].busy
	}
	return sum
}

// broadcastOutcome is everything one pass of the workload produced.
type broadcastOutcome struct {
	setup time.Duration
	run   cost
	// segments is the measured run's host cost split at score-period
	// boundaries.
	segments []segment
	digest   string
	events   uint64
	ppm      uint64
	lag      time.Duration
	detect   time.Duration
	verdict  broadcastVerdict
	c        *cluster.Cluster // kept for traced passes only
	trace    *handlerTrace
}

// broadcastRunState is a set-up cluster and the recorders its period
// snapshot callback fills while it runs.
type broadcastRunState struct {
	c     *cluster.Cluster
	trace *handlerTrace
	snaps []metrics.Snapshot
	// meter cuts the measured run into score periods.
	meter *meter
}

// setUp calibrates η on the pilot, then builds, starts and streams the
// cluster. With traced set, every node handler is timed.
func (s broadcastShape) setUp(ctx context.Context, traced bool) (*broadcastRunState, error) {
	cal, err := cluster.Calibrate(ctx, s.options(s.pilotN), s.duration)
	if err != nil {
		return nil, fmt.Errorf("calibrate: %w", err)
	}
	st := &broadcastRunState{meter: &meter{ref: s.ref}}
	opts := s.options(s.n)
	opts.Rep.Compensation = cal.Compensation
	opts.Rep.Eta = -10 * cal.ScoreStd
	opts.ExpelOnDetection = true
	// Period snapshots fire at the sharded engine's global barrier, with
	// every shard parked: a consistent point to read the host clocks and
	// sample the host's speed.
	opts.OnPeriodSnapshot = func(p msg.Period, snap metrics.Snapshot) {
		st.meter.cut()
		if p%snapshotEvery == 0 {
			st.snaps = append(st.snaps, snap)
		}
	}
	st.c = cluster.New(opts)
	if traced {
		st.trace = attachTrace(st.c)
	}
	st.c.Start()
	st.c.StartStream(s.duration)
	return st, nil
}

// broadcastOnce sets the workload up and runs the stream (measured).
func broadcastOnce(ctx context.Context, s broadcastShape, traced bool) (*broadcastOutcome, error) {
	setupStart := time.Now()
	st, err := s.setUp(ctx, traced)
	if err != nil {
		return nil, err
	}
	out := &broadcastOutcome{setup: time.Since(setupStart), trace: st.trace}
	c := st.c
	out.run, err = measure(func() error {
		st.meter.begin()
		err := c.RunContext(ctx, s.duration+2*broadcastPeriod)
		st.meter.cut()
		return err
	})
	c.Close()
	if err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	out.segments = st.meter.finish()
	if traced {
		out.c = c
	}
	out.events = c.Engine.Events()
	out.ppm = overheadPpm(c.Collector)
	out.lag = time.Duration(c.Collector.StreamLagMeanNs())
	out.digest, out.detect = broadcastDigest(c, st.snaps)
	out.verdict = verdictOf(c)
	return out, nil
}

// broadcastDigest hashes the run's seeded outcome: engine events, per-kind
// message counts, the expelled set with expulsion times, and the metrics
// snapshots. It also returns the freeriders' mean expulsion time.
func broadcastDigest(c *cluster.Cluster, snaps []metrics.Snapshot) (string, time.Duration) {
	h := sha256.New()
	put := func(v uint64) { _ = binary.Write(h, binary.LittleEndian, v) }
	put(c.Engine.Events())
	for k := msg.Kind(1); k < kindSlots; k++ {
		put(c.Collector.SentMsgs(k))
		put(c.Collector.RecvMsgs(k))
		put(c.Collector.Dropped(k))
	}
	ids := make([]msg.NodeID, 0, len(c.Expelled))
	for id := range c.Expelled {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	var detect time.Duration
	caught := 0
	for _, id := range ids {
		put(uint64(id))
		put(uint64(c.Expelled[id]))
		if c.Freeriders[id] {
			detect += c.Expelled[id]
			caught++
		}
	}
	doc, _ := json.Marshal(snaps) // a slice of plain structs cannot fail to encode
	h.Write(doc)
	if caught > 0 {
		detect /= time.Duration(caught)
	}
	return hex.EncodeToString(h.Sum(nil)), detect
}

// broadcastVerdict is what the workload's oracles read from a finished
// cluster.
type broadcastVerdict struct {
	freeriders, caught, honest int
	goodput                    uint64
	jitter                     time.Duration
	dup, useful                uint64
}

func verdictOf(c *cluster.Cluster) broadcastVerdict {
	v := broadcastVerdict{
		freeriders: len(c.Freeriders),
		goodput:    c.Collector.GoodputBytes(),
		jitter:     time.Duration(c.Collector.StreamJitterMeanNs()),
		dup:        c.Collector.DupChunks(),
		useful:     c.Collector.UsefulChunks(),
	}
	for id := range c.Expelled {
		if c.Freeriders[id] {
			v.caught++
		} else {
			v.honest++
		}
	}
	return v
}

// checkBroadcast applies the workload's oracles: the cohort is expelled,
// honest nodes are not, verification overhead stays under the paper's 8%,
// and the content plane delivers a timely, mostly non-redundant stream.
func checkBroadcast(b *bench, s broadcastShape, out *broadcastOutcome) {
	v := out.verdict
	b.check(v.caught == v.freeriders, "broadcast -seed %d: %d of %d freeriders expelled", b.seed, v.caught, v.freeriders)
	b.check(v.honest == 0, "broadcast -seed %d: %d honest nodes expelled", b.seed, v.honest)
	b.check(out.ppm > 0 && out.ppm < overheadLimit, "broadcast -seed %d: verification overhead %d ppm, want (0, %d)", b.seed, out.ppm, overheadLimit)
	b.check(v.goodput > 0, "broadcast -seed %d: no verified payload delivered", b.seed)
	b.check(out.lag > 0 && out.lag < s.duration, "broadcast -seed %d: mean stream lag %s outside (0, %s)", b.seed, out.lag, s.duration)
	b.check(v.jitter < broadcastPeriod, "broadcast -seed %d: mean jitter %s >= gossip period", b.seed, v.jitter)
	b.check(v.dup < v.useful, "broadcast -seed %d: duplicate serves %d are the majority (useful %d)", b.seed, v.dup, v.useful)
	b.check(out.detect > 0, "broadcast -seed %d: no detection time (no freerider expelled)", b.seed)
}

func overheadPpm(coll *metrics.Collector) uint64 {
	_, vb := coll.VerificationTotals()
	_, pb := coll.ProtocolTotals()
	if pb == 0 {
		return 0
	}
	return vb * 1_000_000 / pb
}

// broadcastPass is the nominal host time of one broadcast-3k pass on two
// cores, set-up included; it sets how many passes --seconds buys.
const broadcastPass = 20 * time.Second

func (b *bench) broadcastShape() broadcastShape {
	return broadcastShape{n: 3000, pilotN: 300, duration: 15 * time.Second, seed: b.seed, shards: b.parallel, ref: b.ref}
}

func broadcastRun(ctx context.Context, b *bench) (map[string]metric, error) {
	s := b.broadcastShape()
	// One extra set-up, discarded, so setup_s is a median of at least three.
	start := time.Now()
	if _, err := s.setUp(ctx, false); err != nil {
		return nil, err
	}
	setups := []float64{time.Since(start).Seconds()}
	var passes [][]segment
	var totals []cost
	var first *broadcastOutcome
	for i := 0; i < b.passes(broadcastPass, 2); i++ {
		gort.GC() // start every pass from the same heap, so passes compare
		out, err := broadcastOnce(ctx, s, false)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = out
			checkBroadcast(b, s, out)
		} else {
			b.consistent(out.digest == first.digest && len(out.segments) == len(first.segments),
				"broadcast: outcome digest %s differs from the first pass's %s", out.digest, first.digest)
		}
		setups = append(setups, out.setup.Seconds())
		passes = append(passes, out.segments)
		totals = append(totals, out.run)
	}
	fmt.Printf("broadcast-3k: %d passes, digest %s\n", len(passes), first.digest)
	ms := costMetrics(setups, passes, totals)
	ms["overhead_ppm"] = metric{float64(first.ppm), "ppm"}
	ms["lag_ms"] = metric{float64(first.lag) / 1e6, "ms"}
	return ms, nil
}

func broadcastTrace(ctx context.Context, b *bench) (map[string]metric, error) {
	s := b.broadcastShape()
	plain, err := broadcastOnce(ctx, s, false)
	if err != nil {
		return nil, err
	}
	checkBroadcast(b, s, plain)
	traced, err := broadcastOnce(ctx, s, true)
	if err != nil {
		return nil, err
	}
	b.consistent(traced.digest == plain.digest, "broadcast: traced digest %s differs from untraced %s", traced.digest, plain.digest)
	fmt.Printf("broadcast-3k: traced digest %s, untraced %s\n", traced.digest, plain.digest)
	ms := layerMetrics(b, traced)
	ms["sim.ns_per_event"] = metric{float64(plain.run.wall.Nanoseconds()) / float64(plain.events), "ns"}
	ms["trace.overhead_share"] = overheadShare(plain.run, traced.run)
	gcMetrics(ms, plain.run)
	return ms, nil
}

// layerMetrics reduces a traced run to the handler, engine, network,
// reputation and period metrics, and checks that the wrapper saw exactly the
// messages the collector counted as delivered.
func layerMetrics(b *bench, out *broadcastOutcome) map[string]metric {
	c, t := out.c, out.trace
	ms := map[string]metric{}
	var delivered uint64
	var busy time.Duration
	for k := msg.Kind(1); k < kindSlots; k++ {
		acc := t.total(k)
		b.consistent(acc.msgs == c.Collector.RecvMsgs(k), "trace: wrapper saw %d %s messages, collector delivered %d", acc.msgs, k, c.Collector.RecvMsgs(k))
		delivered += acc.msgs
		busy += acc.busy
	}
	for _, l := range handlerLayers {
		acc := t.total(l.kind)
		ms[l.name+".msgs"] = metric{float64(acc.msgs), "count"}
		ms[l.name+".busy_s"] = metric{acc.busy.Seconds(), "s"}
	}
	dup, useful := c.Collector.DupChunks(), c.Collector.UsefulChunks()
	ms["gossip.dup_share"] = metric{float64(dup) / float64(dup+useful), "ratio"}
	var blames uint64
	for _, n := range c.Collector.BlamesIssued() {
		blames += n
	}
	ms["core.blames"] = metric{float64(blames), "count"}
	ms["sim.events"] = metric{float64(out.events), "count"}
	ms["sim.timer_events"] = metric{float64(out.events - delivered), "count"}
	ms["sim.other_busy_s"] = metric{(out.run.cpu - busy).Seconds(), "s"}
	var sent, sentBytes, dropped uint64
	for k := msg.Kind(1); k < kindSlots; k++ {
		sent += c.Collector.SentMsgs(k)
		sentBytes += c.Collector.SentBytes(k)
		dropped += c.Collector.Dropped(k)
	}
	ms["net.msgs_sent"] = metric{float64(sent), "count"}
	ms["net.msgs_dropped"] = metric{float64(dropped), "count"}
	ms["net.bytes_sent"] = metric{float64(sentBytes), "bytes"}
	ms["reputation.handoffs"] = metric{float64(c.Handoffs()), "count"}
	ms["reputation.detect_ms"] = metric{float64(out.detect) / 1e6, "ms"}
	// The first and last segments are partial periods.
	var periods []float64
	for _, seg := range out.segments[1 : len(out.segments)-1] {
		periods = append(periods, seg.wallSeconds()*1e3)
	}
	ms["cluster.period_ms_p50"] = metric{quantile(periods, 0.5), "ms"}
	ms["cluster.period_ms_p75"] = metric{quantile(periods, 0.75), "ms"}
	return ms
}

// handlerLayers names the message kinds whose handler time is reported,
// by the layer that handles them.
var handlerLayers = []struct {
	name string
	kind msg.Kind
}{
	{"gossip.propose", msg.KindPropose},
	{"gossip.request", msg.KindRequest},
	{"gossip.serve", msg.KindServe},
	{"core.ack", msg.KindAck},
	{"core.confirm", msg.KindConfirm},
	{"core.confirm-resp", msg.KindConfirmResp},
	{"reputation.blame", msg.KindBlame},
	{"reputation.expel", msg.KindExpel},
}
