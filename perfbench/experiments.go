package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	gort "runtime"
	"strconv"
	"strings"
	"time"

	"lifting/internal/experiment"
	"lifting/internal/metrics"
	"lifting/internal/runtime"
)

// soakAttacks are the churn-soak workload's adversary cohorts, one soak
// experiment run each.
var soakAttacks = []string{"freeride", "blame-spam", "period-stretch"}

// runExperiment looks up a registry experiment and runs it with the
// benchmark's seed and parallelism.
func (b *bench) runExperiment(ctx context.Context, name string, edit func(*experiment.Params)) (*experiment.Result, error) {
	e, ok := experiment.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("experiment %q is not registered", name)
	}
	p := experiment.DefaultParams()
	p.Seed = b.seed
	p.Backends = []runtime.Kind{runtime.KindSim}
	p.Workers = b.parallel
	p.Shards = b.parallel
	if edit != nil {
		edit(&p)
	}
	res, err := e.Run(ctx, p, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return res, nil
}

// warmUp runs a small instance of the workload five times before the
// measured passes, so lazy initialisation and heap growth are paid
// first; its median is the workload's set-up time.
func (b *bench) warmUp(ctx context.Context, name string, edit func(*experiment.Params)) ([]float64, error) {
	var setups []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		if _, err := b.runExperiment(ctx, name, edit); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	return setups, nil
}

// --- matrix ---

// matrixTable returns the matrix table's columns and rows; the rows are
// the seeded outcome of every scenario.
func matrixTable(res *experiment.Result) ([]string, [][]string, error) {
	if len(res.Tables) != 1 {
		return nil, nil, fmt.Errorf("matrix: %d tables, want 1", len(res.Tables))
	}
	return res.Tables[0].Columns, res.Tables[0].Rows, nil
}

// digestRows hashes the JSON encoding of table rows.
func digestRows(rows [][]string) string {
	doc, _ := json.Marshal(rows) // string slices cannot fail to encode
	sum := sha256.Sum256(doc)
	return hex.EncodeToString(sum[:])
}

// column returns the index of the named column of the matrix table.
func column(cols []string, name string) (int, error) {
	for i, c := range cols {
		if c == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("matrix: no %q column", name)
}

// columnMean averages a column of the matrix table, parsing each cell.
func columnMean(cols []string, rows [][]string, name string, parse func(string) (float64, error)) (float64, error) {
	col, err := column(cols, name)
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, r := range rows {
		v, err := parse(r[col])
		if err != nil {
			return 0, fmt.Errorf("matrix: %s cell %q: %w", name, r[col], err)
		}
		sum += v
	}
	return sum / float64(len(rows)), nil
}

// parsePercent reads a cell like "9.5%" as parts per million.
func parsePercent(cell string) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	return v * 1e4, err
}

// parseMillis reads a duration cell like "117ms" in milliseconds.
func parseMillis(cell string) (float64, error) {
	d, err := time.ParseDuration(cell)
	return float64(d) / 1e6, err
}

// checkMatrix applies every scenario's oracle as reported in its row.
func checkMatrix(b *bench, cols []string, rows [][]string) error {
	col, err := column(cols, "verdict")
	if err != nil {
		return err
	}
	for _, r := range rows {
		b.check(r[col] == "ok", "matrix -quick -filter %s -seed %d: %s", r[0], b.seed, r[col])
	}
	return nil
}

// matrixPass is the host time budgeted for one quick matrix pass on two
// cores: 4-6 s of sweep, with margin for a slow host, which keeps a run
// near 30 s. It sets how many passes --seconds buys.
const matrixPass = 7500 * time.Millisecond

// quickMatrix selects the quick sweep; filter restricts it to one scenario.
func quickMatrix(filter string) func(*experiment.Params) {
	return func(p *experiment.Params) {
		p.Quick = true
		p.Filter = filter
	}
}

// matrixSplitPass runs every scenario of the quick sweep as its own call,
// returning each call's host cost, the table columns, and the scenarios'
// rows in sweep order.
func matrixSplitPass(ctx context.Context, b *bench) ([]segment, cost, []string, [][]string, error) {
	m := &meter{ref: b.ref}
	var cols []string
	var rows [][]string
	total, err := measure(func() error {
		m.begin()
		for _, name := range experiment.ScenarioNames() {
			res, err := b.runExperiment(ctx, "matrix", quickMatrix(name))
			m.cut()
			if err != nil {
				return err
			}
			cs, r, err := matrixTable(res)
			if err != nil {
				return err
			}
			if len(r) != 1 {
				return fmt.Errorf("matrix: filter %q ran %d scenarios, want 1", name, len(r))
			}
			cols = cs
			rows = append(rows, r...)
		}
		return nil
	})
	return m.finish(), total, cols, rows, err
}

func matrixRun(ctx context.Context, b *bench) (map[string]metric, error) {
	setups, err := b.warmUp(ctx, "matrix", quickMatrix("fanout-decrease"))
	if err != nil {
		return nil, err
	}
	var passes [][]segment
	var totals []cost
	var cols []string
	var rows [][]string
	for i := 0; i < b.passes(matrixPass, 2); i++ {
		gort.GC() // start every pass from the same heap, so passes compare
		segs, total, cs, split, err := matrixSplitPass(ctx, b)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			cols, rows = cs, split
			if err := checkMatrix(b, cols, rows); err != nil {
				return nil, err
			}
		} else {
			b.consistent(digestRows(split) == digestRows(rows), "matrix: pass %d digest %s differs from the first pass's %s", i, digestRows(split), digestRows(rows))
		}
		passes = append(passes, segs)
		totals = append(totals, total)
	}
	fmt.Printf("matrix: %d passes, digest %s\n", len(passes), digestRows(rows))
	ms := costMetrics(setups, passes, totals)
	ppm, err := columnMean(cols, rows, "overhead", parsePercent)
	if err != nil {
		return nil, err
	}
	lag, err := columnMean(cols, rows, "lag", parseMillis)
	if err != nil {
		return nil, err
	}
	ms["overhead_ppm"] = metric{ppm, "ppm"}
	ms["lag_ms"] = metric{lag, "ms"}
	return ms, nil
}

func matrixTrace(ctx context.Context, b *bench) (map[string]metric, error) {
	var res *experiment.Result
	plain, err := measure(func() (err error) {
		res, err = b.runExperiment(ctx, "matrix", quickMatrix(""))
		return err
	})
	if err != nil {
		return nil, err
	}
	cols, rows, err := matrixTable(res)
	if err != nil {
		return nil, err
	}
	if err := checkMatrix(b, cols, rows); err != nil {
		return nil, err
	}
	// The traced pass runs each scenario alone; scenario seeds derive from
	// the scenario name, so its rows must reproduce the full sweep's.
	segs, traced, _, split, err := matrixSplitPass(ctx, b)
	if err != nil {
		return nil, err
	}
	b.consistent(digestRows(split) == digestRows(rows), "matrix: per-scenario rows differ from the full sweep's")
	fmt.Printf("matrix: traced digest %s, untraced %s\n", digestRows(split), digestRows(rows))
	ms := map[string]metric{}
	for i, name := range experiment.ScenarioNames() {
		ms["experiment.matrix."+name+".busy_s"] = metric{segs[i].wallSeconds(), "s"}
	}
	ms["trace.overhead_share"] = overheadShare(plain, traced)
	gcMetrics(ms, plain)
	return ms, nil
}

// --- churn-soak ---

// soakPass is one run of every soak attack.
type soakPass struct {
	results []*experiment.Result
	// segments is each attack's host cost.
	segments []segment
	digest   string
}

func soakOnce(ctx context.Context, b *bench) (soakPass, cost, error) {
	var pass soakPass
	m := &meter{ref: b.ref}
	total, err := measure(func() error {
		m.begin()
		for _, attack := range soakAttacks {
			res, err := b.runExperiment(ctx, "soak", func(p *experiment.Params) { p.Filter = attack })
			m.cut()
			if err != nil {
				return err
			}
			pass.results = append(pass.results, res)
		}
		return nil
	})
	pass.segments = m.finish()
	if err != nil {
		return pass, total, err
	}
	var doc strings.Builder
	if err := experiment.NewDocument(pass.results).Encode(&doc); err != nil {
		return pass, total, fmt.Errorf("encode soak document: %w", err)
	}
	sum := sha256.Sum256([]byte(doc.String()))
	pass.digest = hex.EncodeToString(sum[:])
	return pass, total, nil
}

// checkSoak applies the soak's own verdict: standing invariants, zero live
// honest expulsions, the whole fault plan applied, goodput delivered, and
// the cohort expelled under the freeride attack.
func checkSoak(b *bench, attack string, res *experiment.Result) {
	b.check(res.Verdict.Pass, "soak -filter %s -seed %d: %s", attack, b.seed, strings.Join(res.Verdict.Failures, "; "))
}

// lastSnapshot is the final periodic metrics snapshot of a soak run.
func lastSnapshot(res *experiment.Result) (metrics.Snapshot, error) {
	if len(res.MetricsSnapshots) == 0 {
		return metrics.Snapshot{}, fmt.Errorf("soak: no metrics snapshots")
	}
	return res.MetricsSnapshots[len(res.MetricsSnapshots)-1], nil
}

// soakPassTime is the nominal host time of one churn-soak pass (three
// attacks) on two cores; it sets how many passes --seconds buys. A run
// makes at least two: with only four reference samples per pass, one
// pass's scaled figure moves with the samples' noise, and the median of
// two passes (their mean) averages it down.
const soakPassTime = 25 * time.Second

func soakRun(ctx context.Context, b *bench) (map[string]metric, error) {
	setups, err := b.warmUp(ctx, "soak", func(p *experiment.Params) {
		p.Quick = true
		p.Duration = 5 * time.Second
	})
	if err != nil {
		return nil, err
	}
	var passes [][]segment
	var totals []cost
	var first soakPass
	for i := 0; i < b.passes(soakPassTime, 2); i++ {
		gort.GC() // start every pass from the same heap, so passes compare
		pass, total, err := soakOnce(ctx, b)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			first = pass
			for j, res := range pass.results {
				checkSoak(b, soakAttacks[j], res)
			}
		} else {
			b.consistent(pass.digest == first.digest, "soak: outcome digest %s differs from the first pass's %s", pass.digest, first.digest)
		}
		passes = append(passes, pass.segments)
		totals = append(totals, total)
	}
	fmt.Printf("churn-soak: %d passes, digest %s\n", len(passes), first.digest)
	ms := costMetrics(setups, passes, totals)
	var ppm, lag float64
	for _, res := range first.results {
		snap, err := lastSnapshot(res)
		if err != nil {
			return nil, err
		}
		ppm += float64(snap.OverheadPpm)
		lag += float64(snap.StreamLagMeanNs) / 1e6
	}
	n := float64(len(first.results))
	ms["overhead_ppm"] = metric{ppm / n, "ppm"}
	ms["lag_ms"] = metric{lag / n, "ms"}
	return ms, nil
}

func soakTrace(ctx context.Context, b *bench) (map[string]metric, error) {
	plain, plainCost, err := soakOnce(ctx, b)
	if err != nil {
		return nil, err
	}
	for i, res := range plain.results {
		checkSoak(b, soakAttacks[i], res)
	}
	traced, tracedCost, err := soakOnce(ctx, b)
	if err != nil {
		return nil, err
	}
	b.consistent(traced.digest == plain.digest, "soak: traced digest %s differs from untraced %s", traced.digest, plain.digest)
	fmt.Printf("churn-soak: traced digest %s, untraced %s\n", traced.digest, plain.digest)
	ms := map[string]metric{}
	for i, attack := range soakAttacks {
		ms["experiment.soak."+attack+".busy_s"] = metric{traced.segments[i].wallSeconds(), "s"}
	}
	// Layer counts come from each attack's last metrics snapshot (taken
	// every five score periods), summed over the three attacks.
	recv := map[string]uint64{}
	var sent, sentBytes, dropped, dup, useful, blames uint64
	var handoffs, chaosEvents float64
	for _, res := range traced.results {
		snap, err := lastSnapshot(res)
		if err != nil {
			return nil, err
		}
		for _, k := range snap.Kinds {
			recv[k.Kind] += k.RecvMsgs
			sent += k.SentMsgs
			sentBytes += k.SentBytes
			dropped += k.DropMsgs
		}
		dup += snap.DupChunks
		useful += snap.UsefulChunks
		for _, r := range snap.BlamesIssued {
			blames += r.Count
		}
		h, _ := res.Metric("handoffs")
		handoffs += h
		e, _ := res.Metric("chaos-events")
		chaosEvents += e
	}
	for _, l := range handlerLayers {
		ms[l.name+".msgs"] = metric{float64(recv[l.kind.String()]), "count"}
	}
	ms["gossip.dup_share"] = metric{float64(dup) / float64(dup+useful), "ratio"}
	ms["core.blames"] = metric{float64(blames), "count"}
	ms["net.msgs_sent"] = metric{float64(sent), "count"}
	ms["net.msgs_dropped"] = metric{float64(dropped), "count"}
	ms["net.bytes_sent"] = metric{float64(sentBytes), "bytes"}
	ms["reputation.handoffs"] = metric{handoffs, "count"}
	ms["chaos.events"] = metric{chaosEvents, "count"}
	ms["trace.overhead_share"] = overheadShare(plainCost, tracedCost)
	gcMetrics(ms, plainCost)
	return ms, nil
}
