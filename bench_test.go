package lifting_test

// One benchmark per table and figure of the paper's evaluation. Each bench
// runs a (scaled) instance of the corresponding experiment and reports the
// paper's headline quantity via b.ReportMetric, so `go test -bench=. ./...`
// regenerates the whole evaluation in miniature. EXPERIMENTS.md records the
// full-scale numbers produced by cmd/lifting-sim.

import (
	"context"
	gort "runtime"
	"strconv"
	"testing"
	"time"

	"lifting/internal/analysis"
	"lifting/internal/experiment"
	"lifting/internal/rng"
	"lifting/internal/runtime"
	"lifting/internal/stats"
)

// BenchmarkFig1Health regenerates Figure 1: stream health with and without
// LiFTinG under 25% freeriding. Metrics: health at the largest lag for each
// scenario.
func BenchmarkFig1Health(b *testing.B) {
	p := experiment.DefaultPlanetLabConfig()
	p.N = 100
	p.Duration = 15 * time.Second
	lags := []time.Duration{5 * time.Second, 10 * time.Second, 15 * time.Second}
	for i := 0; i < b.N; i++ {
		_, base, _ := experiment.Fig1(context.Background(), p, experiment.Fig1NoFreeriders, lags)
		_, collapsed, _ := experiment.Fig1(context.Background(), p, experiment.Fig1Freeriders, lags)
		_, protected, _ := experiment.Fig1(context.Background(), p, experiment.Fig1FreeridersLiFTinG, lags)
		last := len(lags) - 1
		b.ReportMetric(base.Health[last], "health-baseline")
		b.ReportMetric(collapsed.Health[last], "health-freeriders")
		b.ReportMetric(protected.Health[last], "health-lifting")
	}
}

// BenchmarkFig10WrongfulBlames regenerates Figure 10: compensated honest
// scores after one period. Metrics: mean (paper ≈0) and σ (paper 25.6).
// The Serial variant pins Workers=1; the parallel one fans the independent
// per-node trials across GOMAXPROCS workers with bit-identical results —
// compare ns/op between the two on a multi-core machine.
func BenchmarkFig10WrongfulBlamesSerial(b *testing.B) {
	benchFig10(b, 1)
}

func BenchmarkFig10WrongfulBlames(b *testing.B) {
	benchFig10(b, 0) // 0 = GOMAXPROCS
}

func benchFig10(b *testing.B, workers int) {
	cfg := experiment.DefaultScoreConfig()
	cfg.N = 5000
	cfg.Workers = workers
	for i := 0; i < b.N; i++ {
		_, res, _ := experiment.Fig10(context.Background(), cfg)
		b.ReportMetric(res.HonestM.Mean(), "mean-score")
		b.ReportMetric(res.HonestM.Std(), "sigma-b")
	}
}

// BenchmarkFig11ScoreSeparation regenerates Figure 11: honest vs freerider
// normalized scores after r = 50. Metrics: detection α (paper > 0.99) and
// false positives β (paper < 0.01) at η = −9.75. Serial vs parallel as for
// Figure 10; r = 50 periods per node makes this the heavier sweep, so the
// parallel speedup is closer to linear here.
func BenchmarkFig11ScoreSeparationSerial(b *testing.B) {
	benchFig11(b, 1)
}

func BenchmarkFig11ScoreSeparation(b *testing.B) {
	benchFig11(b, 0)
}

func benchFig11(b *testing.B, workers int) {
	cfg := experiment.DefaultScoreConfig()
	cfg.N = 4000
	cfg.Freeriders = 400
	cfg.Workers = workers
	for i := 0; i < b.N; i++ {
		_, res, _ := experiment.Fig11(context.Background(), cfg)
		b.ReportMetric(res.Detection, "alpha")
		b.ReportMetric(res.FalsePositives, "beta")
		b.ReportMetric(res.HonestM.Mean()-res.FreeriderM.Mean(), "mode-gap")
	}
}

// BenchmarkChurn measures the churn workload end-to-end on the
// discrete-event backend: joins/leaves mid-stream with manager handoff.
// Metrics: arrival catch-up and the surviving score separation.
func BenchmarkChurn(b *testing.B) {
	cfg := experiment.DefaultChurnConfig()
	cfg.N = 60
	cfg.Joins = 8
	cfg.Leaves = 8
	cfg.Duration = 10 * time.Second
	for i := 0; i < b.N; i++ {
		_, res, _ := experiment.Churn(context.Background(), cfg)
		b.ReportMetric(res.CatchUp.Mean(), "arrival-catch-up")
		b.ReportMetric(res.HonestMean-res.FreeriderMean, "score-gap")
	}
}

// BenchmarkMatrix measures the adversary scenario matrix end-to-end: the
// whole quick sweep (calibration pilots plus seeded repetitions per attack)
// on the sim backend. Metrics: scenarios per run, mean detection over ALL
// rows (blame-spam's by-design 0 included, so the nominal value is ~0.9 and
// any scenario regressing to zero detection moves it), and oracle failures
// (must stay 0).
func BenchmarkMatrix(b *testing.B) {
	// Sim only: nil Backends would pull wise-degree's udp row into
	// the bench, streaming in wall-clock time and exposing the oracle
	// metrics to machine load.
	cfg := experiment.MatrixConfig{Quick: true, Backends: []runtime.Kind{runtime.KindSim}}
	for i := 0; i < b.N; i++ {
		_, res, _ := experiment.Matrix(context.Background(), cfg)
		failures := 0
		var alpha float64
		for _, r := range res.Rows {
			failures += len(r.Failures)
			alpha += r.Detection
		}
		if len(res.Rows) > 0 {
			alpha /= float64(len(res.Rows))
		}
		b.ReportMetric(float64(res.ScenariosRun), "scenarios")
		b.ReportMetric(alpha, "mean-alpha")
		b.ReportMetric(float64(failures), "oracle-failures")
	}
}

// BenchmarkFig12DetectionSweep regenerates Figure 12: α and gain vs δ.
// Metrics: α at the paper's anchor points δ = 0.035 (≈0.5), 0.05 (≈0.65)
// and 0.1 (>0.99).
func BenchmarkFig12DetectionSweep(b *testing.B) {
	cfg := experiment.DefaultScoreConfig()
	deltas := []float64{0.035, 0.05, 0.1}
	for i := 0; i < b.N; i++ {
		_, points, _ := experiment.Fig12(context.Background(), cfg, deltas, 800)
		b.ReportMetric(points[0].Detection, "alpha-0.035")
		b.ReportMetric(points[1].Detection, "alpha-0.05")
		b.ReportMetric(points[2].Detection, "alpha-0.1")
	}
}

// BenchmarkFig13EntropyDistribution regenerates Figure 13: the entropy of
// honest fanout/fanin histories. Metrics: the distribution means (paper:
// both ≈ 9.16, max 9.23) and the fanout minimum vs γ = 8.95.
func BenchmarkFig13EntropyDistribution(b *testing.B) {
	cfg := experiment.DefaultEntropyConfig()
	cfg.N = 3000
	cfg.SampleNodes = 300
	for i := 0; i < b.N; i++ {
		_, res, _ := experiment.Fig13(context.Background(), cfg)
		b.ReportMetric(res.Fanout.Mean(), "fanout-H-mean")
		b.ReportMetric(res.Fanin.Mean(), "fanin-H-mean")
		b.ReportMetric(res.Fanout.Min(), "fanout-H-min")
	}
}

// BenchmarkFig14DetectionOverTime regenerates Figure 14: detection and
// false positives from score CDFs at increasing times on the heterogeneous
// (PlanetLab-like) network. Paper anchor at 30 s, pdcc = 1: 86% / 12%.
func BenchmarkFig14DetectionOverTime(b *testing.B) {
	p := experiment.DefaultPlanetLabConfig()
	p.N = 100
	p.Duration = 30 * time.Second
	p.Delta = [3]float64{2.0 / 7, 0.2, 0.2}
	snaps := []time.Duration{20 * time.Second, 30 * time.Second}
	for i := 0; i < b.N; i++ {
		_, res, _ := experiment.Fig14(context.Background(), p, snaps)
		last := res.Snapshots[len(res.Snapshots)-1]
		b.ReportMetric(last.Detection, "detection")
		b.ReportMetric(last.FalsePositives, "false-positives")
	}
}

// BenchmarkEq7Inversion regenerates §6.3.2's numeric inversion of Equation
// 7. Metric: p*m for γ = 8.95, coalition 25, nh·f = 600 (paper ≈ 0.21).
func BenchmarkEq7Inversion(b *testing.B) {
	var pm float64
	for i := 0; i < b.N; i++ {
		pm = analysis.MaxCollusionBias(8.95, 25, 600)
	}
	b.ReportMetric(pm, "pm-star")
}

// BenchmarkTable1BlameAlgebra measures the pure blame computations of
// Table 1 (they sit on the per-message hot path of every verifier).
func BenchmarkTable1BlameAlgebra(b *testing.B) {
	bp := experiment.BlameProcess{
		P:    analysis.Params{F: 12, R: 4, Loss: 0.07},
		Rand: rng.New(1),
	}
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += bp.SamplePeriod()
	}
	b.ReportMetric(sink/float64(b.N), "blame-per-period")
}

// BenchmarkTable3MessageOverhead regenerates Table 3: verification messages
// per node per period. Metric: total verification messages per node-period
// at pdcc = 1 (theory O(pdcc·f² + M·f)).
func BenchmarkTable3MessageOverhead(b *testing.B) {
	p := experiment.DefaultPlanetLabConfig()
	p.N = 80
	p.Duration = 8 * time.Second
	for i := 0; i < b.N; i++ {
		tab, _ := experiment.Table3(context.Background(), p, []float64{1})
		// Column 5 is "total verif" for the single pdcc row.
		v := mustFloat(b, tab.Rows[0][5])
		b.ReportMetric(v, "verif-msgs-per-node-period")
	}
}

// BenchmarkTable5BandwidthOverhead regenerates Table 5: the relative
// bandwidth overhead at 674 kbps. Metrics: overhead fraction at pdcc = 0
// (paper 1.07%) and pdcc = 1 (paper 8.01%).
func BenchmarkTable5BandwidthOverhead(b *testing.B) {
	p := experiment.DefaultPlanetLabConfig()
	p.N = 80
	p.Duration = 10 * time.Second
	for i := 0; i < b.N; i++ {
		tab, _, _ := experiment.Table5(context.Background(), p, []int{674_000}, []float64{0, 1})
		b.ReportMetric(mustPct(b, tab.Rows[0][1]), "overhead-pdcc0")
		b.ReportMetric(mustPct(b, tab.Rows[0][2]), "overhead-pdcc1")
	}
}

// BenchmarkDisseminationThroughput measures the raw simulator: events per
// second for a full gossip+LiFTinG cluster (capacity planning for the
// larger runs).
func BenchmarkDisseminationThroughput(b *testing.B) {
	p := experiment.DefaultPlanetLabConfig()
	p.N = 60
	p.Duration = 5 * time.Second
	for i := 0; i < b.N; i++ {
		_, _, _ = experiment.Fig14(context.Background(), p, []time.Duration{5 * time.Second})
	}
}

// BenchmarkScale10k measures the sharded discrete-event engine on the
// headline workload: the 10k-node scale run (calibration pilot + 300-node
// baseline + 10k-node target, ~20M events) at a CI-sized 15 s stream.
// Metrics: ns and heap allocations per executed event of the target run,
// and the expulsion verdict as a 0/1 gate (any regression to a partial
// cohort or honest casualties moves it). One iteration is minutes of work;
// the bench driver runs it with -benchtime 1x.
func BenchmarkScale10k(b *testing.B) {
	cfg := experiment.DefaultScaleConfig()
	cfg.Duration = 15 * time.Second
	for i := 0; i < b.N; i++ {
		var m0, m1 gort.MemStats
		gort.ReadMemStats(&m0)
		_, res, err := experiment.Scale(context.Background(), cfg)
		gort.ReadMemStats(&m1)
		if err != nil {
			b.Fatal(err)
		}
		ev := float64(res.Target.Events)
		b.ReportMetric(float64(res.Target.Elapsed.Nanoseconds())/ev, "ns/event")
		b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/ev, "allocs/event")
		verdict := 0.0
		if res.Agree && res.Target.CohortExpelled() && res.Target.HonestClean() {
			verdict = 1
		}
		b.ReportMetric(verdict, "verdict-clean")
	}
}

// BenchmarkEntropy measures the audit hot path: entropy of a full-size
// history multiset (600 entries).
func BenchmarkEntropy(b *testing.B) {
	r := rng.New(3)
	ms := stats.NewMultiset[uint32]()
	for i := 0; i < 600; i++ {
		ms.Add(uint32(r.IntN(10000)))
	}
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += ms.Entropy()
	}
	_ = sink
}

func mustFloat(b *testing.B, s string) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		b.Fatalf("bad cell %q: %v", s, err)
	}
	return v
}

func mustPct(b *testing.B, s string) float64 {
	b.Helper()
	if n := len(s); n > 0 && s[n-1] == '%' {
		s = s[:n-1]
	}
	return mustFloat(b, s) / 100
}
