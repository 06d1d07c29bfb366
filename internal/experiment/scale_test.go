package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"lifting/internal/cluster"
)

// TestScaleVerdictScaleInvariant runs the scale workload at a reduced
// target population: the expulsion verdict — whole freerider cohort out,
// no honest casualties — must match the 300-node baseline's. The 10k-node
// target is exercised by `lifting-sim scale` and the CI smoke step; here it
// would dominate the package's test time.
func TestScaleVerdictScaleInvariant(t *testing.T) {
	cfg := DefaultScaleConfig()
	cfg.N = 1000
	if testing.Short() {
		cfg.N = 600
	}
	_, res, err := Scale(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Agree {
		t.Fatalf("verdicts disagree: baseline %q vs target %q", res.Baseline.Verdict(), res.Target.Verdict())
	}
	for _, run := range []ScaleRun{res.Baseline, res.Target} {
		if !run.CohortExpelled() {
			t.Errorf("N=%d: %d/%d freeriders expelled", run.N, run.FreeridersExpelled, run.Freeriders)
		}
		if !run.HonestClean() {
			t.Errorf("N=%d: %d honest nodes expelled", run.N, run.HonestExpelled)
		}
	}
	if res.Eta >= 0 {
		t.Fatalf("calibrated η = %v, want negative", res.Eta)
	}
	if res.Target.DetectionMean <= 0 || res.Target.DetectionMean > cfg.Duration {
		t.Fatalf("mean detection %v outside the run", res.Target.DetectionMean)
	}

	// Content-plane QoE: the stream carries real verified payload, arrivals
	// trail the source by less than the run, and spacing stays within a
	// gossip period of the chunk interval.
	for _, run := range []ScaleRun{res.Baseline, res.Target} {
		if run.GoodputBytes == 0 {
			t.Errorf("N=%d: no goodput", run.N)
		}
		if lag := run.StreamLag(); lag <= 0 || lag >= cfg.Duration {
			t.Errorf("N=%d: mean stream lag %v outside (0, %v)", run.N, lag, cfg.Duration)
		}
		if jit := run.StreamJitter(); jit >= cfg.Period {
			t.Errorf("N=%d: mean jitter %v >= period %v", run.N, jit, cfg.Period)
		}
	}

	// The periodic metrics section: sampled every snapshotEvery periods,
	// monotone in period and in every cumulative count, with the JSON keys
	// the document schema promises.
	snaps := res.TargetSnapshots
	if len(snaps) < 2 {
		t.Fatalf("target run produced %d snapshots", len(snaps))
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Period <= snaps[i-1].Period {
			t.Fatalf("snapshot periods not increasing: %d then %d", snaps[i-1].Period, snaps[i].Period)
		}
		if snaps[i].UsefulChunks < snaps[i-1].UsefulChunks {
			t.Fatalf("useful chunks not cumulative at snapshot %d", i)
		}
	}
	last := snaps[len(snaps)-1]
	if last.UsefulChunks == 0 || last.ProtocolBytes == 0 || last.VerificationBytes == 0 {
		t.Fatalf("final snapshot empty: %+v", last)
	}
	if last.GoodputBytes == 0 || last.StreamLagMeanNs == 0 {
		t.Fatalf("final snapshot has no QoE accounting: %+v", last)
	}
	encoded, err := json.Marshal(last)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"period"`, `"kinds"`, `"protocol_bytes"`, `"verification_bytes"`,
		`"overhead_ppm"`, `"dup_chunks"`, `"useful_chunks"`, `"blames_received"`,
		`"audits"`, `"expulsions"`, `"serve_latency"`,
		`"goodput_bytes"`, `"invalid_serves"`, `"stream_lag_mean_ns"`, `"stream_jitter_mean_ns"`} {
		if !bytes.Contains(encoded, []byte(key)) {
			t.Fatalf("snapshot JSON missing %s: %s", key, encoded)
		}
	}
}

// TestScaleShardInvariant pins the engine's contract at the workload
// level: one calibration, then the same seeded population run under 1, 2
// and 8 engine shards must produce identical results — same expulsions,
// same virtual detection times, same event count.
func TestScaleShardInvariant(t *testing.T) {
	cfg := DefaultScaleConfig()
	cfg.N = 600
	cfg.Duration = 15 * time.Second
	cal, err := cluster.Calibrate(context.Background(), cfg.scaleOptions(cfg.BaselineN), cfg.Duration)
	if err != nil {
		t.Fatal(err)
	}
	eta := -10 * cal.ScoreStd
	var ref ScaleRun
	var refSnaps []byte
	for i, s := range []int{1, 2, 8} {
		cfg.Shards = s
		run, snaps, err := cfg.scaleRun(context.Background(), cfg.N, cal.Compensation, eta)
		if err != nil {
			t.Fatal(err)
		}
		run.Elapsed = 0 // wall clock is the one legitimately varying field
		encoded, err := json.Marshal(snaps)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref, refSnaps = run, encoded
			if !run.CohortExpelled() || !run.HonestClean() {
				t.Fatalf("S=1 verdict %q, want cohort expelled and honest clean", run.Verdict())
			}
			if len(snaps) == 0 {
				t.Fatal("run produced no metrics snapshots")
			}
			if run.UsefulChunks == 0 || run.OverheadPpm == 0 {
				t.Fatalf("redundancy/overhead accounting empty: %+v", run)
			}
			if run.GoodputBytes == 0 || run.StreamLagMeanNs == 0 {
				t.Fatalf("QoE accounting empty: %+v", run)
			}
			continue
		}
		if run != ref {
			t.Fatalf("S=%d diverged from S=1:\n S=1: %+v\n S=%d: %+v", s, ref, s, run)
		}
		// The metrics snapshots — every counter, every histogram bucket —
		// must be byte-identical across shard counts too: they are sampled
		// at global-phase barriers over commuting atomic adds.
		if !bytes.Equal(encoded, refSnaps) {
			t.Fatalf("S=%d metrics snapshots diverged from S=1:\n S=1: %s\n S=%d: %s", s, refSnaps, s, encoded)
		}
	}
}

// TestScaleShortDuration pins the configuration the CI 10k smoke uses: a
// 15-second stream still leaves room for the 24-period grace plus detection
// slack, so shrinking the smoke's duration must not shrink the verdict.
func TestScaleShortDuration(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by TestScaleVerdictScaleInvariant in short mode")
	}
	cfg := DefaultScaleConfig()
	cfg.N = 800
	cfg.Duration = 15 * time.Second
	_, res, err := Scale(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Agree || !res.Target.CohortExpelled() || !res.Target.HonestClean() {
		t.Fatalf("15s run verdict broke: agree=%v target=%q", res.Agree, res.Target.Verdict())
	}
}
