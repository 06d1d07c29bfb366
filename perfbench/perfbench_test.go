package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestHandlerWrapperTransparent runs a small broadcast untraced and traced:
// the timing wrapper must not change the seeded outcome, and the messages it
// counts per kind must equal the collector's delivered counts.
func TestHandlerWrapperTransparent(t *testing.T) {
	s := broadcastShape{n: 200, pilotN: 100, duration: 15 * time.Second, seed: 7, shards: 2, ref: newHostRef(2)}
	b := &bench{seed: s.seed, parallel: 2}
	ctx := context.Background()
	plain, err := broadcastOnce(ctx, s, false)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := broadcastOnce(ctx, s, true)
	if err != nil {
		t.Fatal(err)
	}
	if traced.digest != plain.digest {
		t.Fatalf("traced digest %s, untraced %s", traced.digest, plain.digest)
	}
	ms := layerMetrics(b, traced)
	if b.inconsistent {
		t.Fatal("wrapper message counts disagree with the collector")
	}
	if got := ms["core.confirm.msgs"].Value; got == 0 {
		t.Fatal("wrapper saw no confirm messages")
	}
}

// TestBenchmarkManifest checks that BENCHMARK.json names exactly the
// workloads and metrics this program runs and reports, with the same units.
func TestBenchmarkManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	if len(manifest.Workloads) != len(workloads) {
		t.Errorf("manifest lists %d workloads, the program has %d", len(manifest.Workloads), len(workloads))
	}
	for _, w := range manifest.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("manifest workload %q unknown to the program", w.Name)
		}
	}
	same := func(kind string, listed []struct{ Name, Unit string }, want map[string]string) {
		if len(listed) != len(want) {
			t.Errorf("manifest lists %d %s metrics, the program reports %d", len(listed), kind, len(want))
		}
		for _, m := range listed {
			if unit, ok := want[m.Name]; !ok || unit != m.Unit {
				t.Errorf("%s metric %q (%s): program unit %q, reported %v", kind, m.Name, m.Unit, unit, ok)
			}
		}
	}
	same("end-to-end", manifest.EndToEnd, endToEnd)
	same("per-layer", manifest.PerLayer, perLayer())
}
