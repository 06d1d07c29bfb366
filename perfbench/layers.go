package main

import "lifting/internal/experiment"

// endToEnd is every end-to-end metric an untraced run reports, with its unit.
var endToEnd = map[string]string{
	"wall_s":       "s",
	"setup_s":      "s",
	"cpu_s":        "s",
	"peak_rss_mb":  "MB",
	"alloc_mb":     "MB",
	"allocs_m":     "M",
	"overhead_ppm": "ppm",
	"lag_ms":       "ms",
}

// perLayer returns every per-layer metric a traced run reports, with its
// unit. A workload reports 0 for a metric whose layer boundary it cannot
// observe from outside the program (NOTES.md lists which).
func perLayer() map[string]string {
	units := map[string]string{
		"gossip.dup_share":            "ratio",
		"core.blames":                 "count",
		"history.has_recent_ns":       "ns",
		"history.record_ns":           "ns",
		"content.verify_ns":           "ns",
		"content.store_ns":            "ns",
		"sim.events":                  "count",
		"sim.timer_events":            "count",
		"sim.ns_per_event":            "ns",
		"sim.other_busy_s":            "s",
		"sim.drain_ns":                "ns",
		"net.msgs_sent":               "count",
		"net.msgs_dropped":            "count",
		"net.bytes_sent":              "bytes",
		"reputation.handoffs":         "count",
		"reputation.flush_ns":         "ns",
		"reputation.detect_ms":        "ms",
		"membership.managers_hit_ns":  "ns",
		"membership.managers_miss_ns": "ns",
		"metrics.on_send_ns":          "ns",
		"stats.entropy_ns":            "ns",
		"cluster.period_ms_p50":       "ms",
		"cluster.period_ms_p75":       "ms",
		"chaos.events":                "count",
		"gc.cpu_s":                    "s",
		"gc.cycles":                   "count",
		"trace.overhead_share":        "ratio",
	}
	for _, l := range handlerLayers {
		units[l.name+".msgs"] = "count"
		units[l.name+".busy_s"] = "s"
	}
	for _, name := range experiment.ScenarioNames() {
		units["experiment.matrix."+name+".busy_s"] = "s"
	}
	for _, attack := range soakAttacks {
		units["experiment.soak."+attack+".busy_s"] = "s"
	}
	return units
}

// completeLayers adds a zero for every per-layer metric the workload did not
// observe.
func completeLayers(ms map[string]metric) {
	for name, unit := range perLayer() {
		if _, ok := ms[name]; !ok {
			ms[name] = metric{0, unit}
		}
	}
}
