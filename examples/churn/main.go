// Churn: nodes joining and leaving a LiFTinG-policed broadcast mid-stream.
//
// The paper deploys on a static membership; this example runs the natural
// next workload. Nodes join and leave while the stream plays: arrivals catch
// up on the chunks generated after their join (infect-and-die gossip does
// not replay history), departures drop out of the sampling population, and
// the Alliatrust-like reputation managers hand their score copies off as the
// manager assignment shifts with the membership. Freerider detection must
// survive all of it.
//
// The example drives the experiment through the first-class registry API —
// the same entry `lifting-sim churn` dispatches — so the scenario, its
// parameter mapping and its structured result are shared with the CLI. The
// same wiring runs on the deterministic discrete-event engine (default) or
// over real UDP sockets on loopback, one per node (-backend udp), through
// the runtime seam.
//
// Run with: go run ./examples/churn [-backend udp]
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"lifting/internal/experiment"
	"lifting/internal/runtime"
)

func main() {
	backend := runtime.KindSim
	for _, arg := range os.Args[1:] {
		if arg == "-backend=udp" || arg == "udp" {
			backend = runtime.KindUDP
		}
	}
	params := experiment.DefaultParams()
	params.Backends = []runtime.Kind{backend}
	if backend == runtime.KindUDP {
		// The UDP backend runs in wall-clock time; keep the demo short.
		params.Quick = true
		params.N = 40
		params.Duration = 10 * time.Second
	}
	if _, err := run(context.Background(), os.Stdout, params); err != nil {
		fmt.Fprintln(os.Stderr, "churn:", err)
		os.Exit(1)
	}
}

// tableWriter renders each table of the run as it completes.
type tableWriter struct{ w io.Writer }

func (o tableWriter) OnTable(t *experiment.Table) { t.Render(o.w) }

// run executes the churn scenario through the experiment registry and
// returns its structured result.
func run(ctx context.Context, w io.Writer, params experiment.Params) (*experiment.Result, error) {
	churn, ok := experiment.Lookup("churn")
	if !ok {
		panic("churn experiment not registered")
	}
	res, err := churn.Run(ctx, params, tableWriter{w})
	if err != nil {
		return nil, err
	}
	joined, _ := res.Metric("joined")
	catchUp, _ := res.Metric("catch-up")
	handoffs, _ := res.Metric("handoffs")
	gap, _ := res.Metric("score-gap")
	fmt.Fprintf(w, "%.0f arrivals caught %.0f%% of the post-join stream; %.0f manager handoffs\n",
		joined, 100*catchUp, handoffs)
	fmt.Fprintf(w, "kept every replica set populated. Freeriders still score %.2f below the\n", gap)
	fmt.Fprintln(w, "honest mean: detection is a property of the protocol, not of a frozen roster.")
	return res, nil
}
