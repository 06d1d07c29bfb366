package runtime_test

import (
	"context"
	"testing"
	"time"

	"lifting/internal/metrics"
	"lifting/internal/msg"
	"lifting/internal/net"
	"lifting/internal/rng"
	"lifting/internal/runtime"
	"lifting/internal/sim"
	_ "lifting/internal/transport" // registers KindUDP
)

func newSimBackend() *runtime.SimBackend {
	engine := sim.NewEngine()
	simnet := net.NewSimNet(engine, rng.New(1), metrics.NewCollector(), net.Conditions{})
	return runtime.NewSim(engine, simnet)
}

// TestSimBackendContract exercises the Runtime interface on the
// discrete-event backend: global scheduling, inline Exec, virtual time.
func TestSimBackendContract(t *testing.T) {
	var rt runtime.Runtime = newSimBackend()

	var order []string
	rt.After(10*time.Millisecond, func() { order = append(order, "after") })
	rt.Exec(3, func() { order = append(order, "exec") }) // inline, before any event
	if len(order) != 1 || order[0] != "exec" {
		t.Fatalf("sim Exec not inline: %v", order)
	}
	rt.Run(context.Background(), 20*time.Millisecond)
	if len(order) != 2 || order[1] != "after" {
		t.Fatalf("After callback did not run: %v", order)
	}
	if rt.Now() != 20*time.Millisecond {
		t.Fatalf("Now() = %v after Run(20ms)", rt.Now())
	}
	rt.Close() // no-op, must not panic
}

type recordingHandler struct {
	got []msg.Message
}

func (h *recordingHandler) HandleMessage(_ msg.NodeID, m msg.Message) { h.got = append(h.got, m) }

// TestSimBackendDelivery checks Attach/Network/SetDown through the seam.
func TestSimBackendDelivery(t *testing.T) {
	b := newSimBackend()
	var rt runtime.Runtime = b
	h := &recordingHandler{}
	rt.Attach(2, h)

	rt.Network().Send(1, 2, &msg.ScoreReq{Sender: 1, Target: 2}, net.Reliable)
	rt.Run(context.Background(), time.Second)
	if len(h.got) != 1 {
		t.Fatalf("delivered %d messages, want 1", len(h.got))
	}

	rt.SetDown(2, true)
	rt.Network().Send(1, 2, &msg.ScoreReq{Sender: 1, Target: 2}, net.Reliable)
	rt.Run(context.Background(), 2*time.Second)
	if len(h.got) != 1 {
		t.Fatal("down node received a message")
	}
}

func TestKindString(t *testing.T) {
	if runtime.KindSim.String() != "sim" || runtime.KindUDP.String() != "udp" {
		t.Fatalf("kind names wrong: %v %v", runtime.KindSim, runtime.KindUDP)
	}
}

func TestParseKind(t *testing.T) {
	for _, want := range []runtime.Kind{runtime.KindSim, runtime.KindUDP} {
		got, err := runtime.ParseKind(want.String())
		if err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v", want.String(), got, err)
		}
	}
	for _, bad := range []string{"tcp", "live"} {
		if _, err := runtime.ParseKind(bad); err == nil {
			t.Errorf("ParseKind accepted unknown backend %q", bad)
		}
	}
}

// TestRegistryBuildsBackends constructs every registered backend through the
// registry and runs a trivial schedule on it. KindUDP registers via the
// transport import above; KindSim registers in-package.
func TestRegistryBuildsBackends(t *testing.T) {
	kinds := runtime.Registered()
	if len(kinds) != 2 || kinds[0] != runtime.KindSim || kinds[1] != runtime.KindUDP {
		t.Fatalf("Registered() = %v, want [sim udp]", kinds)
	}
	for _, k := range kinds {
		rt, err := runtime.New(k, runtime.BackendOptions{Seed: 1})
		if err != nil {
			t.Fatalf("New(%v): %v", k, err)
		}
		fired := make(chan struct{})
		rt.After(time.Millisecond, func() { close(fired) })
		rt.Run(context.Background(), 5*time.Millisecond)
		select {
		case <-fired:
		case <-time.After(2 * time.Second):
			t.Fatalf("backend %v never fired the timer", k)
		}
		rt.Close()
		rt.Close() // Close is idempotent on every backend
	}
}

func TestRegistryRejectsUnregistered(t *testing.T) {
	if _, err := runtime.New(runtime.Kind(99), runtime.BackendOptions{}); err == nil {
		t.Fatal("New on an unregistered kind succeeded")
	}
}
