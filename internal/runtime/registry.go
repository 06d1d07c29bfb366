package runtime

import (
	"fmt"
	"sort"
	"sync"

	"lifting/internal/metrics"
	"lifting/internal/net"
	"lifting/internal/rng"
	"lifting/internal/sim"
)

// The discrete-event backend lives in this package, so it registers here.
// The udp backend registers from internal/transport.
func init() {
	Register(KindSim, func(o BackendOptions) (Runtime, error) {
		engine := sim.NewEngine()
		return NewSim(engine, net.NewSimNet(engine, rng.New(o.Seed), o.Collector, o.Defaults)), nil
	})
}

// BackendOptions carries everything a backend factory needs to build a
// Runtime. In-process backends ignore the socket-specific fields.
type BackendOptions struct {
	// Seed roots the backend's randomness (loss draws, latency jitter).
	Seed uint64
	// Collector receives traffic accounting; may be nil.
	Collector *metrics.Collector
	// Defaults is the connection quality of nodes without an override.
	Defaults net.Conditions
	// ListenTemplate is the address socket-backed backends bind each locally
	// hosted node to ("127.0.0.1:0" when empty: loopback, kernel-assigned
	// port). A ":0" port is required when more than one node is hosted.
	ListenTemplate string
}

// Factory builds a Runtime from backend options.
type Factory func(BackendOptions) (Runtime, error)

var (
	registryMu sync.RWMutex
	registry   = make(map[Kind]Factory)
)

// Register installs the factory for a backend kind. Backends register
// themselves from an init function (importing the backend package for effect
// is enough to make its Kind constructible); registering the same kind twice
// panics.
func Register(k Kind, f Factory) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[k]; dup {
		panic(fmt.Sprintf("runtime: backend %v registered twice", k))
	}
	registry[k] = f
}

// New builds a Runtime of the given kind via its registered factory. It
// fails if the kind has no registered backend — typically a missing blank
// import of the backend package.
func New(k Kind, o BackendOptions) (Runtime, error) {
	registryMu.RLock()
	f, ok := registry[k]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("runtime: no backend registered for %v (registered: %v)", k, Registered())
	}
	return f(o)
}

// Registered lists the kinds with a registered factory, in Kind order.
func Registered() []Kind {
	registryMu.RLock()
	defer registryMu.RUnlock()
	kinds := make([]Kind, 0, len(registry))
	//lint:allow ordered-map-range collect-then-sort: kinds are sorted before return
	for k := range registry {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	return kinds
}
