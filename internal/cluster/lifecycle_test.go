package cluster

import (
	"sync"
	"testing"
	"time"

	"lifting/internal/runtime"
)

// TestCloseIdempotentAllBackends drives a short scenario on every backend
// and then closes it from many goroutines at once, twice over. Daemons
// handle SIGTERM by closing whatever is running; a double or concurrent
// Close must never panic or deadlock, on any backend.
func TestCloseIdempotentAllBackends(t *testing.T) {
	for _, backend := range []runtime.Kind{runtime.KindSim, runtime.KindUDP} {
		backend := backend
		t.Run(backend.String(), func(t *testing.T) {
			opts := fastOptions(backend, 10)
			c := New(opts)
			c.Start()
			c.StartStream(300 * time.Millisecond)
			c.Run(200 * time.Millisecond)

			var wg sync.WaitGroup
			for i := 0; i < 8; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					c.Close()
				}()
			}
			wg.Wait()
			c.Close()

			// The runtime is drained: post-close harness scheduling is a
			// safe no-op on the concurrent backends.
			if backend != runtime.KindSim {
				c.After(time.Millisecond, func() { t.Error("callback ran after Close") })
				time.Sleep(20 * time.Millisecond)
			}
			if len(c.Scores()) == 0 {
				t.Error("no scores after close")
			}
		})
	}
}
