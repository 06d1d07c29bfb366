package sim

import (
	"testing"
	"time"
)

func TestOrderingByTime(t *testing.T) {
	e := NewEngine()
	var order []int
	e.After(30*time.Millisecond, func() { order = append(order, 3) })
	e.After(10*time.Millisecond, func() { order = append(order, 1) })
	e.After(20*time.Millisecond, func() { order = append(order, 2) })
	e.RunAll()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran out of order: %v", order)
	}
}

func TestFIFOAtSameInstant(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.After(5*time.Millisecond, func() { order = append(order, i) })
	}
	e.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", order)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	e := NewEngine()
	var at time.Duration
	e.After(42*time.Millisecond, func() { at = e.Now() })
	e.RunAll()
	if at != 42*time.Millisecond {
		t.Fatalf("Now inside event = %v, want 42ms", at)
	}
	if e.Now() != 42*time.Millisecond {
		t.Fatalf("Now after run = %v, want 42ms", e.Now())
	}
}

func TestNegativeDelayRunsNow(t *testing.T) {
	e := NewEngine()
	e.After(10*time.Millisecond, func() {
		e.After(-5*time.Millisecond, func() {
			if e.Now() != 10*time.Millisecond {
				t.Errorf("negative-delay event ran at %v", e.Now())
			}
		})
	})
	e.RunAll()
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 100 {
			e.After(time.Millisecond, rec)
		}
	}
	e.After(0, rec)
	n := e.RunAll()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if n != 100 {
		t.Fatalf("events executed = %d, want 100", n)
	}
}

func TestRunUntilBoundary(t *testing.T) {
	e := NewEngine()
	ran := map[int]bool{}
	e.After(10*time.Millisecond, func() { ran[10] = true })
	e.After(20*time.Millisecond, func() { ran[20] = true })
	e.After(30*time.Millisecond, func() { ran[30] = true })
	e.Run(20 * time.Millisecond)
	if !ran[10] || !ran[20] {
		t.Fatal("events at or before the boundary did not run")
	}
	if ran[30] {
		t.Fatal("event after the boundary ran")
	}
	if e.Now() != 20*time.Millisecond {
		t.Fatalf("clock = %v, want 20ms", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	// Resuming picks the remaining event up.
	e.Run(time.Second)
	if !ran[30] {
		t.Fatal("resumed run did not execute the remaining event")
	}
}

func TestRunAdvancesClockToUntil(t *testing.T) {
	e := NewEngine()
	e.Run(time.Second)
	if e.Now() != time.Second {
		t.Fatalf("empty Run should advance clock to until; got %v", e.Now())
	}
}

func TestAtAbsolute(t *testing.T) {
	e := NewEngine()
	var at time.Duration
	e.After(10*time.Millisecond, func() {
		e.At(15*time.Millisecond, func() { at = e.Now() })
	})
	e.RunAll()
	if at != 15*time.Millisecond {
		t.Fatalf("At event ran at %v, want 15ms", at)
	}
}

func TestRunChunkAndCounters(t *testing.T) {
	e := NewEngine()
	e.After(time.Millisecond, func() {})
	e.After(2*time.Millisecond, func() {})
	if n := e.RunChunk(time.Second, 1); n != 1 {
		t.Fatalf("RunChunk with budget 1 ran %d events, want 1", n)
	}
	if e.Events() != 1 || e.Pending() != 1 {
		t.Fatalf("Events = %d, Pending = %d, want 1 and 1", e.Events(), e.Pending())
	}
	if n := e.RunChunk(time.Second, 1); n != 1 {
		t.Fatalf("second RunChunk ran %d events, want 1", n)
	}
	if n := e.RunChunk(time.Second, 1); n != 0 {
		t.Fatalf("RunChunk on an empty queue ran %d events", n)
	}
	if e.Events() != 2 || e.Now() != time.Second {
		t.Fatalf("Events = %d, Now = %v, want 2 and 1s", e.Events(), e.Now())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int {
		e := NewEngine()
		var order []int
		for i := 0; i < 50; i++ {
			i := i
			d := time.Duration(i%7) * time.Millisecond
			e.After(d, func() { order = append(order, i) })
		}
		e.RunAll()
		return order
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("two identical runs diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
