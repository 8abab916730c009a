package eventsim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyRun(t *testing.T) {
	s := New()
	if got := s.Run(); got != 0 {
		t.Fatalf("Run of empty sim = %v, want 0", got)
	}
	if s.Steps() != 0 {
		t.Fatalf("Steps = %d, want 0", s.Steps())
	}
}

func TestEventOrdering(t *testing.T) {
	s := New()
	var order []int
	s.At(2.0, func() { order = append(order, 2) })
	s.At(1.0, func() { order = append(order, 1) })
	s.At(3.0, func() { order = append(order, 3) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTieBreakFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5.0, func() { order = append(order, i) })
	}
	s.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-time events ran out of order: %v", order)
		}
	}
}

func TestAfterAndNow(t *testing.T) {
	s := New()
	var at1, at2 float64
	s.After(1.5, func() {
		at1 = s.Now()
		s.After(0.5, func() { at2 = s.Now() })
	})
	end := s.Run()
	if at1 != 1.5 || at2 != 2.0 || end != 2.0 {
		t.Fatalf("at1=%v at2=%v end=%v", at1, at2, end)
	}
}

func TestCancel(t *testing.T) {
	s := New()
	ran := false
	ev := s.At(1.0, func() { ran = true })
	ev.Cancel()
	s.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
	if s.Steps() != 0 {
		t.Fatalf("Steps = %d, want 0", s.Steps())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New()
	s.At(2.0, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	s.At(1.0, func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative delay")
		}
	}()
	s.After(-1, func() {})
}

func TestRunUntil(t *testing.T) {
	s := New()
	var fired []float64
	for _, at := range []float64{1, 2, 3, 4} {
		at := at
		s.At(at, func() { fired = append(fired, at) })
	}
	s.RunUntil(2.5)
	if len(fired) != 2 || s.Now() != 2.5 {
		t.Fatalf("fired=%v now=%v", fired, s.Now())
	}
	s.Run()
	if len(fired) != 4 {
		t.Fatalf("after Run fired=%v", fired)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	s := New()
	s.RunUntil(10)
	if s.Now() != 10 {
		t.Fatalf("Now = %v, want 10", s.Now())
	}
}

func TestMaxStepsGuard(t *testing.T) {
	s := New()
	s.MaxSteps = 100
	var loop func()
	loop = func() { s.After(1, loop) }
	s.After(1, loop)
	defer func() {
		if recover() == nil {
			t.Fatal("expected MaxSteps panic")
		}
	}()
	s.Run()
}

func TestResourceFIFO(t *testing.T) {
	s := New()
	r := NewResource(s, "gpu0")
	var ends []float64
	r.Acquire(0, 2.0, func(end float64) { ends = append(ends, end) })
	r.Acquire(0, 3.0, func(end float64) { ends = append(ends, end) })
	start := r.Acquire(1.0, 1.0, func(end float64) { ends = append(ends, end) })
	if start != 5.0 {
		t.Fatalf("third start = %v, want 5 (queued FIFO)", start)
	}
	s.Run()
	want := []float64{2, 5, 6}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
	if r.BusySeconds() != 6 {
		t.Fatalf("busy = %v, want 6", r.BusySeconds())
	}
	if u := r.Utilization(6); u != 1.0 {
		t.Fatalf("utilization = %v, want 1", u)
	}
}

func TestResourceEarliestRespected(t *testing.T) {
	s := New()
	r := NewResource(s, "gpu0")
	start := r.Acquire(4.0, 1.0, nil)
	if start != 4.0 {
		t.Fatalf("start = %v, want 4", start)
	}
	if r.FreeAt() != 5.0 {
		t.Fatalf("freeAt = %v, want 5", r.FreeAt())
	}
}

func TestResourceNegativeDurationPanics(t *testing.T) {
	s := New()
	r := NewResource(s, "gpu0")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.Acquire(0, -1, nil)
}

func TestUtilizationZeroMakespan(t *testing.T) {
	s := New()
	r := NewResource(s, "g")
	if r.Utilization(0) != 0 {
		t.Fatal("utilization with zero makespan should be 0")
	}
}

// Property: regardless of insertion order, events fire in nondecreasing
// time order and the final clock equals the max scheduled time.
func TestQuickOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		s := New()
		var fired []float64
		maxT := 0.0
		for _, v := range raw {
			at := float64(v) / 7.0
			if at > maxT {
				maxT = at
			}
			s.At(at, func() { fired = append(fired, at) })
		}
		end := s.Run()
		if !sort.Float64sAreSorted(fired) {
			return false
		}
		return end == maxT && len(fired) == len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Property: under any interleaving of At, Step and Cancel — including
// cancels through handles whose event already fired and whose storage
// a later At reused — the surviving events fire in (time, insertion
// seq) order, no cancelled event fires, and nothing stays pending.
func TestQuickCancelInterleaving(t *testing.T) {
	f := func(ops []uint16) bool {
		s := New()
		var (
			at        []float64
			handles   []Handle
			fired     []int
			done      []bool // fired or cancelled
			cancelled = map[int]bool{}
		)
		for _, op := range ops {
			arg := int(op >> 2)
			switch op % 4 {
			case 0, 1: // schedule, with many same-time ties
				id := len(at)
				t := s.Now() + float64(arg%8)/2
				at = append(at, t)
				done = append(done, false)
				handles = append(handles, s.At(t, func() {
					fired = append(fired, id)
					done[id] = true
				}))
			case 2: // cancel a random earlier handle, live or not
				if len(handles) == 0 {
					continue
				}
				id := arg % len(handles)
				handles[id].Cancel()
				if !done[id] {
					cancelled[id] = true
					done[id] = true
				}
			case 3:
				s.Step()
			}
			live := 0
			for _, d := range done {
				if !d {
					live++
				}
			}
			if s.Pending() != live {
				return false
			}
		}
		s.Run()
		for i, id := range fired {
			if cancelled[id] {
				return false
			}
			if i > 0 {
				prev := fired[i-1]
				if at[id] < at[prev] || (at[id] == at[prev] && id < prev) {
					return false
				}
			}
		}
		return len(fired)+len(cancelled) == len(at) && s.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

// Property: resource serialization never overlaps work and busy time
// equals the sum of durations.
func TestQuickResourceSerial(t *testing.T) {
	f := func(raw []uint8) bool {
		s := New()
		r := NewResource(s, "g")
		total := 0.0
		prevEnd := 0.0
		ok := true
		for _, v := range raw {
			d := float64(v) / 13.0
			total += d
			pe := prevEnd
			start := r.Acquire(0, d, nil)
			if start < pe {
				ok = false
			}
			prevEnd = start + d
		}
		s.Run()
		return ok && almostEq(r.BusySeconds(), total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

func almostEq(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9*(1+b)
}

// TestStaleHandleIsSafeAfterRecycle: once an event fires, its storage
// returns to the pool. A stale Cancel (or Time) through the old handle
// must not touch the event that reuses the storage.
func TestStaleHandleIsSafeAfterRecycle(t *testing.T) {
	s := New()
	ran1, ran2 := false, false
	h1 := s.At(1.0, func() { ran1 = true })
	s.Run()
	if !ran1 {
		t.Fatal("first event did not run")
	}
	// The pool now holds the fired event; this At reuses its storage.
	h2 := s.At(2.0, func() { ran2 = true })
	h1.Cancel() // stale: must be a no-op
	if !math.IsNaN(h1.Time()) {
		t.Fatalf("stale Time = %v, want NaN", h1.Time())
	}
	if h2.Time() != 2.0 {
		t.Fatalf("live Time = %v, want 2", h2.Time())
	}
	s.Run()
	if !ran2 {
		t.Fatal("stale Cancel killed the recycled event")
	}
}

// TestZeroHandleIsSafe: the zero Handle refers to nothing.
func TestZeroHandleIsSafe(t *testing.T) {
	var h Handle
	h.Cancel()
	if !math.IsNaN(h.Time()) {
		t.Fatal("zero-handle Time should be NaN")
	}
}

// TestCancelledEventsRecycle: lazily drained cancelled events go back
// to the pool and get reused instead of leaking.
func TestCancelledEventsRecycle(t *testing.T) {
	s := New()
	for i := 0; i < 100; i++ {
		s.At(1.0, func() {}).Cancel()
	}
	s.Run() // drains and recycles all 100
	if got := testing.AllocsPerRun(100, func() {
		s.At(s.Now()+1, func() {})
		s.Run()
	}); got > 0.5 {
		t.Fatalf("steady-state schedule+run allocates %.1f objects/op, want ~0", got)
	}
}

// BenchmarkEventChurn pins the steady-state cost of the runner's
// schedule/fire pattern; with the Event pool it performs no per-event
// allocations once warm.
func BenchmarkEventChurn(b *testing.B) {
	s := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		remaining := 100
		var tick func()
		tick = func() {
			if remaining > 0 {
				remaining--
				s.After(1, tick)
			}
		}
		s.After(1, tick)
		s.Run()
	}
}

// BenchmarkEventCancelChurn measures scheduling with heavy cancellation
// (the timeout-then-cancel pattern).
func BenchmarkEventCancelChurn(b *testing.B) {
	s := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 100; j++ {
			h := s.After(1, func() {})
			if j%2 == 0 {
				h.Cancel()
			}
		}
		s.Run()
	}
}

// TestPendingExcludesCancelled pins the serve-loop idleness contract:
// a cancelled event must disappear from Pending immediately (O(1) at
// Cancel), not only when the heap lazily drains it — otherwise a
// long-lived loop polling Pending sees phantom work and never
// quiesces.
func TestPendingExcludesCancelled(t *testing.T) {
	s := New()
	h1 := s.At(1, func() {})
	h2 := s.At(2, func() {})
	if got := s.Pending(); got != 2 {
		t.Fatalf("Pending = %d, want 2", got)
	}
	h2.Cancel()
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending after cancel = %d, want 1 (cancelled event counted)", got)
	}
	// Double-cancel and stale-handle cancel must not double-count.
	h2.Cancel()
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending after double cancel = %d, want 1", got)
	}
	if !s.Step() {
		t.Fatal("Step found no live event")
	}
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending after draining = %d, want 0", got)
	}
	h1.Cancel() // already fired: no-op
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending after stale cancel = %d, want 0", got)
	}
	if s.Step() {
		t.Fatal("Step ran a cancelled event")
	}
}

// TestPendingCancelThenPoll mirrors the serve loop: schedule, cancel,
// then poll Pending without stepping — the cancelled event must not
// keep the sim looking busy, and RunUntil past it must drain it.
func TestPendingCancelThenPoll(t *testing.T) {
	s := New()
	fired := false
	h := s.After(5, func() { fired = true })
	h.Cancel()
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending = %d, want 0 after cancel", got)
	}
	s.RunUntil(10)
	if fired {
		t.Fatal("cancelled event fired")
	}
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending = %d, want 0 after drain", got)
	}
}
