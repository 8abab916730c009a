// Package eventsim provides a deterministic discrete-event simulation
// kernel used by the XRunner execution engine.
//
// Time is virtual and measured in seconds (float64). Events scheduled at
// the same instant are executed in scheduling order (FIFO), which makes
// every simulation run bit-for-bit reproducible. Scheduling order is a
// sequence number that At takes when it is called; Reserve takes one
// early for an event that AtSeq schedules later, so a caller can keep
// a queue of future events outside the heap and still fire each in the
// order At would have given it. The runner does this for arrivals and
// WAA KV handovers: an engine holds one pending event of each, for the
// earliest, instead of one per request pushed or batch encoded.
//
// The pending events sit in a typed binary heap whose entries carry
// their firing time and sequence number inline, so sifting compares
// entries without interface calls or loads through the event pointers.
//
// Event structs are pooled: fired and lazily drained cancelled events
// return to a per-Sim free list and are reused by later At/After calls,
// so long simulations (the runner schedules one event per decode
// iteration and per WAA handover) stop churning the heap allocator once the
// pool warms up. External code holds Handles, which carry a generation
// counter so operations on an already-fired (recycled) event are safe
// no-ops.
package eventsim

import (
	"fmt"
	"math"
)

// Event is pool-owned storage for one scheduled callback. External code
// never holds *Event directly; it gets a Handle.
type Event struct {
	at   float64
	gen  uint64
	fn   func()
	dead bool
	// sim owns the event; Cancel needs it to keep the owner's live-event
	// count exact without walking the heap.
	sim *Sim
}

// Seq is an event's place among events due at the same instant: the
// lower number fires first. Numbers increase in the order they are
// taken, by At or by Reserve.
type Seq uint64

// Handle refers to a scheduled event. The zero Handle is valid and
// refers to nothing. Handles stay safe after the event fires: the pool
// bumps the event's generation on recycle, so a stale Cancel cannot
// touch whatever event reuses the storage.
type Handle struct {
	ev  *Event
	gen uint64
}

// Time returns the virtual time at which the event fires, or NaN when
// the handle no longer refers to a pending event.
func (h Handle) Time() float64 {
	if h.ev == nil || h.ev.gen != h.gen {
		return math.NaN()
	}
	return h.ev.at
}

// Cancel prevents a pending event from firing. Cancelling an event that
// already fired (or a zero Handle) is a no-op. The cancelled event is
// dropped lazily: it stays in the heap until the simulation would pop
// it, then goes straight back to the pool without running.
func (h Handle) Cancel() {
	if h.ev != nil && h.ev.gen == h.gen && !h.ev.dead {
		h.ev.dead = true
		h.ev.sim.dead++
	}
}

// entry is one heap slot. It carries its event's firing key inline, so
// sifting compares entries without loading the events.
type entry struct {
	at  float64
	seq Seq
	ev  *Event
}

// before is the pop order: firing time, then sequence number. Sequence
// numbers are unique, so the order is total and every run pops the same
// events in the same order.
func (a entry) before(b entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// eventHeap is a binary min-heap of entries under before.
type eventHeap []entry

func (h *eventHeap) push(e entry) {
	q := append(*h, e)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = e
	*h = q
}

// pop removes and returns the earliest entry's event.
func (h *eventHeap) pop() *Event {
	q := *h
	top := q[0].ev
	n := len(q) - 1
	last := q[n]
	q[n] = entry{}
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && q[r].before(q[c]) {
				c = r
			}
			if !q[c].before(last) {
				break
			}
			q[i] = q[c]
			i = c
		}
		q[i] = last
	}
	*h = q
	return top
}

// Sim is a discrete-event simulator. The zero value is not usable; use New.
type Sim struct {
	now     float64
	seq     Seq
	pending eventHeap
	steps   uint64
	// dead counts cancelled events still parked in the heap awaiting
	// lazy drain; Pending subtracts it so cancelled work is invisible.
	dead int
	// free is the Event pool: fired and drained-cancelled events park
	// here and At reuses them instead of allocating.
	free []*Event
	// MaxSteps bounds the number of processed events to guard against
	// runaway simulations; 0 means no bound.
	MaxSteps uint64
}

// New returns an empty simulator positioned at time zero.
func New() *Sim {
	return &Sim{}
}

// Now returns the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.now }

// alloc takes an Event from the pool, or allocates when it is empty.
func (s *Sim) alloc() *Event {
	if n := len(s.free); n > 0 {
		ev := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return ev
	}
	return &Event{}
}

// recycle returns a fired or drained-cancelled event to the pool. The
// generation bump invalidates every outstanding Handle to it; dropping
// fn releases the callback's captures.
func (s *Sim) recycle(ev *Event) {
	if ev.dead {
		s.dead--
	}
	ev.gen++
	ev.fn = nil
	ev.dead = false
	s.free = append(s.free, ev)
}

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past panics, because it indicates a logic error in the caller.
func (s *Sim) At(t float64, fn func()) Handle {
	return s.AtSeq(t, s.Reserve(), fn)
}

// Reserve takes the next sequence number without scheduling anything.
// An event that AtSeq later schedules with it fires among same-time
// events as if At had scheduled it at the time of Reserve.
func (s *Sim) Reserve() Seq {
	seq := s.seq
	s.seq++
	return seq
}

// AtSeq schedules fn at absolute virtual time t with a sequence number
// from Reserve. Each reserved number is for one event.
func (s *Sim) AtSeq(t float64, seq Seq, fn func()) Handle {
	if t < s.now {
		panic(fmt.Sprintf("eventsim: schedule at %v before now %v", t, s.now))
	}
	if math.IsNaN(t) {
		panic("eventsim: schedule at NaN")
	}
	ev := s.alloc()
	ev.at, ev.fn, ev.sim = t, fn, s
	s.pending.push(entry{at: t, seq: seq, ev: ev})
	return Handle{ev: ev, gen: ev.gen}
}

// After schedules fn to run d seconds after the current time.
func (s *Sim) After(d float64, fn func()) Handle {
	if d < 0 {
		panic(fmt.Sprintf("eventsim: negative delay %v", d))
	}
	return s.At(s.now+d, fn)
}

// Step processes the single earliest pending event. It reports whether
// an event was processed. The event's storage is recycled before its
// callback runs, so the callback can immediately reuse it by scheduling
// a follow-up event.
func (s *Sim) Step() bool {
	for len(s.pending) > 0 {
		ev := s.pending.pop()
		if ev.dead {
			s.recycle(ev)
			continue
		}
		s.now = ev.at
		s.steps++
		fn := ev.fn
		s.recycle(ev)
		fn()
		return true
	}
	return false
}

// Run processes events until none remain or MaxSteps is exceeded.
// It returns the final virtual time.
func (s *Sim) Run() float64 {
	for s.Step() {
		if s.MaxSteps > 0 && s.steps > s.MaxSteps {
			panic(fmt.Sprintf("eventsim: exceeded MaxSteps=%d", s.MaxSteps))
		}
	}
	return s.now
}

// RunUntil processes events with firing time <= deadline. Events
// scheduled beyond the deadline remain pending. It returns the final
// virtual time, which never exceeds the deadline.
func (s *Sim) RunUntil(deadline float64) float64 {
	for len(s.pending) > 0 {
		next := s.pending[0]
		if next.ev.dead {
			s.recycle(s.pending.pop())
			continue
		}
		if next.at > deadline {
			break
		}
		s.Step()
		if s.MaxSteps > 0 && s.steps > s.MaxSteps {
			panic(fmt.Sprintf("eventsim: exceeded MaxSteps=%d", s.MaxSteps))
		}
	}
	if s.now < deadline {
		s.now = deadline
	}
	return s.now
}
