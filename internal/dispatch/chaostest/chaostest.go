// Package chaostest wraps dispatch transports with deterministic,
// seed-driven fault injection, so the recovery paths — lease requeue,
// duplicate dedup — are exercised systematically instead of waiting for
// production to find them: coordinator → worker lease replies and
// worker → coordinator messages (requests, heartbeats, results) can be
// dropped, duplicated, or delayed out of order (Coordinator / Worker
// wrappers around an Injector).
//
// The injector burns its random rolls at every send whether or not a
// fault fires, so a fixed Seed produces the same fault schedule run
// after run — a chaos failure reproduces instead of flaking.
package chaostest

import (
	"math/rand"
	"sync"
	"time"

	"exegpt/internal/dispatch"
)

// Faults parameterizes an Injector: independent probabilities per send
// for dropping, duplicating and delaying a message, and the delay
// ceiling.
type Faults struct {
	// Seed fixes the fault schedule; equal seeds give equal schedules.
	Seed int64
	// Drop, Dup and Delay are per-send probabilities in [0, 1].
	Drop  float64
	Dup   float64
	Delay float64
	// MaxDelay bounds an injected delay; delayed sends are re-ordered
	// behind whatever is sent while they sleep.
	MaxDelay time.Duration
}

// Injector is a deterministic fault source shared by the wrappers of
// one chaos run. Safe for concurrent use.
type Injector struct {
	mu  sync.Mutex
	rng *rand.Rand
	f   Faults
}

// NewInjector builds an injector with the given fault profile.
func NewInjector(f Faults) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(f.Seed)), f: f}
}

// roll draws one send's fate. Every send draws all three numbers, so
// the schedule depends only on the send sequence, not on which faults
// happened to fire.
func (i *Injector) roll() (drop, dup bool, delay time.Duration) {
	i.mu.Lock()
	defer i.mu.Unlock()
	drop = i.rng.Float64() < i.f.Drop
	dup = i.rng.Float64() < i.f.Dup
	if wantDelay := i.rng.Float64() < i.f.Delay; wantDelay && i.f.MaxDelay > 0 {
		delay = time.Duration(i.rng.Int63n(int64(i.f.MaxDelay)))
	}
	return drop, dup, delay
}

// send applies one roll to a send thunk: drop it, delay it on a
// goroutine (re-ordering it behind later traffic), or pass it through
// — duplicated when the dup roll fires. Dropped and delayed sends
// report success, exactly like a network that lost the packet.
func (i *Injector) send(deliver func() error) error {
	drop, dup, delay := i.roll()
	if drop {
		return nil
	}
	n := 1
	if dup {
		n = 2
	}
	if delay > 0 {
		go func() {
			time.Sleep(delay)
			for k := 0; k < n; k++ {
				deliver() // a delayed send's error has no one to return to
			}
		}()
		return nil
	}
	for k := 0; k < n; k++ {
		if err := deliver(); err != nil {
			return err
		}
	}
	return nil
}

// Coordinator wraps the coordinator side of a transport with fault
// injection on its lease sends. Recv and Finish pass through; a
// StatusSink inner transport keeps publishing status.
func Coordinator(inner dispatch.Transport, inj *Injector) dispatch.Transport {
	ct := &coordTransport{inner: inner, inj: inj}
	if sink, ok := inner.(dispatch.StatusSink); ok {
		return &coordStatusTransport{coordTransport: ct, sink: sink}
	}
	return ct
}

type coordTransport struct {
	inner dispatch.Transport
	inj   *Injector
}

func (t *coordTransport) Recv(timeout time.Duration) (*dispatch.Msg, error) {
	return t.inner.Recv(timeout)
}

func (t *coordTransport) Send(l *dispatch.Lease) error {
	return t.inj.send(func() error { return t.inner.Send(l) })
}

func (t *coordTransport) Finish() error { return t.inner.Finish() }

type coordStatusTransport struct {
	*coordTransport
	sink dispatch.StatusSink
}

func (t *coordStatusTransport) PublishStatus(s dispatch.Status) { t.sink.PublishStatus(s) }

// Worker wraps one worker's side of a transport with fault injection
// on its message sends (requests, heartbeats, results, failures).
// RecvLease passes through — lease loss is injected on the
// coordinator's side.
func Worker(inner dispatch.WorkerTransport, inj *Injector) dispatch.WorkerTransport {
	return &workerTransport{inner: inner, inj: inj}
}

type workerTransport struct {
	inner dispatch.WorkerTransport
	inj   *Injector
}

func (t *workerTransport) Send(m *dispatch.Msg) error {
	return t.inj.send(func() error { return t.inner.Send(m) })
}

func (t *workerTransport) RecvLease(seq int, timeout time.Duration) (*dispatch.Lease, error) {
	return t.inner.RecvLease(seq, timeout)
}
