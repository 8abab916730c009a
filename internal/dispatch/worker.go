// The worker side of the dispatch protocol: a pull loop that requests
// cell batches, evaluates them one cell at a time (streaming results so
// the coordinator can account progress at cell granularity), and
// heartbeats while an evaluation is in flight.
package dispatch

import (
	"fmt"
	"sync"
	"time"

	"exegpt/internal/distsweep"
	"exegpt/internal/experiments"
)

// Worker runs the pull side of a dispatch session.
type Worker struct {
	// ID names this worker in leases and logs.
	ID string
	// Fingerprint and Cells describe the grid this worker was launched
	// for; every result envelope is stamped with them and the
	// coordinator rejects mismatches.
	Fingerprint string
	Cells       int
	// Batch is the largest cell batch to request per lease; <= 0 means
	// 1. One cell per lease maximizes stealing granularity; larger
	// batches amortize round trips on high-latency links.
	Batch int
	// Heartbeat is the interval between heartbeats while evaluating;
	// <= 0 means 5s. Leases carry the coordinator's lease timeout, and
	// a heartbeat faster than this one is derived from it when needed,
	// so a short-timeout coordinator never outpaces a default worker.
	Heartbeat time.Duration
	// Poll is the lease-poll interval and the back-off after an empty
	// lease; <= 0 means 500ms.
	Poll time.Duration
	// Idle aborts the worker when no lease reply arrives for this long;
	// 0 waits forever.
	Idle time.Duration
	// RetryBase and RetryMax bound the exponential
	// backoff-with-deterministic-jitter schedule used for the sleep
	// after an empty lease and for the re-request window after a lost
	// lease reply. <= 0 derives conservative values from Poll, so tests
	// with millisecond polls stay fast; the CLI threads
	// Options.RetryBase/RetryMax here. RetrySeed pins the jitter
	// stream; 0 derives a stable seed from the worker ID.
	RetryBase time.Duration
	RetryMax  time.Duration
	RetrySeed int64
	// Drain, when non-nil, switches the worker into a graceful exit
	// once it fires (a closed channel): the cell being evaluated
	// finishes and its result is delivered, the rest of the lease is
	// released back to the coordinator with MsgRelease, and Run returns
	// nil instead of requesting another lease, so a drained worker
	// never loses or strands a cell.
	Drain <-chan struct{}
	// Eval evaluates one grid cell (experiments.Context.SweepCells on a
	// single index).
	Eval func(cell int) (experiments.CellResult, error)
	// Logf, when non-nil, receives progress notes.
	Logf func(format string, args ...any)
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

// Run pulls and evaluates cell leases until the coordinator sends Stop.
// Cell evaluation failures are reported to the coordinator (which
// requeues within the retry budget) rather than ending the loop;
// transport failures end it.
func (w *Worker) Run(t WorkerTransport) error {
	if w.Eval == nil {
		return fmt.Errorf("dispatch: worker %q has no Eval", w.ID)
	}
	if w.ID == "" {
		return fmt.Errorf("dispatch: worker has no ID")
	}
	batch := w.Batch
	if batch < 1 {
		batch = 1
	}
	heartbeat := w.Heartbeat
	if heartbeat <= 0 {
		heartbeat = 5 * time.Second
	}
	poll := w.Poll
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}

	// Retry timing is exponential backoff with deterministic jitter.
	// Two schedules share one seed space: emptyBo paces re-asks after
	// an empty lease (reset whenever cells are actually granted), and
	// requestBo grows the window before a request whose reply never
	// arrived is re-sent under a fresh sequence number — the
	// coordinator requeues the orphaned lease's cells on its deadline,
	// so nothing is lost, but a fleet of workers hammering a slow
	// coordinator in lockstep is. Unset bounds derive from Poll so tests
	// with millisecond polls stay fast.
	base, ceil := w.RetryBase, w.RetryMax
	if base <= 0 {
		base = poll
	}
	if ceil <= 0 {
		ceil = 10 * poll
	}
	if ceil < base {
		ceil = base
	}
	seed := w.RetrySeed
	if seed == 0 {
		seed = SeedFromID(w.ID)
	}
	emptyBo := NewBackoff(base, ceil, seed)
	// The first-request window is ten lease polls (5s at the default
	// poll), long enough that healthy transports never re-request
	// spuriously; lost replies double it from there.
	reqWindow := 10 * poll
	requestBo := NewBackoff(reqWindow, 8*reqWindow, seed+1)

	idleStart := time.Now()
	for seq := 1; ; seq++ {
		if w.drained() {
			w.logf("dispatch: worker %s drained, exiting cleanly", w.ID)
			return nil
		}
		if err := t.Send(&Msg{Version: WireVersion, Type: MsgRequest, Worker: w.ID, Seq: seq, Max: batch}); err != nil {
			return err
		}
		var lease *Lease
		asked := time.Now()
		window := requestBo.Next()
		for lease == nil {
			l, err := t.RecvLease(seq, poll)
			if err != nil {
				return err
			}
			if l != nil {
				lease = l
				break
			}
			if w.drained() {
				w.logf("dispatch: worker %s drained, exiting cleanly", w.ID)
				return nil
			}
			if w.Idle > 0 && time.Since(idleStart) > w.Idle {
				return fmt.Errorf("dispatch: worker %s: no lease reply for %v (coordinator gone?)", w.ID, w.Idle)
			}
			if time.Since(asked) > window {
				w.logf("dispatch: worker %s: no reply to request %d, re-requesting", w.ID, seq)
				break
			}
		}
		if lease == nil {
			continue // re-request under the next sequence number
		}
		requestBo.Reset()
		idleStart = time.Now()
		if lease.Stop {
			w.logf("dispatch: worker %s stopping", w.ID)
			return nil
		}
		if len(lease.Cells) == 0 {
			// Nothing leasable right now; cells may requeue while other
			// workers hold leases, so back off and ask again.
			w.sleep(emptyBo.Next())
			continue
		}
		emptyBo.Reset()

		if err := w.evalLease(t, lease, heartbeat); err != nil {
			return err
		}
	}
}

// drained reports whether the Drain signal has fired.
func (w *Worker) drained() bool {
	if w.Drain == nil {
		return false
	}
	select {
	case <-w.Drain:
		return true
	default:
		return false
	}
}

// sleep waits for d, or less if the Drain signal fires first.
func (w *Worker) sleep(d time.Duration) {
	if w.Drain == nil {
		time.Sleep(d)
		return
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-w.Drain:
	}
}

// evalLease evaluates one leased batch cell by cell, heartbeating in
// the background for as long as the batch is in flight. The heartbeat
// interval shrinks to a third of the lease's own timeout when the
// configured interval would be too slow to keep the lease alive.
func (w *Worker) evalLease(t WorkerTransport, lease *Lease, heartbeat time.Duration) error {
	if lease.TimeoutMS > 0 {
		if fromLease := time.Duration(lease.TimeoutMS) * time.Millisecond / 3; fromLease < heartbeat {
			heartbeat = fromLease
		}
		if heartbeat < 10*time.Millisecond {
			heartbeat = 10 * time.Millisecond
		}
	}
	stop := make(chan struct{})
	var hb sync.WaitGroup
	hb.Add(1)
	go func() {
		defer hb.Done()
		tick := time.NewTicker(heartbeat)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				t.Send(&Msg{Version: WireVersion, Type: MsgHeartbeat, Worker: w.ID})
			}
		}
	}()
	defer func() {
		close(stop)
		hb.Wait()
	}()

	for i, c := range lease.Cells {
		if w.drained() {
			// Finish-in-flight semantics: cells already evaluated went
			// out as results; everything not yet started goes back to
			// the coordinator so another worker picks it up immediately
			// instead of waiting out the lease deadline.
			rest := append([]int(nil), lease.Cells[i:]...)
			w.logf("dispatch: worker %s draining: releasing cells %v", w.ID, rest)
			return t.Send(&Msg{Version: WireVersion, Type: MsgRelease, Worker: w.ID, Cells: rest})
		}
		cr, err := w.Eval(c)
		if err != nil {
			w.logf("dispatch: worker %s: cell %d failed: %v", w.ID, c, err)
			if serr := t.Send(&Msg{Version: WireVersion, Type: MsgFail, Worker: w.ID, Cell: c, Err: err.Error()}); serr != nil {
				return serr
			}
			continue
		}
		env := distsweep.NewCellEnvelope(w.Fingerprint, w.Cells, cr)
		if err := t.Send(&Msg{Version: WireVersion, Type: MsgResult, Worker: w.ID, Result: env}); err != nil {
			return err
		}
		w.logf("dispatch: worker %s: cell %d done", w.ID, c)
	}
	return nil
}
