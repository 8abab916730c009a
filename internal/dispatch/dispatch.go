// Package dispatch distributes an evaluation sweep by cell-level work
// stealing: a pull-based coordinator owns the canonical SweepGrid cell
// list as a lease queue, and workers — local goroutines, forked
// processes, or processes on other hosts — repeatedly request a batch
// of cells, evaluate them, and stream back one distsweep.CellEnvelope
// per cell.
//
// The protocol is lease → heartbeat/deadline → result or requeue. A
// worker that stops heartbeating (crashed, partitioned, or just slow
// past the deadline) loses its lease and the cells requeue for the next
// requester, with a per-cell retry budget so a poisoned cell fails the
// sweep loudly instead of cycling forever, and a per-worker failure
// budget so a repeatedly-failing host is excluded from further leases.
// Because every cell is evaluated deterministically (results do not
// depend on worker counts or partition shape), duplicate results from a
// lease that was stolen and then completed anyway are identical and the
// first one wins; the folded output stays byte-identical to a
// single-process Sweep.
//
// Transports sit behind two small interfaces (Transport on the
// coordinator side, WorkerTransport on the worker side). Two ship: a
// JSON-over-HTTP transport (httptransport.NewServer /
// httptransport.Dial, framed by the versioned wire codec in wire.go)
// for worker processes attaching to a coordinator over plain TCP — on
// one box or across hosts, no shared filesystem, workers joinable and
// killable at any time — and an in-process channel hub (NewHub) for
// tests and embedded use. The transporttest subpackage is the
// conformance suite both pass, and the chaostest subpackage reruns it
// under seed-deterministic fault injection.
package dispatch

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"exegpt/internal/distsweep"
)

// WireVersion is the dispatch message format version; the wire codec
// stamps and checks it so mixed-build fleets fail loudly.
const WireVersion = 1

// MsgType identifies a worker → coordinator message.
type MsgType int

// Worker → coordinator message types.
const (
	// MsgRequest asks for a lease of up to Max cells.
	MsgRequest MsgType = iota + 1
	// MsgHeartbeat extends the deadline of the worker's current lease.
	MsgHeartbeat
	// MsgResult delivers one evaluated cell.
	MsgResult
	// MsgFail reports that one leased cell failed to evaluate.
	MsgFail
	// MsgRelease returns a lease's unevaluated cells to the queue: a
	// draining worker finishes the cell it is on, hands the rest back,
	// and exits. Voluntary, so no retry or failure budget is charged.
	MsgRelease
)

// Msg is one worker → coordinator message.
type Msg struct {
	Version int     `json:"version"`
	Type    MsgType `json:"type"`
	Worker  string  `json:"worker"`
	// Seq is the worker's request sequence number; the lease granted
	// for request n is addressed to (worker, n).
	Seq int `json:"seq,omitempty"`
	// Max is the largest cell batch the worker wants (MsgRequest).
	Max int `json:"max,omitempty"`
	// Result carries one evaluated cell (MsgResult).
	Result *distsweep.CellEnvelope `json:"result,omitempty"`
	// Cell and Err describe a failed evaluation (MsgFail).
	Cell int    `json:"cell,omitempty"`
	Err  string `json:"err,omitempty"`
	// Cells lists the unevaluated cells a draining worker hands back
	// (MsgRelease).
	Cells []int `json:"cells,omitempty"`
}

// Lease is the coordinator → worker reply to one request.
type Lease struct {
	Version int    `json:"version"`
	Worker  string `json:"worker"`
	Seq     int    `json:"seq"`
	// Cells is the leased batch. Empty with !Stop means "nothing to
	// lease right now, back off and ask again" (cells may requeue while
	// other workers' leases are outstanding).
	Cells []int `json:"cells,omitempty"`
	// TimeoutMS is the coordinator's lease timeout in milliseconds;
	// workers derive their heartbeat interval from it (a fraction of
	// it), so the two sides never need matching flags.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Stop tells the worker to exit its pull loop: the sweep is
	// complete, aborted, or the worker has been excluded.
	Stop bool `json:"stop,omitempty"`
}

// Transport is the coordinator's view of a dispatch transport.
// Coordinator methods are called from one goroutine.
type Transport interface {
	// Recv returns the next worker message, or nil after waiting up to
	// timeout with none available.
	Recv(timeout time.Duration) (*Msg, error)
	// Send delivers a lease reply to lease.Worker. It must not block on
	// a slow or vanished worker: an undeliverable lease may be dropped
	// (the worker re-requests, and the coordinator requeues on
	// deadline).
	Send(l *Lease) error
	// Finish broadcasts completion so workers still polling observe a
	// Stop and exit.
	Finish() error
}

// WorkerTransport is one worker's view of a dispatch transport. Send
// may be called concurrently (the evaluation loop and the heartbeat
// ticker share it).
type WorkerTransport interface {
	Send(m *Msg) error
	// RecvLease returns the lease replying to request seq, nil after
	// waiting up to timeout with none available, or a Stop lease once
	// the coordinator has finished.
	RecvLease(seq int, timeout time.Duration) (*Lease, error)
}

// Options collects every dispatch tuning knob in one place, threaded
// identically through the CLI and both transports (hub, HTTP). Zero-valued fields mean the Defaults() value; Validate rejects
// anything out of range.
type Options struct {
	// LeaseTimeout is how long a lease may go without a heartbeat or a
	// result before its cells requeue.
	LeaseTimeout time.Duration
	// LeaseCells is the largest cell batch a worker requests per lease.
	// 1 is the finest stealing granularity; larger batches amortize
	// round trips on high-latency transports.
	LeaseCells int
	// CellRetries is how many times one cell may be requeued (lease
	// expiry or reported failure) before the run aborts.
	CellRetries int
	// WorkerFailures is how many failed leases — expiries, exhausted
	// re-grants, or batches with at least one reported cell failure —
	// one worker may accumulate before it is excluded from further
	// leases.
	WorkerFailures int
	// Idle aborts the run when no worker message arrives for this long;
	// 0 waits forever.
	Idle time.Duration
	// RetryBase and RetryMax bound the exponential
	// backoff-with-deterministic-jitter schedule workers use for their
	// transport retries: the sleep after an empty lease, the window
	// before re-sending a request whose reply was lost, and (on the
	// HTTP transport) reconnect attempts. Each retry doubles the delay
	// from RetryBase up to RetryMax, jittered into [d/2, d].
	RetryBase time.Duration
	RetryMax  time.Duration
}

// Defaults returns the documented dispatch defaults: 60s lease timeout,
// 1-cell leases, 3 retries per cell, 3 failed leases per worker, a
// 10-minute idle abort, and worker retry backoff from 200ms to 5s.
func Defaults() Options {
	return Options{
		LeaseTimeout:   60 * time.Second,
		LeaseCells:     1,
		CellRetries:    3,
		WorkerFailures: 3,
		Idle:           10 * time.Minute,
		RetryBase:      200 * time.Millisecond,
		RetryMax:       5 * time.Second,
	}
}

// Validate rejects out-of-range knob values. Zero values are allowed
// where they mean "use the default" (withDefaults resolves them) or
// "wait forever" (Idle).
func (o Options) Validate() error {
	if o.LeaseTimeout < 0 {
		return fmt.Errorf("dispatch: lease timeout %v < 0", o.LeaseTimeout)
	}
	if o.LeaseCells < 0 {
		return fmt.Errorf("dispatch: lease batch %d < 0 cells", o.LeaseCells)
	}
	if o.CellRetries < 0 {
		return fmt.Errorf("dispatch: cell retry budget %d < 0", o.CellRetries)
	}
	if o.WorkerFailures < 0 {
		return fmt.Errorf("dispatch: worker failure budget %d < 0", o.WorkerFailures)
	}
	if o.Idle < 0 {
		return fmt.Errorf("dispatch: idle deadline %v < 0", o.Idle)
	}
	if o.RetryBase < 0 {
		return fmt.Errorf("dispatch: retry backoff base %v < 0", o.RetryBase)
	}
	if o.RetryMax < 0 {
		return fmt.Errorf("dispatch: retry backoff cap %v < 0", o.RetryMax)
	}
	if o.RetryBase > 0 && o.RetryMax > 0 && o.RetryMax < o.RetryBase {
		return fmt.Errorf("dispatch: retry backoff cap %v below base %v", o.RetryMax, o.RetryBase)
	}
	return nil
}

// withDefaults resolves zero-valued fields to their Defaults() values.
// Idle stays as given: 0 legitimately means "wait forever".
func (o Options) withDefaults() Options {
	d := Defaults()
	if o.LeaseTimeout == 0 {
		o.LeaseTimeout = d.LeaseTimeout
	}
	if o.LeaseCells == 0 {
		o.LeaseCells = d.LeaseCells
	}
	if o.CellRetries == 0 {
		o.CellRetries = d.CellRetries
	}
	if o.WorkerFailures == 0 {
		o.WorkerFailures = d.WorkerFailures
	}
	if o.RetryBase == 0 {
		o.RetryBase = d.RetryBase
	}
	if o.RetryMax == 0 {
		o.RetryMax = d.RetryMax
	}
	return o
}

// Config parameterizes a coordinator run.
type Config struct {
	// Fingerprint is the grid fingerprint every result must carry
	// (experiments.Context.GridFingerprint).
	Fingerprint string
	// Cells is the grid's total cell count; the run completes when
	// cells 0..Cells-1 are each covered exactly once.
	Cells int
	// Options are the lease/retry/idle knobs; zero-valued fields take
	// the Defaults() values.
	Options Options
	// Logf, when non-nil, receives progress and failure-handling notes.
	Logf func(format string, args ...any)
	// StderrTail, when non-nil, maps a worker id to the tail of its
	// captured stderr. It is attached to exclusion events so status
	// reports say *why* a host was excluded, not just that it was.
	StderrTail func(worker string) string
}

// Status is a point-in-time snapshot of a coordinator run, published to
// transports that implement StatusSink (the HTTP transport serves it on
// its status endpoint).
type Status struct {
	// Total, Done and Queued describe the cell queue: grid size, cells
	// folded so far, and the current queue depth (cells waiting for a
	// lease; cells inside outstanding leases are in neither).
	Total  int `json:"total"`
	Done   int `json:"done"`
	Queued int `json:"queued"`
	// UptimeMS is how long this coordinator process has been running.
	UptimeMS int64 `json:"uptime_ms,omitempty"`
	// Workers lists every worker the coordinator has heard from, in
	// worker-id order.
	Workers []WorkerStatus `json:"workers,omitempty"`
}

// WorkerStatus is one worker's lease state inside a Status snapshot.
type WorkerStatus struct {
	Worker string `json:"worker"`
	// Cells is the worker's outstanding lease, ascending; empty when
	// the worker holds no lease.
	Cells []int `json:"cells,omitempty"`
	// DeadlineMS is how many milliseconds remain until the outstanding
	// lease expires; 0 without a lease.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// LeaseAgeMS is how long the outstanding lease has been held since
	// it was first granted (re-grants and heartbeats extend the
	// deadline, not the age); 0 without a lease.
	LeaseAgeMS int64 `json:"lease_age_ms,omitempty"`
	// Failures counts the worker's failed leases against the
	// WorkerFailures budget; Excluded is set once the budget is spent.
	Failures int  `json:"failures,omitempty"`
	Excluded bool `json:"excluded,omitempty"`
	// LastError is the most recent reason a lease of this worker's
	// failed (an evaluation error, a lease expiry), with the worker's
	// captured stderr tail attached when available.
	LastError string `json:"last_error,omitempty"`
}

// StatusSink is implemented by transports that surface coordinator
// state to operators; Run publishes a fresh Status after every handled
// message and expiry sweep.
type StatusSink interface {
	PublishStatus(Status)
}

func (c *Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// leaseState is one outstanding lease.
type leaseState struct {
	cells    map[int]bool
	deadline time.Time
	// granted is when the lease was first handed out; heartbeats and
	// re-grants move the deadline but not this, so status lease ages
	// reflect real holding time.
	granted time.Time
	// regrants counts how many times the same worker re-requested while
	// this lease was outstanding and had its remaining cells re-granted
	// (a lost lease reply on a slow transport). Bounded: past the limit
	// the re-request is treated as a failed lease instead, so a
	// crash-looping worker cannot pin its cells forever.
	regrants int
	// failed records that this lease already charged the worker's
	// failure budget (the budget is per lease, not per cell, so one bad
	// batch is one failure).
	failed bool
}

// Run drives a dispatch coordinator over the transport until every cell
// is covered exactly once, then folds the results into the merged sweep
// — byte-identical to a single-process Sweep over the same grid. On
// return (success or failure) the transport is finished, so workers
// observe Stop and exit.
func Run(t Transport, cfg Config) (*distsweep.Merged, error) {
	if cfg.Cells < 1 {
		return nil, fmt.Errorf("dispatch: grid has %d cells", cfg.Cells)
	}
	if cfg.Fingerprint == "" {
		return nil, fmt.Errorf("dispatch: missing grid fingerprint")
	}
	if err := cfg.Options.Validate(); err != nil {
		return nil, err
	}
	opts := cfg.Options.withDefaults()
	defer t.Finish()

	pending := make([]int, cfg.Cells)
	for i := range pending {
		pending[i] = i
	}
	leases := map[string]*leaseState{}
	done := map[int]*distsweep.CellEnvelope{}
	retries := map[int]int{}
	failures := map[string]int{}
	excluded := map[string]bool{}
	lastErr := map[string]string{}
	seen := map[string]bool{}
	started := time.Now()
	lastActivity := started

	sink, _ := t.(StatusSink)
	publish := func() {
		if sink == nil {
			return
		}
		s := Status{Total: cfg.Cells, Done: len(done), Queued: len(pending),
			UptimeMS: time.Since(started).Milliseconds()}
		ids := make([]string, 0, len(seen))
		for w := range seen {
			ids = append(ids, w)
		}
		sort.Strings(ids)
		now := time.Now()
		for _, w := range ids {
			ws := WorkerStatus{
				Worker:    w,
				Failures:  failures[w],
				Excluded:  excluded[w],
				LastError: lastErr[w],
			}
			if ls, ok := leases[w]; ok {
				for c := range ls.cells {
					ws.Cells = append(ws.Cells, c)
				}
				sort.Ints(ws.Cells)
				if rem := ls.deadline.Sub(now).Milliseconds(); rem > 0 {
					ws.DeadlineMS = rem
				}
				ws.LeaseAgeMS = now.Sub(ls.granted).Milliseconds()
			}
			s.Workers = append(s.Workers, ws)
		}
		sink.PublishStatus(s)
	}

	inPending := func(c int) bool {
		for _, p := range pending {
			if p == c {
				return true
			}
		}
		return false
	}
	dropPending := func(c int) {
		for i, p := range pending {
			if p == c {
				pending = append(pending[:i], pending[i+1:]...)
				return
			}
		}
	}
	// markFailure charges one failed lease to a worker, records why, and
	// excludes the worker once over budget — attaching its captured
	// stderr tail (when a spawner provides one) so the exclusion event
	// explains itself.
	markFailure := func(w, why string) {
		failures[w]++
		if cfg.StderrTail != nil {
			if tail := cfg.StderrTail(w); tail != "" {
				why = fmt.Sprintf("%s; stderr tail:\n%s", why, strings.TrimRight(tail, "\n"))
			}
		}
		lastErr[w] = why
		if failures[w] >= opts.WorkerFailures && !excluded[w] {
			excluded[w] = true
			cfg.logf("dispatch: excluding worker %s after %d failed leases, last: %s", w, failures[w], why)
		}
	}
	// requeueCell puts one unfinished cell back on the queue, enforcing
	// the retry budget. A cell another worker already completed (a
	// stolen lease that raced its original holder) needs no requeue.
	requeueCell := func(c int, why string) error {
		if _, ok := done[c]; ok {
			return nil
		}
		retries[c]++
		if retries[c] > opts.CellRetries {
			return fmt.Errorf("dispatch: cell %d exceeded its retry budget (%d attempts): %s", c, retries[c], why)
		}
		if !inPending(c) {
			pending = append(pending, c)
		}
		return nil
	}
	// releaseLease requeues everything a dead or superseded lease still
	// held, in ascending cell order for reproducible logs.
	releaseLease := func(w string, ls *leaseState, why string) error {
		cells := make([]int, 0, len(ls.cells))
		for c := range ls.cells {
			cells = append(cells, c)
		}
		sort.Ints(cells)
		delete(leases, w)
		markFailure(w, why)
		for _, c := range cells {
			if err := requeueCell(c, why); err != nil {
				return err
			}
		}
		if len(cells) > 0 {
			cfg.logf("dispatch: requeued cells %v from worker %s (%s)", cells, w, why)
		}
		return nil
	}
	poll := opts.LeaseTimeout / 4
	if poll > time.Second {
		poll = time.Second
	}
	if poll < time.Millisecond {
		poll = time.Millisecond
	}

	publish()
	for len(done) < cfg.Cells {
		now := time.Now()
		for w, ls := range leases {
			if now.After(ls.deadline) {
				if err := releaseLease(w, ls, fmt.Sprintf("lease expired after %v without heartbeat", opts.LeaseTimeout)); err != nil {
					return nil, err
				}
				publish()
			}
		}

		m, err := t.Recv(poll)
		if err != nil {
			return nil, err
		}
		if m == nil {
			if opts.Idle > 0 && time.Since(lastActivity) > opts.Idle {
				return nil, fmt.Errorf("dispatch: no worker activity for %v (%d of %d cells done)",
					opts.Idle, len(done), cfg.Cells)
			}
			continue
		}
		lastActivity = time.Now()
		w := m.Worker
		if w == "" {
			cfg.logf("dispatch: dropping message with empty worker id")
			continue
		}
		seen[w] = true

		switch m.Type {
		case MsgRequest:
			if ls, ok := leases[w]; ok && len(ls.cells) > 0 {
				// A new request while a lease is outstanding: most
				// likely the lease reply was lost or delayed in transit
				// (a dropped connection), so re-grant the remaining cells
				// under the new sequence number — free of charge, since
				// evaluation is deterministic and duplicates are deduped
				// anyway. A worker that keeps re-requesting without ever
				// completing (a crash loop) exhausts the re-grant
				// allowance and is treated as a failed lease, so its
				// cells go back to the rest of the fleet.
				if ls.regrants < 2 && !excluded[w] {
					ls.regrants++
					ls.deadline = time.Now().Add(opts.LeaseTimeout)
					cells := make([]int, 0, len(ls.cells))
					for c := range ls.cells {
						cells = append(cells, c)
					}
					sort.Ints(cells)
					cfg.logf("dispatch: re-granting cells %v to worker %s (re-request %d)", cells, w, ls.regrants)
					if err := t.Send(&Lease{Version: WireVersion, Worker: w, Seq: m.Seq,
						Cells: cells, TimeoutMS: opts.LeaseTimeout.Milliseconds()}); err != nil {
						return nil, err
					}
					publish()
					continue
				}
				if err := releaseLease(w, ls, "superseded by a new request from the same worker"); err != nil {
					return nil, err
				}
			} else if ok {
				delete(leases, w)
			}
			if excluded[w] {
				if err := t.Send(&Lease{Version: WireVersion, Worker: w, Seq: m.Seq, Stop: true}); err != nil {
					return nil, err
				}
				continue
			}
			take := m.Max
			if take < 1 {
				take = 1
			}
			if take > len(pending) {
				take = len(pending)
			}
			l := &Lease{Version: WireVersion, Worker: w, Seq: m.Seq}
			if take > 0 {
				l.Cells = append([]int(nil), pending[:take]...)
				l.TimeoutMS = opts.LeaseTimeout.Milliseconds()
				pending = pending[take:]
				leases[w] = &leaseState{
					cells:    make(map[int]bool, len(l.Cells)),
					deadline: time.Now().Add(opts.LeaseTimeout),
					granted:  time.Now(),
				}
				for _, c := range l.Cells {
					leases[w].cells[c] = true
				}
			}
			if err := t.Send(l); err != nil {
				return nil, err
			}
			publish()

		case MsgHeartbeat:
			if ls, ok := leases[w]; ok {
				ls.deadline = time.Now().Add(opts.LeaseTimeout)
			}
			publish()

		case MsgResult:
			env := m.Result
			if env == nil {
				cfg.logf("dispatch: dropping empty result from worker %s", w)
				continue
			}
			if env.Fingerprint != cfg.Fingerprint {
				return nil, fmt.Errorf("dispatch: worker %s evaluated a different grid: fingerprint %.12s… vs coordinator %.12s… (flag drift between coordinator and workers?)",
					w, env.Fingerprint, cfg.Fingerprint)
			}
			if env.Total != cfg.Cells {
				return nil, fmt.Errorf("dispatch: worker %s sees a %d-cell grid, coordinator has %d", w, env.Total, cfg.Cells)
			}
			c := env.Result.Cell
			if c < 0 || c >= cfg.Cells {
				return nil, fmt.Errorf("dispatch: worker %s returned out-of-range cell %d", w, c)
			}
			if _, dup := done[c]; dup {
				// A stolen lease completed anyway: evaluation is
				// deterministic, so the copies are identical and the
				// first one stands.
				cfg.logf("dispatch: duplicate result for cell %d from worker %s ignored", c, w)
			} else {
				done[c] = env
				dropPending(c)
				cfg.logf("dispatch: cell %d done (%d/%d) by worker %s", c, len(done), cfg.Cells, w)
			}
			if ls, ok := leases[w]; ok {
				delete(ls.cells, c)
				ls.deadline = time.Now().Add(opts.LeaseTimeout)
				if len(ls.cells) == 0 {
					delete(leases, w)
				}
			}
			publish()

		case MsgFail:
			c := m.Cell
			cfg.logf("dispatch: worker %s failed cell %d: %s", w, c, m.Err)
			why := fmt.Sprintf("cell %d failed: %s", c, m.Err)
			// The worker-failure budget is per lease: one bad batch (a
			// transiently broken environment failing every cell of it)
			// counts as one failure, not len(batch) of them.
			if ls, ok := leases[w]; ok {
				delete(ls.cells, c)
				if !ls.failed {
					ls.failed = true
					markFailure(w, why)
				} else {
					lastErr[w] = why
				}
				if len(ls.cells) == 0 {
					delete(leases, w)
				}
			} else {
				markFailure(w, why)
			}
			if _, ok := done[c]; !ok && c >= 0 && c < cfg.Cells {
				if err := requeueCell(c, m.Err); err != nil {
					return nil, err
				}
			}
			publish()

		case MsgRelease:
			// A draining worker hands back the cells it will not
			// evaluate. The release is voluntary, so neither the cell
			// retry budget nor the worker failure budget is charged —
			// the cells go straight back on the queue.
			released := make([]int, 0, len(m.Cells))
			ls, held := leases[w]
			for _, c := range m.Cells {
				if c < 0 || c >= cfg.Cells {
					continue
				}
				if held {
					delete(ls.cells, c)
				}
				if _, ok := done[c]; ok {
					continue
				}
				if !inPending(c) {
					pending = append(pending, c)
					released = append(released, c)
				}
			}
			if held && len(ls.cells) == 0 {
				delete(leases, w)
			}
			if len(released) > 0 {
				sort.Ints(released)
				cfg.logf("dispatch: worker %s released cells %v back to the queue", w, released)
			}
			publish()

		default:
			cfg.logf("dispatch: dropping message of unknown type %d from worker %s", m.Type, w)
		}
	}

	publish()
	envs := make([]*distsweep.CellEnvelope, 0, cfg.Cells)
	for i := 0; i < cfg.Cells; i++ {
		envs = append(envs, done[i])
	}
	return distsweep.MergeCells(envs)
}
