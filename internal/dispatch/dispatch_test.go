package dispatch

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"exegpt/internal/distsweep"
	"exegpt/internal/experiments"
)

// fakeCellResult builds a synthetic cell result that is a function of
// the cell index, so coverage or ordering mistakes show up as value
// mismatches after the fold.
func fakeCellResult(idx int) experiments.CellResult {
	return experiments.CellResult{
		Cell: idx,
		Rows: []experiments.SweepRow{{
			Model: "OPT-13B", Cluster: "A40", GPUs: 4, Task: "S",
			Bound: 5.0 + float64(idx), System: "FT",
			Tput: 1.5 * float64(idx+1), Feasible: true,
		}},
		Evals: 10 * (idx + 1),
	}
}

// fakeReference folds the full fake grid directly — what any dispatch
// run over the same cells must reproduce byte-identically.
func fakeReference(t *testing.T, fp string, n int) []byte {
	t.Helper()
	envs := make([]*distsweep.CellEnvelope, n)
	for i := 0; i < n; i++ {
		envs[i] = distsweep.NewCellEnvelope(fp, n, fakeCellResult(i))
	}
	m, err := distsweep.MergeCells(envs)
	if err != nil {
		t.Fatal(err)
	}
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// testConfig returns fast-twitch coordinator settings for tests.
func testConfig(fp string, n int) Config {
	return Config{
		Fingerprint: fp,
		Cells:       n,
		Options: Options{
			LeaseTimeout: 150 * time.Millisecond,
			Idle:         10 * time.Second, // fail fast instead of hanging the test
		},
	}
}

// fastWorker returns a fake-eval pull worker tuned for tests.
func fastWorker(id, fp string, n int) *Worker {
	return &Worker{
		ID: id, Fingerprint: fp, Cells: n,
		Heartbeat: 20 * time.Millisecond,
		Poll:      5 * time.Millisecond,
		Idle:      10 * time.Second,
		Eval:      func(c int) (experiments.CellResult, error) { return fakeCellResult(c), nil },
	}
}

// startCoord runs the coordinator in a goroutine.
func startCoord(t Transport, cfg Config) chan struct {
	m   *distsweep.Merged
	err error
} {
	out := make(chan struct {
		m   *distsweep.Merged
		err error
	}, 1)
	go func() {
		m, err := Run(t, cfg)
		out <- struct {
			m   *distsweep.Merged
			err error
		}{m, err}
	}()
	return out
}

// takeLease drives one request → lease round by hand.
func takeLease(t *testing.T, wt WorkerTransport, id string, seq, max int) *Lease {
	t.Helper()
	if err := wt.Send(&Msg{Version: WireVersion, Type: MsgRequest, Worker: id, Seq: seq, Max: max}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		l, err := wt.RecvLease(seq, 20*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if l != nil {
			return l
		}
	}
	t.Fatal("no lease within 5s")
	return nil
}

func TestDispatchHappyPath(t *testing.T) {
	const fp, n = "fp-happy", 6
	hub := NewHub()
	res := startCoord(hub, testConfig(fp, n))
	for _, id := range []string{"w1", "w2"} {
		go fastWorker(id, fp, n).Run(hub.Worker(id))
	}
	r := <-res
	if r.err != nil {
		t.Fatal(r.err)
	}
	got, err := r.m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fakeReference(t, fp, n)) {
		t.Fatal("dispatched merge not byte-identical to the direct fold")
	}
}

// TestDispatchWorkerDiesMidLease: a worker takes a lease and vanishes —
// no results, no heartbeats. Its cells must requeue after the lease
// deadline and the surviving worker must finish the grid, with every
// cell covered exactly once.
func TestDispatchWorkerDiesMidLease(t *testing.T) {
	const fp, n = "fp-death", 5
	hub := NewHub()
	res := startCoord(hub, testConfig(fp, n))

	dead := hub.Worker("deadbeat")
	l := takeLease(t, dead, "deadbeat", 1, 2)
	if len(l.Cells) == 0 {
		t.Fatal("dead worker got no cells to abandon")
	}
	// Abandon the lease; only now start the survivor.
	go fastWorker("survivor", fp, n).Run(hub.Worker("survivor"))

	r := <-res
	if r.err != nil {
		t.Fatal(r.err)
	}
	got, err := r.m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fakeReference(t, fp, n)) {
		t.Fatal("merge after mid-lease death not byte-identical")
	}
}

// TestDispatchDuplicateResult: a worker that delivers every result
// twice (e.g. a retried send) must not break exactly-once
// coverage — the first copy wins and the fold stays byte-identical.
func TestDispatchDuplicateResult(t *testing.T) {
	const fp, n = "fp-dup", 4
	hub := NewHub()
	res := startCoord(hub, testConfig(fp, n))

	wt := hub.Worker("dup")
	go func() {
		for seq := 1; ; seq++ {
			l := func() *Lease {
				wt.Send(&Msg{Version: WireVersion, Type: MsgRequest, Worker: "dup", Seq: seq, Max: 1})
				for {
					l, _ := wt.RecvLease(seq, 20*time.Millisecond)
					if l != nil {
						return l
					}
				}
			}()
			if l.Stop {
				return
			}
			for _, c := range l.Cells {
				env := distsweep.NewCellEnvelope(fp, n, fakeCellResult(c))
				for i := 0; i < 2; i++ { // every result sent twice
					wt.Send(&Msg{Version: WireVersion, Type: MsgResult, Worker: "dup", Result: env})
				}
			}
			if len(l.Cells) == 0 {
				time.Sleep(5 * time.Millisecond)
			}
		}
	}()

	r := <-res
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.m.Cells != n {
		t.Fatalf("covered %d cells, want %d", r.m.Cells, n)
	}
	got, err := r.m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fakeReference(t, fp, n)) {
		t.Fatal("merge with duplicate results not byte-identical")
	}
}

// TestDispatchHeartbeatKeepsSlowLeaseAlive: an evaluation much slower
// than the lease timeout must survive as long as heartbeats flow. The
// lone worker is configured so that a single expiry would exclude it
// and stall the run, so completion proves the heartbeat path.
func TestDispatchHeartbeatKeepsSlowLeaseAlive(t *testing.T) {
	const fp, n = "fp-slow", 2
	hub := NewHub()
	cfg := testConfig(fp, n)
	cfg.Options.LeaseTimeout = 100 * time.Millisecond
	cfg.Options.WorkerFailures = 1
	cfg.Options.Idle = 5 * time.Second
	res := startCoord(hub, cfg)

	w := fastWorker("slow", fp, n)
	w.Heartbeat = 20 * time.Millisecond
	w.Eval = func(c int) (experiments.CellResult, error) {
		time.Sleep(300 * time.Millisecond) // 3x the lease timeout
		return fakeCellResult(c), nil
	}
	go w.Run(hub.Worker("slow"))

	r := <-res
	if r.err != nil {
		t.Fatalf("slow-but-heartbeating worker lost its lease: %v", r.err)
	}
	if r.m.Cells != n {
		t.Fatalf("covered %d cells, want %d", r.m.Cells, n)
	}
}

// TestDispatchExcludesFailingWorker: a worker whose evaluations always
// fail burns through its failure budget, gets a Stop lease, and the
// healthy worker finishes the grid.
func TestDispatchExcludesFailingWorker(t *testing.T) {
	const fp, n = "fp-excl", 5
	hub := NewHub()
	cfg := testConfig(fp, n)
	cfg.Options.WorkerFailures = 2
	cfg.Options.CellRetries = 50 // the budget under test is the worker's, not the cells'
	res := startCoord(hub, cfg)

	bad := fastWorker("bad", fp, n)
	bad.Eval = func(c int) (experiments.CellResult, error) {
		return experiments.CellResult{}, &testErr{"injected failure"}
	}
	badDone := make(chan error, 1)
	go func() { badDone <- bad.Run(hub.Worker("bad")) }()
	go fastWorker("good", fp, n).Run(hub.Worker("good"))

	r := <-res
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.m.Cells != n {
		t.Fatalf("covered %d cells, want %d", r.m.Cells, n)
	}
	// The excluded worker's pull loop must terminate via Stop.
	select {
	case err := <-badDone:
		if err != nil {
			t.Fatalf("excluded worker exited with error: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("excluded worker never received Stop")
	}
}

type testErr struct{ s string }

func (e *testErr) Error() string { return e.s }

// TestDispatchRetryBudgetAborts: a cell that fails on every attempt
// must abort the run with a budget error instead of cycling forever.
func TestDispatchRetryBudgetAborts(t *testing.T) {
	const fp, n = "fp-budget", 3
	hub := NewHub()
	cfg := testConfig(fp, n)
	cfg.Options.CellRetries = 2
	cfg.Options.WorkerFailures = 100 // keep the worker in play so the cell budget trips
	res := startCoord(hub, cfg)

	w := fastWorker("flaky", fp, n)
	w.Eval = func(c int) (experiments.CellResult, error) {
		if c == 1 {
			return experiments.CellResult{}, &testErr{"poisoned cell"}
		}
		return fakeCellResult(c), nil
	}
	go w.Run(hub.Worker("flaky"))

	r := <-res
	if r.err == nil {
		t.Fatal("run with a poisoned cell succeeded")
	}
	if !strings.Contains(r.err.Error(), "retry budget") || !strings.Contains(r.err.Error(), "poisoned cell") {
		t.Fatalf("abort error does not explain the budget or cause: %v", r.err)
	}
}

// TestDispatchRejectsForeignFingerprint: a worker launched with
// different grid flags must fail the run loudly, not merge garbage.
func TestDispatchRejectsForeignFingerprint(t *testing.T) {
	const fp, n = "fp-real", 3
	hub := NewHub()
	res := startCoord(hub, testConfig(fp, n))
	go fastWorker("drifted", "fp-other", n).Run(hub.Worker("drifted"))
	r := <-res
	if r.err == nil || !strings.Contains(r.err.Error(), "fingerprint") {
		t.Fatalf("fingerprint drift not rejected: %v", r.err)
	}
}

// TestDispatchRegrantsOnReRequest: a worker that re-requests because
// its lease reply was lost must get the same cells back under the new
// sequence number — free of charge — and the run must still complete
// with exactly-once coverage.
func TestDispatchRegrantsOnReRequest(t *testing.T) {
	const fp, n = "fp-regrant", 3
	hub := NewHub()
	res := startCoord(hub, testConfig(fp, n))

	wt := hub.Worker("lossy")
	first := takeLease(t, wt, "lossy", 1, 2)
	if len(first.Cells) == 0 {
		t.Fatal("no cells leased")
	}
	// Pretend the reply was lost: re-request instead of evaluating.
	second := takeLease(t, wt, "lossy", 2, 2)
	if len(second.Cells) != len(first.Cells) {
		t.Fatalf("re-request leased %v, want the original %v re-granted", second.Cells, first.Cells)
	}
	for i, c := range first.Cells {
		if second.Cells[i] != c {
			t.Fatalf("re-request leased %v, want %v", second.Cells, first.Cells)
		}
	}
	// Now behave: complete everything via a proper worker loop.
	go fastWorker("lossy2", fp, n).Run(hub.Worker("lossy2"))
	for _, c := range second.Cells {
		env := distsweep.NewCellEnvelope(fp, n, fakeCellResult(c))
		wt.Send(&Msg{Version: WireVersion, Type: MsgResult, Worker: "lossy", Result: env})
	}
	r := <-res
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.m.Cells != n {
		t.Fatalf("covered %d cells, want %d", r.m.Cells, n)
	}
}

// TestDispatchChargesFailuresPerLease: one bad batch — every cell of a
// 4-cell lease failing — must count as ONE worker failure, so the
// worker stays in the fleet and can finish the requeued cells. (With
// per-cell charging, this lone worker would be excluded after its
// first lease and the run would die on the idle abort.)
func TestDispatchChargesFailuresPerLease(t *testing.T) {
	const fp, n = "fp-batchfail", 4
	hub := NewHub()
	cfg := testConfig(fp, n)
	cfg.Options.WorkerFailures = 3
	cfg.Options.CellRetries = 3
	cfg.Options.Idle = 5 * time.Second
	res := startCoord(hub, cfg)

	attempted := make(map[int]bool)
	w := fastWorker("once-bad", fp, n)
	w.Batch = n // one lease covering the whole grid
	w.Eval = func(c int) (experiments.CellResult, error) {
		if !attempted[c] {
			attempted[c] = true
			return experiments.CellResult{}, &testErr{"transient batch failure"}
		}
		return fakeCellResult(c), nil
	}
	go w.Run(hub.Worker("once-bad"))

	r := <-res
	if r.err != nil {
		t.Fatalf("one bad batch excluded the only worker: %v", r.err)
	}
	if r.m.Cells != n {
		t.Fatalf("covered %d cells, want %d", r.m.Cells, n)
	}
}

// TestDispatchLeaseTimeoutDrivesHeartbeat: a worker whose configured
// heartbeat interval is far slower than the coordinator's lease timeout
// must still keep a slow evaluation alive, because leases carry the
// timeout and the worker derives a faster heartbeat from it.
func TestDispatchLeaseTimeoutDrivesHeartbeat(t *testing.T) {
	const fp, n = "fp-hbderive", 2
	hub := NewHub()
	cfg := testConfig(fp, n)
	cfg.Options.LeaseTimeout = 150 * time.Millisecond
	cfg.Options.WorkerFailures = 1 // one expiry would exclude the only worker
	cfg.Options.Idle = 5 * time.Second
	res := startCoord(hub, cfg)

	w := fastWorker("defaulted", fp, n)
	w.Heartbeat = 5 * time.Second // the library default: far too slow alone
	w.Eval = func(c int) (experiments.CellResult, error) {
		time.Sleep(400 * time.Millisecond)
		return fakeCellResult(c), nil
	}
	go w.Run(hub.Worker("defaulted"))

	r := <-res
	if r.err != nil {
		t.Fatalf("lease-derived heartbeat did not keep the lease alive: %v", r.err)
	}
	if r.m.Cells != n {
		t.Fatalf("covered %d cells, want %d", r.m.Cells, n)
	}
}

// TestOptionsDefaultsValidate: Defaults must validate, zero-valued
// fields must resolve to defaults, and negatives must be rejected.
func TestOptionsDefaultsValidate(t *testing.T) {
	if err := Defaults().Validate(); err != nil {
		t.Fatalf("Defaults() invalid: %v", err)
	}
	resolved := Options{}.withDefaults()
	d := Defaults()
	if resolved.LeaseTimeout != d.LeaseTimeout || resolved.LeaseCells != d.LeaseCells ||
		resolved.CellRetries != d.CellRetries || resolved.WorkerFailures != d.WorkerFailures {
		t.Fatalf("zero Options resolved to %+v, want defaults %+v", resolved, d)
	}
	if resolved.Idle != 0 {
		t.Fatalf("zero Idle must stay 0 (wait forever), got %v", resolved.Idle)
	}
	for _, bad := range []Options{
		{LeaseTimeout: -1}, {LeaseCells: -2}, {CellRetries: -1}, {WorkerFailures: -3}, {Idle: -1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Options %+v validated", bad)
		}
	}
}
