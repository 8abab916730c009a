// Package transporttest is the conformance suite every dispatch
// transport must pass: the lease-grant, expiry-requeue,
// duplicate-result and stop-propagation scenarios, each pinned to the
// byte-identical fold the single-process sweep produces. A transport
// earns its place by calling Run with a Harness factory; protocol drift
// then fails here, named by scenario, instead of as a flaky sweep.
package transporttest

import (
	"bytes"
	"testing"
	"time"

	"exegpt/internal/dispatch"
	"exegpt/internal/distsweep"
	"exegpt/internal/experiments"
)

// Harness is one transport instance under test: a coordinator side and
// a way to attach named workers to it.
type Harness struct {
	// Coordinator is the transport's coordinator side, ready for
	// dispatch.Run.
	Coordinator dispatch.Transport
	// Worker attaches the named worker to the same transport instance.
	Worker func(t *testing.T, id string) dispatch.WorkerTransport
}

// Run executes the conformance scenarios, building a fresh harness (a
// fresh coordinator) for each.
func Run(t *testing.T, factory func(t *testing.T) *Harness) {
	t.Run("GrantAndResult", func(t *testing.T) { testGrantAndResult(t, factory(t)) })
	t.Run("ExpiredLeaseRequeues", func(t *testing.T) { testExpiredLeaseRequeues(t, factory(t)) })
	t.Run("DuplicateResults", func(t *testing.T) { testDuplicateResults(t, factory(t)) })
	t.Run("StopPropagation", func(t *testing.T) { testStopPropagation(t, factory(t)) })
}

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

// reference folds the full fake grid directly — what any dispatch run
// over the same cells must reproduce byte-identically.
func reference(t *testing.T, fp string, n int) []byte {
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

// config returns fast-twitch coordinator settings for the scenarios.
func config(fp string, n int) dispatch.Config {
	return dispatch.Config{
		Fingerprint: fp,
		Cells:       n,
		Options: dispatch.Options{
			LeaseTimeout: 250 * time.Millisecond,
			Idle:         20 * time.Second, // fail fast instead of hanging the test
		},
	}
}

// pullWorker returns a fake-eval pull worker tuned for the scenarios.
func pullWorker(id, fp string, n int) *dispatch.Worker {
	return &dispatch.Worker{
		ID: id, Fingerprint: fp, Cells: n,
		Heartbeat: 30 * time.Millisecond,
		Poll:      10 * time.Millisecond,
		Idle:      20 * time.Second,
		Eval:      func(c int) (experiments.CellResult, error) { return fakeCellResult(c), nil },
	}
}

type runResult struct {
	m   *distsweep.Merged
	err error
}

// startCoord runs the coordinator in a goroutine.
func startCoord(ct dispatch.Transport, cfg dispatch.Config) chan runResult {
	out := make(chan runResult, 1)
	go func() {
		m, err := dispatch.Run(ct, cfg)
		out <- runResult{m, err}
	}()
	return out
}

// takeLease drives one request → lease round by hand, re-sending the
// request after a second of silence as a real pull worker would.
func takeLease(t *testing.T, wt dispatch.WorkerTransport, id string, seq, max int) *dispatch.Lease {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if err := wt.Send(&dispatch.Msg{Version: dispatch.WireVersion, Type: dispatch.MsgRequest,
			Worker: id, Seq: seq, Max: max}); err != nil {
			t.Fatal(err)
		}
		for end := time.Now().Add(time.Second); time.Now().Before(end); {
			l, err := wt.RecvLease(seq, 50*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if l != nil {
				return l
			}
		}
	}
	t.Fatal("no lease within 10s")
	return nil
}

// requireIdentical pins a successful run to the reference fold.
func requireIdentical(t *testing.T, r runResult, fp string, n int) {
	t.Helper()
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
	if !bytes.Equal(got, reference(t, fp, n)) {
		t.Fatal("dispatched merge not byte-identical to the direct fold")
	}
}

// testGrantAndResult: two honest pull workers drain the grid; the fold
// is byte-identical to the direct one.
func testGrantAndResult(t *testing.T, h *Harness) {
	const fp, n = "fp-tt-grant", 6
	res := startCoord(h.Coordinator, config(fp, n))
	for _, id := range []string{"w1", "w2"} {
		go pullWorker(id, fp, n).Run(h.Worker(t, id))
	}
	requireIdentical(t, <-res, fp, n)
}

// testExpiredLeaseRequeues: a worker takes a lease and vanishes — no
// results, no heartbeats. Its cells must requeue after the deadline and
// a late-attaching survivor must finish the grid exactly once.
func testExpiredLeaseRequeues(t *testing.T, h *Harness) {
	const fp, n = "fp-tt-expiry", 5
	res := startCoord(h.Coordinator, config(fp, n))

	dead := h.Worker(t, "deadbeat")
	l := takeLease(t, dead, "deadbeat", 1, 2)
	if len(l.Cells) == 0 {
		t.Fatal("dead worker got no cells to abandon")
	}
	// Abandon the lease; only now attach the survivor.
	go pullWorker("survivor", fp, n).Run(h.Worker(t, "survivor"))
	requireIdentical(t, <-res, fp, n)
}

// testDuplicateResults: a worker that delivers every result twice (a
// retried post, a stolen-then-completed lease) must not break
// exactly-once coverage — the first copy wins.
func testDuplicateResults(t *testing.T, h *Harness) {
	const fp, n = "fp-tt-dup", 4
	res := startCoord(h.Coordinator, config(fp, n))

	wt := h.Worker(t, "dup")
	go func() {
		for seq := 1; ; seq++ {
			// Re-send the request after a second of silence, as a
			// real pull worker would.
			var l *dispatch.Lease
			for l == nil {
				wt.Send(&dispatch.Msg{Version: dispatch.WireVersion, Type: dispatch.MsgRequest,
					Worker: "dup", Seq: seq, Max: 1})
				for tries := 0; l == nil && tries < 20; tries++ {
					l, _ = wt.RecvLease(seq, 50*time.Millisecond)
				}
			}
			if l.Stop {
				return
			}
			for _, c := range l.Cells {
				env := distsweep.NewCellEnvelope(fp, n, fakeCellResult(c))
				for i := 0; i < 2; i++ { // every result sent twice
					wt.Send(&dispatch.Msg{Version: dispatch.WireVersion, Type: dispatch.MsgResult,
						Worker: "dup", Result: env})
				}
			}
			if len(l.Cells) == 0 {
				time.Sleep(10 * time.Millisecond)
			}
		}
	}()
	requireIdentical(t, <-res, fp, n)
}

// testStopPropagation: workers in their pull loop must observe Stop and
// exit once the run completes, and a worker attaching *after* the run
// finished must be told to stop rather than wait forever.
func testStopPropagation(t *testing.T, h *Harness) {
	const fp, n = "fp-tt-stop", 3
	res := startCoord(h.Coordinator, config(fp, n))

	w := pullWorker("w1", fp, n)
	wDone := make(chan error, 1)
	go func() { wDone <- w.Run(h.Worker(t, "w1")) }()

	requireIdentical(t, <-res, fp, n)
	select {
	case err := <-wDone:
		if err != nil {
			t.Fatalf("worker exited with error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker never observed Stop after the run completed")
	}

	// A straggler attaching post-completion gets a Stop lease, not a hang.
	late := h.Worker(t, "late")
	late.Send(&dispatch.Msg{Version: dispatch.WireVersion, Type: dispatch.MsgRequest,
		Worker: "late", Seq: 1, Max: 1})
	deadline := time.Now().Add(10 * time.Second)
	for {
		l, err := late.RecvLease(1, 100*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if l != nil {
			if !l.Stop {
				t.Fatalf("late worker got a live lease %v after completion, want Stop", l.Cells)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("late worker never received Stop")
		}
	}
}
