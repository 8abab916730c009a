package dispatch

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"exegpt/internal/experiments"
)

// TestWorkerDrainReleasesLease: a worker whose Drain fires mid-lease
// must finish the cell it is on, hand the rest of the lease back with
// MsgRelease, and exit nil. The lease timeout is set far beyond the
// test's runtime, so the released cells can only reach the other
// worker through the release path — a broken release would stall the
// run, not quietly pass.
func TestWorkerDrainReleasesLease(t *testing.T) {
	const fp, n = "fp-drain", 8
	hub := NewHub()
	cfg := testConfig(fp, n)
	cfg.Options.LeaseTimeout = time.Minute
	cfg.Options.LeaseCells = 4
	res := startCoord(hub, cfg)
	start := time.Now()

	drain := make(chan struct{})
	started := make(chan struct{})
	var evals int32
	w1 := fastWorker("w1", fp, n)
	w1.Batch = 4
	w1.Drain = drain
	inner := w1.Eval
	// The first evaluation blocks until drain fires, so the drain
	// provably lands mid-lease with three cells still unstarted.
	w1.Eval = func(c int) (experiments.CellResult, error) {
		if atomic.AddInt32(&evals, 1) == 1 {
			close(started)
			<-drain
		}
		return inner(c)
	}
	w1done := make(chan error, 1)
	go func() { w1done <- w1.Run(hub.Worker("w1")) }()

	<-started
	close(drain)
	go fastWorker("w2", fp, n).Run(hub.Worker("w2"))

	select {
	case err := <-w1done:
		if err != nil {
			t.Fatalf("drained worker exited with %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drained worker never exited")
	}
	if got := atomic.LoadInt32(&evals); got != 1 {
		t.Fatalf("drained worker evaluated %d cells, want exactly its in-flight 1", got)
	}

	r := <-res
	if r.err != nil {
		t.Fatal(r.err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("run took %v — released cells waited out the lease timeout instead of requeueing", elapsed)
	}
	got, err := r.m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fakeReference(t, fp, n)) {
		t.Fatal("drained run not byte-identical to the direct fold")
	}
}

// TestReleaseRequeuesWithoutCharge: MsgRelease must requeue the
// returned cells immediately (not after the lease deadline) and charge
// no failure budget — a voluntary return is not a failure.
func TestReleaseRequeuesWithoutCharge(t *testing.T) {
	const fp, n = "fp-release", 6
	hub := &statusHub{Hub: NewHub()}
	cfg := testConfig(fp, n)
	cfg.Options.LeaseTimeout = time.Minute
	cfg.Options.LeaseCells = 3
	res := startCoord(hub, cfg)
	start := time.Now()

	wt := hub.Worker("w1")
	l := takeLease(t, wt, "w1", 1, 3)
	if len(l.Cells) != 3 {
		t.Fatalf("lease granted %v, want 3 cells", l.Cells)
	}
	if err := wt.Send(&Msg{Version: WireVersion, Type: MsgRelease, Worker: "w1", Cells: l.Cells}); err != nil {
		t.Fatal(err)
	}

	go fastWorker("w2", fp, n).Run(hub.Worker("w2"))
	r := <-res
	if r.err != nil {
		t.Fatal(r.err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("run took %v — released cells waited out the lease timeout", elapsed)
	}
	got, err := r.m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fakeReference(t, fp, n)) {
		t.Fatal("release run not byte-identical to the direct fold")
	}
	st, seen := hub.snapshot()
	if seen == 0 {
		t.Fatal("no status published")
	}
	for _, ws := range st.Workers {
		if ws.Worker == "w1" && (ws.Failures != 0 || ws.Excluded) {
			t.Fatalf("voluntary release charged budgets: %+v", ws)
		}
	}
}
