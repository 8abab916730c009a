package chaostest_test

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"exegpt/internal/dispatch"
	"exegpt/internal/dispatch/chaostest"
	"exegpt/internal/dispatch/httptransport"
	"exegpt/internal/dispatch/journal"
	"exegpt/internal/dispatch/transporttest"
	"exegpt/internal/distsweep"
	"exegpt/internal/experiments"
)

// chaosFaults is the conformance fault profile: gentle enough that the
// scenarios converge quickly, harsh enough that drops, duplicates and
// reorderings all fire many times per run.
func chaosFaults(seed int64) chaostest.Faults {
	return chaostest.Faults{
		Seed: seed, Drop: 0.08, Dup: 0.15, Delay: 0.2,
		MaxDelay: 40 * time.Millisecond,
	}
}

// relax raises the retry and failure budgets: injected faults must
// exercise the requeue/dedup recovery machinery, not trip the abort
// paths pinned by the non-chaos tests.
func relax(o *dispatch.Options) {
	o.CellRetries = 200
	o.WorkerFailures = 200
}

// TestHubConformanceUnderChaos runs the transport conformance suite
// against the in-process hub with every send subject to drop/dup/delay.
func TestHubConformanceUnderChaos(t *testing.T) {
	transporttest.Run(t, func(t *testing.T) *transporttest.Harness {
		hub := dispatch.NewHub()
		inj := chaostest.NewInjector(chaosFaults(1))
		return &transporttest.Harness{
			Coordinator: chaostest.Coordinator(hub, inj),
			Worker: func(t *testing.T, id string) dispatch.WorkerTransport {
				return chaostest.Worker(hub.Worker(id), inj)
			},
			Tune: relax,
		}
	})
}

// TestSpoolConformanceUnderChaos: the file spool under the same chaos,
// keeping its torn-inbox-frame corruption scenario.
func TestSpoolConformanceUnderChaos(t *testing.T) {
	transporttest.Run(t, func(t *testing.T) *transporttest.Harness {
		spool, err := dispatch.NewSpool(filepath.Join(t.TempDir(), "spool"))
		if err != nil {
			t.Fatal(err)
		}
		ct, err := spool.Coordinator()
		if err != nil {
			t.Fatal(err)
		}
		inj := chaostest.NewInjector(chaosFaults(2))
		return &transporttest.Harness{
			Coordinator: chaostest.Coordinator(ct, inj),
			Worker: func(t *testing.T, id string) dispatch.WorkerTransport {
				wt, err := spool.Worker(id)
				if err != nil {
					t.Fatal(err)
				}
				return chaostest.Worker(wt, inj)
			},
			Corrupt: func() error {
				torn := []byte(`{"version":1,"type":3,"worker":"torn","resu`)
				return os.WriteFile(
					filepath.Join(spool.Root(), "inbox", "m_torn_000000000001.json"),
					torn, 0o644)
			},
			Tune: relax,
		}
	})
}

// TestHTTPConformanceUnderChaos: the HTTP transport over real TCP under
// the same chaos, keeping its truncated-POST corruption scenario.
func TestHTTPConformanceUnderChaos(t *testing.T) {
	transporttest.Run(t, func(t *testing.T) *transporttest.Harness {
		srv := httptransport.NewServer()
		hs := httptest.NewServer(srv.Handler())
		t.Cleanup(hs.Close)
		inj := chaostest.NewInjector(chaosFaults(3))
		return &transporttest.Harness{
			Coordinator: chaostest.Coordinator(srv, inj),
			Worker: func(t *testing.T, id string) dispatch.WorkerTransport {
				c, err := httptransport.Dial(hs.URL, id, 10*time.Second)
				if err != nil {
					t.Fatal(err)
				}
				return chaostest.Worker(c, inj)
			},
			Corrupt: func() error {
				resp, err := http.Post(hs.URL+"/v1/msg", "application/json",
					strings.NewReader(`{"version":1,"type":3,"worker":"torn","resu`))
				if err != nil {
					return err
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusBadRequest {
					return fmt.Errorf("truncated frame accepted: %s", resp.Status)
				}
				return nil
			},
			Tune: relax,
		}
	})
}

// ---- kill-resume equivalence under chaos ----

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

func chaosConfig(fp string, n int) dispatch.Config {
	return dispatch.Config{
		Fingerprint: fp,
		Cells:       n,
		Options: dispatch.Options{
			LeaseTimeout:   300 * time.Millisecond,
			CellRetries:    200,
			WorkerFailures: 200,
			Idle:           30 * time.Second,
		},
	}
}

type runResult struct {
	m   *distsweep.Merged
	err error
}

func startCoord(ct dispatch.Transport, cfg dispatch.Config) chan runResult {
	out := make(chan runResult, 1)
	go func() {
		m, err := dispatch.Run(ct, cfg)
		out <- runResult{m, err}
	}()
	return out
}

// startWorker runs an honest worker for the rest of the test. Its
// cleanup drains the worker and waits for it, so a worker that outlives
// its coordinator stops writing into the test's temporary directories
// before they are removed.
func startWorker(t *testing.T, id, fp string, n int, wt dispatch.WorkerTransport) {
	drain, done := make(chan struct{}), make(chan struct{})
	w := &dispatch.Worker{
		ID: id, Fingerprint: fp, Cells: n,
		Heartbeat: 30 * time.Millisecond,
		Poll:      10 * time.Millisecond,
		Idle:      30 * time.Second,
		Drain:     drain,
		Eval:      func(c int) (experiments.CellResult, error) { return fakeCellResult(c), nil },
	}
	go func() {
		defer close(done)
		w.Run(wt)
	}()
	t.Cleanup(func() {
		close(drain)
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Logf("worker %s still running after drain", id)
		}
	})
}

// takeLease requests one lease by hand, re-sending through injected
// drops, so a deadbeat can grab cells and abandon them.
func takeLease(t *testing.T, wt dispatch.WorkerTransport, id string) *dispatch.Lease {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if err := wt.Send(&dispatch.Msg{Version: dispatch.WireVersion, Type: dispatch.MsgRequest,
			Worker: id, Seq: 1, Max: 2}); err != nil {
			t.Fatal(err)
		}
		for end := time.Now().Add(time.Second); time.Now().Before(end); {
			l, err := wt.RecvLease(1, 50*time.Millisecond)
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

// phase builds one coordinator lifetime of a transport: its coordinator
// side and a way to attach workers. Each phase of a kill-resume run
// gets a fresh one (a restarted coordinator process), except the spool,
// where the directory — like a real spool — survives the crash.
type phase struct {
	coord  dispatch.Transport
	attach func(t *testing.T, id string) dispatch.WorkerTransport
}

func hubPhase(t *testing.T) *phase {
	hub := dispatch.NewHub()
	return &phase{
		coord: hub,
		attach: func(t *testing.T, id string) dispatch.WorkerTransport {
			return hub.Worker(id)
		},
	}
}

func spoolPhases(t *testing.T) func(t *testing.T) *phase {
	root := filepath.Join(t.TempDir(), "spool")
	return func(t *testing.T) *phase {
		spool, err := dispatch.NewSpool(root)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := spool.Coordinator()
		if err != nil {
			t.Fatal(err)
		}
		return &phase{
			coord: ct,
			attach: func(t *testing.T, id string) dispatch.WorkerTransport {
				wt, err := spool.Worker(id)
				if err != nil {
					t.Fatal(err)
				}
				return wt
			},
		}
	}
}

func httpPhase(t *testing.T) *phase {
	srv := httptransport.NewServer()
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return &phase{
		coord: srv,
		attach: func(t *testing.T, id string) dispatch.WorkerTransport {
			c, err := httptransport.Dial(hs.URL, id, 10*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			return c
		},
	}
}

// testKillResume is the tentpole equivalence scenario: under message
// chaos, a worker dies with a lease, the coordinator is killed at a
// journal kill-point (before or after the record is durable), the
// journal optionally loses its tail to a torn write — and a restarted
// coordinator over a fresh transport must finish the grid with a merge
// byte-identical to the uninterrupted single-process fold.
func testKillResume(t *testing.T, newPhase func(t *testing.T) *phase,
	seed int64, beforeWrite, tearTail bool) {

	const fp, n = "fp-chaos-resume", 8
	dir := t.TempDir()
	j, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.WriteHeader(journal.Header{Fingerprint: fp, Cells: n}); err != nil {
		t.Fatal(err)
	}
	inj := chaostest.NewInjector(chaosFaults(seed))

	// Phase 1: a deadbeat takes a lease and dies; an honest worker
	// grinds through the grid until the injected crash at the third
	// accepted result.
	p1 := newPhase(t)
	crash := &chaostest.CrashJournal{Inner: j, Appends: 2, BeforeWrite: beforeWrite}
	cfg1 := chaosConfig(fp, n)
	cfg1.Journal = crash
	res1 := startCoord(chaostest.Coordinator(p1.coord, inj), cfg1)

	dead := p1.attach(t, "deadbeat")
	if l := takeLease(t, chaostest.Worker(dead, inj), "deadbeat"); len(l.Cells) == 0 {
		t.Fatal("deadbeat got no cells to abandon")
	}
	startWorker(t, "w1", fp, n, chaostest.Worker(p1.attach(t, "w1"), inj))

	r1 := <-res1
	if !errors.Is(r1.err, chaostest.ErrCrash) {
		t.Fatalf("phase 1 ended with %v, want the injected crash", r1.err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	if tearTail {
		// The machine died mid-write: the journal's last record is torn.
		path := filepath.Join(dir, journal.FileName)
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, fi.Size()-5); err != nil {
			t.Fatal(err)
		}
	}

	// Phase 2: reopen the journal, replay it into a fresh coordinator
	// over a fresh transport, and let a new worker finish the grid.
	j2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	recovered := len(j2.Cells())
	want := 2
	if !beforeWrite && !tearTail {
		want = 3 // the crashing append was durable
	}
	if recovered != want {
		t.Fatalf("journal recovered %d cells, want %d (beforeWrite=%v tearTail=%v)",
			recovered, want, beforeWrite, tearTail)
	}

	p2 := newPhase(t)
	cfg2 := chaosConfig(fp, n)
	cfg2.Journal = j2
	cfg2.Completed = j2.Cells()
	cfg2.Exclusions = j2.Exclusions()
	res2 := startCoord(chaostest.Coordinator(p2.coord, inj), cfg2)
	startWorker(t, "w2", fp, n, chaostest.Worker(p2.attach(t, "w2"), inj))

	r2 := <-res2
	if r2.err != nil {
		t.Fatalf("phase 2: %v", r2.err)
	}
	got, err := r2.m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, reference(t, fp, n)) {
		t.Fatal("kill-resume merge not byte-identical to the direct fold")
	}
}

func TestKillResumeHub(t *testing.T) {
	testKillResume(t, hubPhase, 11, false, false)
}

func TestKillResumeSpool(t *testing.T) {
	testKillResume(t, spoolPhases(t), 12, false, false)
}

func TestKillResumeHTTP(t *testing.T) {
	testKillResume(t, httpPhase, 13, false, false)
}

func TestKillResumeBeforeWriteSpool(t *testing.T) {
	testKillResume(t, spoolPhases(t), 14, true, false)
}

func TestKillResumeTornTailHTTP(t *testing.T) {
	testKillResume(t, httpPhase, 15, false, true)
}

func TestKillResumeTornTailSpool(t *testing.T) {
	testKillResume(t, spoolPhases(t), 16, false, true)
}
