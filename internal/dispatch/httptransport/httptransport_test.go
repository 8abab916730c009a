package httptransport_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"exegpt/internal/dispatch"
	"exegpt/internal/dispatch/httptransport"
	"exegpt/internal/dispatch/transporttest"
	"exegpt/internal/distsweep"
	"exegpt/internal/experiments"
)

// newTestCoord serves a fresh coordinator on an httptest listener.
func newTestCoord(t *testing.T) (*httptransport.Server, *httptest.Server) {
	t.Helper()
	srv := httptransport.NewServer()
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, hs
}

func dialWorker(t *testing.T, url, id string) *httptransport.Client {
	t.Helper()
	c, err := httptransport.Dial(url, id, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestHTTPConformance runs the shared transport conformance suite over
// real TCP, with corruption modeled as a truncated POST body — the
// coordinator must 400 it and carry on.
func TestHTTPConformance(t *testing.T) {
	transporttest.Run(t, func(t *testing.T) *transporttest.Harness {
		srv, hs := newTestCoord(t)
		return &transporttest.Harness{
			Coordinator: srv,
			Worker: func(t *testing.T, id string) dispatch.WorkerTransport {
				return dialWorker(t, hs.URL, id)
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
		}
	})
}

// TestDialRejectsBadURLs: the client validates the coordinator URL up
// front, not on first use.
func TestDialRejectsBadURLs(t *testing.T) {
	for _, bad := range []string{"", "gpu1:8080", "ftp://gpu1:8080", "http://", "://x"} {
		if _, err := httptransport.Dial(bad, "w", 0); err == nil {
			t.Errorf("Dial(%q) accepted", bad)
		}
	}
	if _, err := httptransport.Dial("http://gpu1:8080", "", 0); err == nil {
		t.Error("Dial with empty worker id accepted")
	}
	if _, err := httptransport.Dial("http://gpu1:8080/", "w", 0); err != nil {
		t.Errorf("valid URL rejected: %v", err)
	}
}

// TestSendRetriesUntilCoordinatorUp: a worker attaching before the
// coordinator listens must retry with backoff and succeed once the
// server appears — the elastic-fleet attach path.
func TestSendRetriesUntilCoordinatorUp(t *testing.T) {
	var tries atomic.Int32
	srv := httptransport.NewServer()
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if tries.Add(1) <= 2 {
			http.Error(w, "warming up", http.StatusServiceUnavailable)
			return
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	defer hs.Close()

	c, err := httptransport.Dial(hs.URL, "early", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(&dispatch.Msg{Version: dispatch.WireVersion, Type: dispatch.MsgRequest,
		Worker: "early", Seq: 1, Max: 1}); err != nil {
		t.Fatalf("Send did not outlast transient 503s: %v", err)
	}
	if got := tries.Load(); got < 3 {
		t.Fatalf("Send reached the server %d times, want >= 3 (two 503s then success)", got)
	}
	if m, err := srv.Recv(time.Second); err != nil || m == nil || m.Worker != "early" {
		t.Fatalf("coordinator never received the retried message: %v %v", m, err)
	}
}

// TestSendReportsPermanentErrors: a 4xx response must fail immediately
// instead of burning the retry budget.
func TestSendReportsPermanentErrors(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "wrong protocol", http.StatusBadRequest)
	}))
	defer hs.Close()
	c, err := httptransport.Dial(hs.URL, "w", 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = c.Send(&dispatch.Msg{Type: dispatch.MsgRequest, Worker: "w", Seq: 1})
	if err == nil {
		t.Fatal("4xx-rejected message reported as sent")
	}
	if !strings.Contains(err.Error(), "wrong protocol") {
		t.Fatalf("error does not carry the coordinator's reason: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("permanent 4xx retried for %v", elapsed)
	}
}

// TestServerRejectsForeignWireVersion: frames from a differently-
// versioned build must bounce with a 400 naming the mismatch, so mixed
// fleets fail loudly. (Clients cannot emit such frames — EncodeMsg
// stamps the version — so this posts the raw bytes.)
func TestServerRejectsForeignWireVersion(t *testing.T) {
	_, hs := newTestCoord(t)
	resp, err := http.Post(hs.URL+"/v1/msg", "application/json",
		strings.NewReader(`{"version":99,"type":1,"worker":"vnext","seq":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mixed-version frame: got %s, want 400", resp.Status)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "version") {
		t.Fatalf("rejection does not name the version mismatch: %s", body)
	}
}

// TestStatusEndpoint: the status endpoint must expose queue depth and
// per-worker lease state during a run, and flip finished afterwards.
func TestStatusEndpoint(t *testing.T) {
	const fp, n = "fp-http-status", 3
	srv, hs := newTestCoord(t)

	res := make(chan error, 1)
	go func() {
		_, err := dispatch.Run(srv, dispatch.Config{
			Fingerprint: fp, Cells: n,
			Options: dispatch.Options{LeaseTimeout: time.Minute, Idle: 20 * time.Second},
		})
		res <- err
	}()

	getStatus := func() (st struct {
		dispatch.Status
		Finished bool `json:"finished"`
	}) {
		t.Helper()
		resp, err := http.Get(hs.URL + "/v1/status")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("status not JSON: %v\n%s", err, body)
		}
		return st
	}

	// Take (and hold) a lease, then look for it in the status.
	wt := dialWorker(t, hs.URL, "holder")
	wt.Send(&dispatch.Msg{Version: dispatch.WireVersion, Type: dispatch.MsgRequest,
		Worker: "holder", Seq: 1, Max: 2})
	var lease *dispatch.Lease
	deadline := time.Now().Add(10 * time.Second)
	for lease == nil && time.Now().Before(deadline) {
		l, err := wt.RecvLease(1, 100*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		lease = l
	}
	if lease == nil || len(lease.Cells) != 2 {
		t.Fatalf("no 2-cell lease granted: %+v", lease)
	}

	st := getStatus()
	if st.Finished {
		t.Fatal("status finished mid-run")
	}
	if st.Total != n || st.Queued != n-2 {
		t.Fatalf("status queue: total %d queued %d, want %d and %d", st.Total, st.Queued, n, n-2)
	}
	if len(st.Workers) != 1 || st.Workers[0].Worker != "holder" ||
		len(st.Workers[0].Cells) != 2 || st.Workers[0].DeadlineMS <= 0 {
		t.Fatalf("status workers do not show the held lease: %+v", st.Workers)
	}

	// Finish the grid and confirm the endpoint flips to finished.
	for c := 0; c < n; c++ {
		env := distsweep.NewCellEnvelope(fp, n, fakeCell(c))
		wt.Send(&dispatch.Msg{Version: dispatch.WireVersion, Type: dispatch.MsgResult,
			Worker: "holder", Result: env})
	}
	if err := <-res; err != nil {
		t.Fatal(err)
	}
	st = getStatus()
	if !st.Finished || st.Done != n {
		t.Fatalf("post-run status: finished %v done %d, want true and %d", st.Finished, st.Done, n)
	}
}

// TestDrainStops: DrainStops must hold until every active worker has
// observed Stop, and report success once it has been delivered.
func TestDrainStops(t *testing.T) {
	srv, hs := newTestCoord(t)
	wt := dialWorker(t, hs.URL, "w1")
	wt.Send(&dispatch.Msg{Version: dispatch.WireVersion, Type: dispatch.MsgRequest,
		Worker: "w1", Seq: 1, Max: 1})
	if _, err := srv.Recv(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	srv.Finish()
	if srv.DrainStops(50 * time.Millisecond) {
		t.Fatal("DrainStops reported drained before the worker polled")
	}
	l, err := wt.RecvLease(1, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if l == nil || !l.Stop {
		t.Fatalf("post-Finish poll did not return Stop: %+v", l)
	}
	if !srv.DrainStops(5 * time.Second) {
		t.Fatal("DrainStops never observed the delivered Stop")
	}
}

// httpStatus is the status endpoint's JSON shape for these tests.
type httpStatus struct {
	dispatch.Status
	Finished bool `json:"finished"`
}

func getStatus(t *testing.T, url string) httpStatus {
	t.Helper()
	resp, err := http.Get(url + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var st httpStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("status not JSON: %v\n%s", err, body)
	}
	return st
}

// TestStatusUnderChurn hammers the status endpoint while the run churns
// — leases expiring under a deadbeat, a worker failing its way to
// exclusion, honest workers finishing — and checks every snapshot holds
// the endpoint's invariants: counters within bounds, workers sorted,
// and the final state naming the excluded worker with its stderr tail.
func TestStatusUnderChurn(t *testing.T) {
	const fp, n = "fp-http-churn", 8
	srv, hs := newTestCoord(t)

	cfg := dispatch.Config{
		Fingerprint: fp, Cells: n,
		Options: dispatch.Options{
			LeaseTimeout:   150 * time.Millisecond,
			CellRetries:    50,
			WorkerFailures: 1,
			Idle:           30 * time.Second,
		},
		StderrTail: func(w string) string {
			if w == "crasher" {
				return "CUDA out of memory on device 0\n"
			}
			return ""
		},
	}
	res := make(chan error, 1)
	go func() {
		_, err := dispatch.Run(srv, cfg)
		res <- err
	}()

	// Poll the endpoint concurrently for the whole run; record the first
	// invariant violation rather than t.Fatal-ing off the test goroutine.
	var (
		pollMu    sync.Mutex
		pollErr   error
		pollStop  = make(chan struct{})
		pollEnded = make(chan struct{})
	)
	complain := func(format string, args ...any) {
		pollMu.Lock()
		if pollErr == nil {
			pollErr = fmt.Errorf(format, args...)
		}
		pollMu.Unlock()
	}
	go func() {
		defer close(pollEnded)
		for {
			select {
			case <-pollStop:
				return
			default:
			}
			resp, err := http.Get(hs.URL + "/v1/status")
			if err != nil {
				complain("status poll: %v", err)
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				complain("status poll body: %v", err)
				return
			}
			var st httpStatus
			if err := json.Unmarshal(body, &st); err != nil {
				complain("status not JSON under churn: %v\n%s", err, body)
				return
			}
			if st.Total != n || st.Done > n || st.Queued > n || st.Done < 0 || st.Queued < 0 {
				complain("status counters out of bounds: %+v", st.Status)
				return
			}
			for i := 1; i < len(st.Workers); i++ {
				if st.Workers[i-1].Worker > st.Workers[i].Worker {
					complain("workers not sorted under churn: %+v", st.Workers)
					return
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	// Churn source 1: a deadbeat takes a lease by hand and abandons it.
	dead := dialWorker(t, hs.URL, "deadbeat")
	dead.Send(&dispatch.Msg{Version: dispatch.WireVersion, Type: dispatch.MsgRequest,
		Worker: "deadbeat", Seq: 1, Max: 2})
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		l, err := dead.RecvLease(1, 100*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if l != nil {
			break
		}
	}

	// Churn source 2: a worker whose every evaluation fails.
	crasher := &dispatch.Worker{
		ID: "crasher", Fingerprint: fp, Cells: n,
		Heartbeat: 30 * time.Millisecond,
		Poll:      10 * time.Millisecond,
		Idle:      30 * time.Second,
		Eval: func(c int) (experiments.CellResult, error) {
			return experiments.CellResult{}, fmt.Errorf("kernel panic on cell %d", c)
		},
	}
	go crasher.Run(dialWorker(t, hs.URL, "crasher"))

	// The crasher fails its way to exclusion before the honest workers
	// start; otherwise they can drain the grid before it takes a lease.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		st := getStatus(t, hs.URL)
		if i := slices.IndexFunc(st.Workers, func(w dispatch.WorkerStatus) bool { return w.Worker == "crasher" }); i >= 0 && st.Workers[i].Excluded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("crasher never excluded: %+v", st.Workers)
		}
	}

	// Honest workers drain the grid through the churn.
	for _, id := range []string{"w1", "w2"} {
		w := &dispatch.Worker{
			ID: id, Fingerprint: fp, Cells: n,
			Heartbeat: 30 * time.Millisecond,
			Poll:      10 * time.Millisecond,
			Idle:      30 * time.Second,
			Eval:      func(c int) (experiments.CellResult, error) { return fakeCell(c), nil },
		}
		go w.Run(dialWorker(t, hs.URL, id))
	}

	if err := <-res; err != nil {
		t.Fatal(err)
	}
	close(pollStop)
	<-pollEnded
	pollMu.Lock()
	perr := pollErr
	pollMu.Unlock()
	if perr != nil {
		t.Fatal(perr)
	}

	st := getStatus(t, hs.URL)
	if !st.Finished || st.Done != n {
		t.Fatalf("post-churn status: finished %v done %d, want true and %d", st.Finished, st.Done, n)
	}
	var crasherWS *dispatch.WorkerStatus
	for i := range st.Workers {
		if st.Workers[i].Worker == "crasher" {
			crasherWS = &st.Workers[i]
		}
	}
	if crasherWS == nil || !crasherWS.Excluded {
		t.Fatalf("crasher not excluded in final status: %+v", st.Workers)
	}
	for _, want := range []string{"kernel panic", "CUDA out of memory"} {
		if !strings.Contains(crasherWS.LastError, want) {
			t.Errorf("exclusion reason missing %q: %q", want, crasherWS.LastError)
		}
	}
}

// fakeCell mirrors the conformance suite's synthetic cell results for
// the HTTP-specific tests.
func fakeCell(idx int) experiments.CellResult {
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
