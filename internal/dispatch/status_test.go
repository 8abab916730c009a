package dispatch

import (
	"strings"
	"sync"
	"testing"

	"exegpt/internal/experiments"
)

// statusHub wraps the in-process hub with a StatusSink, recording the
// latest published snapshot like the HTTP transport does.
type statusHub struct {
	*Hub
	mu   sync.Mutex
	last Status
	seen int
}

func (s *statusHub) PublishStatus(st Status) {
	s.mu.Lock()
	s.last = st
	s.seen++
	s.mu.Unlock()
}

func (s *statusHub) snapshot() (Status, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last, s.seen
}

// TestStatusExplainsExclusion: when a worker burns its failure budget,
// the published status must mark it excluded and say why — including
// the worker's captured stderr tail when the spawner provides one — so
// operators see the cause on the status endpoint, not just the fact.
func TestStatusExplainsExclusion(t *testing.T) {
	const fp, n = "fp-status-excl", 4
	sh := &statusHub{Hub: NewHub()}
	cfg := testConfig(fp, n)
	cfg.Options.WorkerFailures = 1
	cfg.Options.CellRetries = 50
	cfg.StderrTail = func(w string) string {
		if w == "bad" {
			return "CUDA out of memory on device 0\n"
		}
		return ""
	}
	res := startCoord(sh, cfg)

	bad := fastWorker("bad", fp, n)
	leased := make(chan struct{})
	var once sync.Once
	bad.Eval = func(c int) (experiments.CellResult, error) {
		once.Do(func() { close(leased) })
		return experiments.CellResult{}, &testErr{"kernel panic"}
	}
	go bad.Run(sh.Worker("bad"))
	// The good worker starts only once the bad one holds a cell, so it
	// cannot finish the sweep before the bad worker is seen at all.
	go func() {
		<-leased
		fastWorker("good", fp, n).Run(sh.Worker("good"))
	}()

	r := <-res
	if r.err != nil {
		t.Fatal(r.err)
	}
	st, seen := sh.snapshot()
	if seen == 0 {
		t.Fatal("coordinator never published a status")
	}
	if st.Total != n || st.Done != n || st.Queued != 0 {
		t.Fatalf("final status %+v, want %d/%d done with empty queue", st, n, n)
	}
	var badWS *WorkerStatus
	for i := range st.Workers {
		if st.Workers[i].Worker == "bad" {
			badWS = &st.Workers[i]
		}
	}
	if badWS == nil {
		t.Fatalf("excluded worker missing from status: %+v", st.Workers)
	}
	if !badWS.Excluded || badWS.Failures < 1 {
		t.Fatalf("worker not marked excluded: %+v", badWS)
	}
	for _, want := range []string{"kernel panic", "CUDA out of memory"} {
		if !strings.Contains(badWS.LastError, want) {
			t.Errorf("exclusion reason missing %q: %q", want, badWS.LastError)
		}
	}
}

// TestStatusWorkerOrderDeterministic: worker rows are sorted by id so
// the status endpoint is stable to poll and diff.
func TestStatusWorkerOrderDeterministic(t *testing.T) {
	const fp, n = "fp-status-order", 6
	sh := &statusHub{Hub: NewHub()}
	res := startCoord(sh, testConfig(fp, n))
	for _, id := range []string{"zeta", "alpha", "mid"} {
		go fastWorker(id, fp, n).Run(sh.Worker(id))
	}
	if r := <-res; r.err != nil {
		t.Fatal(r.err)
	}
	st, _ := sh.snapshot()
	for i := 1; i < len(st.Workers); i++ {
		if st.Workers[i-1].Worker > st.Workers[i].Worker {
			t.Fatalf("workers not sorted by id: %+v", st.Workers)
		}
	}
}
