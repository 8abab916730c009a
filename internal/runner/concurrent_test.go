package runner

import (
	"reflect"
	"sync"
	"testing"

	"exegpt/internal/hw"
	"exegpt/internal/model"
	"exegpt/internal/workload"
)

// TestConcurrentEnginesShareProfile drives several Engine instances that
// share one immutable profile Table and one request stream from
// separate goroutines, the usage pattern of the parallel sweep. Run
// under -race this pins down the audit result: per-run state is
// call-local, and the Table and the stream, which a batch run queues in
// place, are read-only.
func TestConcurrentEnginesShareProfile(t *testing.T) {
	sub, err := hw.A40Cluster.Sub(4)
	if err != nil {
		t.Fatal(err)
	}
	base := engine(t, model.OPT13B, 4, hw.A40Cluster)
	// Build inputs on the test goroutine: the t.Fatal-ing helpers must
	// not run inside workers.
	reqs := requests(t, workload.Summarization, 200, 7)
	alloc := rraAlloc(t, base, rraConfig(32, 8).TP)
	const n = 4
	results := make([]Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Each goroutine gets its own Engine sharing base.Prof.
			e, err := New(model.OPT13B, sub, base.Prof)
			if err != nil {
				errs[i] = err
				return
			}
			results[i], errs[i] = e.Run(rraConfig(32, 8), alloc, reqs)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("engine %d: %v", i, errs[i])
		}
		if results[i].Stats.Completed != 200 {
			t.Fatalf("engine %d: completed %d of 200", i, results[i].Stats.Completed)
		}
	}
	// Identical inputs must produce identical virtual-time results.
	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(results[i].Stats, results[0].Stats) {
			t.Fatalf("engine %d diverged: %+v vs %+v", i, results[i].Stats, results[0].Stats)
		}
	}
}
