package experiments

import (
	"sync"
	"testing"

	"exegpt/internal/hw"
	"exegpt/internal/model"
	"exegpt/internal/profile"
)

// TestProfileMemoSharesOneTablePerKey: concurrent profileFor calls on
// one Context for one (model, sub-cluster) key profile once and all
// return the same table (run under -race); a different key gets its
// own table.
func TestProfileMemoSharesOneTablePerKey(t *testing.T) {
	sub4, err := hw.A40Cluster.Sub(4)
	if err != nil {
		t.Fatal(err)
	}
	sub2, err := hw.A40Cluster.Sub(2)
	if err != nil {
		t.Fatal(err)
	}
	c := NewQuickContext()
	const workers = 4
	tabs := make([]*profile.Table, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tabs[i], errs[i] = c.profileFor(model.OPT13B, sub4)
		}(i)
	}
	wg.Wait()
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		if tabs[i] != tabs[0] {
			t.Fatalf("worker %d got table %p, worker 0 got %p", i, tabs[i], tabs[0])
		}
	}
	other, err := c.profileFor(model.OPT13B, sub2)
	if err != nil {
		t.Fatal(err)
	}
	if other == tabs[0] {
		t.Fatal("a different sub-cluster shared the 4-GPU table")
	}
}
