package experiments

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"exegpt/internal/hw"
	"exegpt/internal/model"
	"exegpt/internal/profile"
)

// TestProfileCacheRoundTrip: the first context profiles and saves; a
// fresh context loads the saved table and serves bit-identical lookups.
func TestProfileCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sub, err := hw.A40Cluster.Sub(4)
	if err != nil {
		t.Fatal(err)
	}

	c1 := NewQuickContext()
	c1.ProfileCacheDir = dir
	tab1, err := c1.profileFor(model.OPT13B, sub)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("want 1 cache file, got %d", len(entries))
	}
	path := filepath.Join(dir, entries[0].Name())

	// A fresh context must load the cached table, not re-profile. Prove
	// the load by checking the file is read: replace the cache with a
	// modified-but-valid table and observe the loaded values change.
	c2 := NewQuickContext()
	c2.ProfileCacheDir = dir
	tab2, err := c2.profileFor(model.OPT13B, sub)
	if err != nil {
		t.Fatal(err)
	}
	a, err := tab1.DecodeLayer(37, 211, 4, profile.IntraNode)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tab2.DecodeLayer(37, 211, 4, profile.IntraNode)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("cached table lookup diverged: %v vs %v", a, b)
	}

	// Tamper: scale one grid value; a context reading the cache must
	// see the tampered number (i.e. it really loaded from disk).
	tampered, err := profile.Decode(mustRead(t, path))
	if err != nil {
		t.Fatal(err)
	}
	tampered.DecRest[0][0] *= 3
	data, err := tampered.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	c3 := NewQuickContext()
	c3.ProfileCacheDir = dir
	tab3, err := c3.profileFor(model.OPT13B, sub)
	if err != nil {
		t.Fatal(err)
	}
	if tab3.DecRest[0][0] != tampered.DecRest[0][0] {
		t.Fatal("context did not load the on-disk table")
	}
}

// TestProfileCacheIgnoresCorruptAndMismatched: garbage, malformed or
// wrong-model cache files are treated as misses and overwritten.
func TestProfileCacheIgnoresCorruptAndMismatched(t *testing.T) {
	dir := t.TempDir()
	sub, err := hw.A40Cluster.Sub(4)
	if err != nil {
		t.Fatal(err)
	}
	c := NewQuickContext()
	c.ProfileCacheDir = dir
	path := c.profileCachePath(model.OPT13B, sub)
	if path == "" {
		t.Fatal("cache path should be set")
	}
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	tab, err := c.profileFor(model.OPT13B, sub)
	if err != nil {
		t.Fatal(err)
	}
	if tab.ModelName != model.OPT13B.Name {
		t.Fatalf("model name %q", tab.ModelName)
	}
	// The corrupt file must have been replaced with a valid table.
	back, err := profile.Decode(mustRead(t, path))
	if err != nil {
		t.Fatalf("cache not repaired: %v", err)
	}
	if back.ModelName != model.OPT13B.Name {
		t.Fatalf("repaired cache holds %q", back.ModelName)
	}

	// A well-formed JSON table with empty dec_attn rows is a miss too,
	// not a panic on the first decode-attention lookup.
	bad := *back
	bad.DecAttn = [][][]float64{}
	for range back.TPDegrees {
		bad.DecAttn = append(bad.DecAttn, make([][]float64, len(back.BatchGrid)))
	}
	data, err := bad.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	c1 := NewQuickContext()
	c1.ProfileCacheDir = dir
	tab1, err := c1.profileFor(model.OPT13B, sub)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab1.DecodeAttn(16, 300, 4); err != nil {
		t.Fatal(err)
	}

	// A valid table for a different model is also a miss.
	other := NewQuickContext()
	sub8, err := hw.A40Cluster.Sub(8)
	if err != nil {
		t.Fatal(err)
	}
	otherTab, err := other.profileFor(model.T511B, sub8)
	if err != nil {
		t.Fatal(err)
	}
	data, err = otherTab.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	c2 := NewQuickContext()
	c2.ProfileCacheDir = dir
	tab2, err := c2.profileFor(model.OPT13B, sub)
	if err != nil {
		t.Fatal(err)
	}
	if tab2.ModelName != model.OPT13B.Name {
		t.Fatalf("mismatched cache served: %q", tab2.ModelName)
	}
}

// TestProfileCacheOffByDefault: no directory, no files written.
func TestProfileCacheOffByDefault(t *testing.T) {
	c := NewQuickContext()
	sub, err := hw.A40Cluster.Sub(4)
	if err != nil {
		t.Fatal(err)
	}
	if p := c.profileCachePath(model.OPT13B, sub); p != "" {
		t.Fatalf("cache path %q without a cache dir", p)
	}
}

// TestProfileCacheConcurrentSharedDir: independent contexts — the
// in-process analog of sweep worker processes on one box — profiling the
// same key into one shared cache directory concurrently must be
// race-free (run under -race), produce identical tables, and leave
// exactly one complete cache file behind (saveProfile writes via
// temp-file + rename, so a racing reader never sees a torn file).
func TestProfileCacheConcurrentSharedDir(t *testing.T) {
	dir := t.TempDir()
	sub, err := hw.A40Cluster.Sub(4)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	tabs := make([]*profile.Table, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := NewQuickContext()
			c.ProfileCacheDir = dir
			tabs[i], errs[i] = c.profileFor(model.OPT13B, sub)
		}(i)
	}
	wg.Wait()
	// Depending on timing each worker either profiled fresh or loaded
	// another worker's cache file; either way the tables must agree.
	// Compare encoded forms: profiling is deterministic and Encode is
	// stable across a decode round trip.
	enc := make([][]byte, workers)
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		if enc[i], err = tabs[i].Encode(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(enc[i], enc[0]) {
			t.Fatalf("worker %d produced a different table", i)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("want exactly 1 cache file (no temp leftovers), got %v", names)
	}
	// The surviving file is a complete, valid table for the key.
	back, err := profile.Decode(mustRead(t, filepath.Join(dir, entries[0].Name())))
	if err != nil {
		t.Fatalf("cache file torn or invalid: %v", err)
	}
	if back.ModelName != model.OPT13B.Name {
		t.Fatalf("cache file holds %q", back.ModelName)
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
