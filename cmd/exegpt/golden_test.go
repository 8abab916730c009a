package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// captureStdout runs fn with os.Stdout redirected to a temporary file
// and returns what it printed.
func captureStdout(t *testing.T, fn func() error) []byte {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	err = fn()
	os.Stdout = saved
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFiguresTablesMatchGolden pins the stdout of the full (not -quick)
// `exegpt figures` and `exegpt tables` byte for byte. Regenerate with
// `make figures-golden` (UPDATE_GOLDEN=1) only after a deliberate
// behavior change.
func TestFiguresTablesMatchGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		cmd  func([]string) error
	}{
		{"figures", cmdFigures},
		{"tables", cmdTables},
	} {
		got := captureStdout(t, func() error { return c.cmd(nil) })
		path := filepath.Join("testdata", c.name+".txt")
		if os.Getenv("UPDATE_GOLDEN") != "" {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create)", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("exegpt %s output differs from %s; regenerate it with `make figures-golden` only for a deliberate change", c.name, path)
		}
	}
}
