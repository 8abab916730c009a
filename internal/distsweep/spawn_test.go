package distsweep

import (
	"strings"
	"testing"
	"time"
)

// TestSpawnArgsPropagatesStderrTail: a failing worker's error must
// carry the tail of what it wrote to stderr, so multi-process sweep
// failures are diagnosable from the coordinator's error alone.
func TestSpawnArgsPropagatesStderrTail(t *testing.T) {
	err := SpawnArgs("/bin/sh", [][]string{
		{"-c", "exit 0"},
		{"-c", "echo worker-one-exploded >&2; exit 3"},
	})
	if err == nil {
		t.Fatal("failing worker reported no error")
	}
	if !strings.Contains(err.Error(), "worker 1") {
		t.Errorf("error does not name the failing worker: %v", err)
	}
	if !strings.Contains(err.Error(), "worker-one-exploded") {
		t.Errorf("error does not carry the worker's stderr tail: %v", err)
	}
}

// TestSpawnArgsAllWaited: every worker is waited for even when an
// earlier one fails, and each failure appears in the joined error.
func TestSpawnArgsAllWaited(t *testing.T) {
	err := SpawnArgs("/bin/sh", [][]string{
		{"-c", "echo first-bad >&2; exit 1"},
		{"-c", "echo second-bad >&2; exit 2"},
	})
	if err == nil {
		t.Fatal("no error for two failing workers")
	}
	for _, want := range []string{"first-bad", "second-bad"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error missing %q: %v", want, err)
		}
	}
}

// TestSpawnArgsStartFailure: a binary that cannot be started fails
// cleanly (the kill-already-started path runs with zero survivors when
// the first start fails).
func TestSpawnArgsStartFailure(t *testing.T) {
	if err := SpawnArgs("/nonexistent/exegpt-binary", [][]string{{"x"}}); err == nil {
		t.Fatal("starting a nonexistent binary succeeded")
	}
}

func TestTailWriterKeepsTail(t *testing.T) {
	w := &tailWriter{limit: 8}
	w.Write([]byte("0123456789abcdef"))
	if got := w.String(); got != "89abcdef" {
		t.Fatalf("tail = %q, want %q", got, "89abcdef")
	}
	w.Write([]byte("ZZ"))
	if got := w.String(); got != "abcdefZZ" {
		t.Fatalf("tail after second write = %q, want %q", got, "abcdefZZ")
	}
}

// TestFleetLiveStderrTails: a fleet's per-worker stderr tails must be
// readable by name *while the workers run* — the dispatch coordinator
// reads them mid-sweep to explain lease-failure exclusions — and an
// unknown name must read as empty rather than panic.
func TestFleetLiveStderrTails(t *testing.T) {
	fleet, err := StartFleet("/bin/sh", [][]string{
		{"-c", "echo alpha-worker-warming >&2; sleep 5"},
		{"-c", "echo beta-worker-warming >&2; sleep 5"},
	}, []string{"alpha", "beta"})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, name := range fleet.Live() {
			fleet.Kill(name)
		}
		fleet.Wait()
	}()

	deadline := time.Now().Add(5 * time.Second)
	for {
		a, b := fleet.StderrTail("alpha"), fleet.StderrTail("beta")
		if strings.Contains(a, "alpha-worker-warming") && strings.Contains(b, "beta-worker-warming") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("live tails never surfaced: alpha=%q beta=%q", a, b)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := fleet.StderrTail("nonesuch"); got != "" {
		t.Fatalf("unknown worker tail = %q, want empty", got)
	}
}

// TestFleetDynamicMembership: the supervised-fleet surface — members
// added while the fleet runs, liveness probed without blocking, killed
// members observed as crashed, names never reused.
func TestFleetDynamicMembership(t *testing.T) {
	fleet := NewFleet("/bin/sh")
	if err := fleet.Start("s0r0", []string{"-c", "sleep 5"}); err != nil {
		t.Fatal(err)
	}
	if exited, _ := fleet.Exited("s0r0"); exited {
		t.Fatal("sleeping worker reported exited")
	}
	if err := fleet.Start("s0r0", []string{"-c", "true"}); err == nil {
		t.Fatal("duplicate worker name accepted")
	}
	// A quick clean exit is observed as exited with a nil error.
	if err := fleet.Start("s1r0", []string{"-c", "exit 0"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if exited, err := fleet.Exited("s1r0"); exited {
			if err != nil {
				t.Fatalf("clean exit reported error: %v", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("clean exit never observed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// A killed worker is observed as exited with an error, promptly even
	// though the shell's forked sleep still holds the stderr pipe.
	if err := fleet.Kill("s0r0"); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(3 * time.Second)
	for {
		if exited, err := fleet.Exited("s0r0"); exited {
			if err == nil {
				t.Fatal("killed worker reported a clean exit")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("killed worker never observed exiting")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if live := fleet.Live(); len(live) != 0 {
		t.Fatalf("live = %v, want empty", live)
	}
	// An unknown worker reads as exited-with-error, not a hang.
	if exited, err := fleet.Exited("nonesuch"); !exited || err == nil {
		t.Fatalf("unknown worker: exited=%v err=%v, want exited with error", exited, err)
	}
}

// TestFleetNamesInErrors: Wait's joined error names workers by their
// given fleet names, not bare indices.
func TestFleetNamesInErrors(t *testing.T) {
	fleet, err := StartFleet("/bin/sh", [][]string{
		{"-c", "echo gpu-host-died >&2; exit 7"},
	}, []string{"host0-gpu1"})
	if err != nil {
		t.Fatal(err)
	}
	werr := fleet.Wait()
	if werr == nil {
		t.Fatal("failing fleet reported no error")
	}
	for _, want := range []string{"host0-gpu1", "gpu-host-died"} {
		if !strings.Contains(werr.Error(), want) {
			t.Errorf("fleet error missing %q: %v", want, werr)
		}
	}
}
