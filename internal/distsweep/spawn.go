// Local process spawning: the -spawn convenience mode of `exegpt
// sweep`, which forks one worker process per shard on this machine so a
// sharded sweep runs end to end on one box, and the generalized Fleet /
// SpawnArgs used by the dispatch CLI to fork or ssh-launch pull
// workers. Fleet keeps each worker's stderr tail readable *while the
// fleet runs*, so the dispatch coordinator can attach a dying worker's
// last words to its lease-failure exclusion events instead of only
// surfacing them after the whole fleet exits.
package distsweep

import (
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// stderrTailLimit bounds how much of a worker's stderr is retained for
// error reporting.
const stderrTailLimit = 4096

// workerWaitDelay bounds how long a worker's exit waits for its output
// pipes to close. A worker's descendants inherit those pipes (a shell
// that forks its command, an ssh-launched worker's remote session), so
// without a bound the exit of a killed worker is not observed until its
// orphans exit too.
const workerWaitDelay = 250 * time.Millisecond

// tailWriter retains the last tail of everything written through it.
// Safe for concurrent Write/String: the worker process streams into it
// while the coordinator reads it for status reports.
type tailWriter struct {
	mu    sync.Mutex
	buf   []byte
	limit int
}

func (w *tailWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf = append(w.buf, p...)
	if len(w.buf) > w.limit {
		w.buf = append(w.buf[:0], w.buf[len(w.buf)-w.limit:]...)
	}
	return len(p), nil
}

func (w *tailWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return string(w.buf)
}

// SpawnLocal forks one worker process per shard — `bin baseArgs...
// -shards N -shard-index i -out outDir/shard_i.json` — waits for all of
// them, and returns the shard envelope paths in index order.
func SpawnLocal(bin string, baseArgs []string, shards int, outDir string) ([]string, error) {
	if shards < 1 {
		return nil, fmt.Errorf("distsweep: shard count %d < 1", shards)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	paths := make([]string, shards)
	argvs := make([][]string, shards)
	for i := 0; i < shards; i++ {
		paths[i] = filepath.Join(outDir, fmt.Sprintf("shard_%d.json", i))
		argvs[i] = append(append([]string(nil), baseArgs...),
			"-shards", strconv.Itoa(shards),
			"-shard-index", strconv.Itoa(i),
			"-out", paths[i])
	}
	if err := SpawnArgs(bin, argvs); err != nil {
		return nil, err
	}
	return paths, nil
}

// proc is one started worker process. A reaper goroutine records its
// exit status and closes done, so liveness queries never block.
type proc struct {
	cmd  *exec.Cmd
	tail *tailWriter
	done chan struct{}
	err  error // cmd.Wait result; written before done closes
}

// Fleet is a dynamic set of started worker processes: members can be
// added (Start), probed (Exited), and killed (Kill) while the fleet
// runs — the shape a fleet supervisor needs to replace crashed workers
// and scale the fleet mid-sweep. Their stderr tails are readable by
// name while they run; Wait joins the exit statuses of everything ever
// started. Safe for concurrent use.
type Fleet struct {
	bin string

	mu    sync.Mutex
	procs map[string]*proc
	order []string
}

// NewFleet returns an empty fleet forking the given worker binary.
func NewFleet(bin string) *Fleet {
	return &Fleet{bin: bin, procs: map[string]*proc{}}
}

// Start forks one `bin argv...` worker under the given name. Names are
// forever: a name stays attached to its (possibly exited) process, so
// a supervisor replacing a crashed worker starts the replacement under
// a fresh incarnation name instead of reusing the old one. Worker
// output goes to this process's stderr (tee'd into the tail buffer).
func (f *Fleet) Start(name string, argv []string) error {
	if name == "" {
		return fmt.Errorf("distsweep: worker needs a name")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.procs[name]; dup {
		return fmt.Errorf("distsweep: worker %s already started", name)
	}
	tail := &tailWriter{limit: stderrTailLimit}
	cmd := exec.Command(f.bin, argv...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = io.MultiWriter(os.Stderr, tail)
	cmd.WaitDelay = workerWaitDelay
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("distsweep: start worker %s: %w", name, err)
	}
	p := &proc{cmd: cmd, tail: tail, done: make(chan struct{})}
	f.procs[name] = p
	f.order = append(f.order, name)
	go func() {
		p.err = cmd.Wait()
		if errors.Is(p.err, exec.ErrWaitDelay) {
			// The worker itself exited cleanly; only orphans held its pipes.
			p.err = nil
		}
		close(p.done)
	}()
	return nil
}

// Exited reports whether the named worker's process has exited, and
// with what error (nil for a clean exit). An unknown name reports
// exited with an explanatory error, so a supervisor that somehow lost
// track of a worker replaces it instead of waiting forever.
func (f *Fleet) Exited(name string) (bool, error) {
	f.mu.Lock()
	p := f.procs[name]
	f.mu.Unlock()
	if p == nil {
		return true, fmt.Errorf("distsweep: unknown worker %s", name)
	}
	select {
	case <-p.done:
		return true, p.err
	default:
		return false, nil
	}
}

// Kill forcibly terminates the named worker's process. The exit is
// observed through Exited like any crash.
func (f *Fleet) Kill(name string) error {
	f.mu.Lock()
	p := f.procs[name]
	f.mu.Unlock()
	if p == nil {
		return fmt.Errorf("distsweep: unknown worker %s", name)
	}
	return p.cmd.Process.Kill()
}

// Live returns the names of workers whose processes have not exited
// yet, in start order.
func (f *Fleet) Live() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	var live []string
	for _, name := range f.order {
		select {
		case <-f.procs[name].done:
		default:
			live = append(live, name)
		}
	}
	return live
}

// StartFleet builds a fleet and forks one `bin argv...` process per
// argument vector. names[i] labels worker i in errors and StderrTail
// lookups; a nil or short names slice falls back to the worker's
// index. If a later fork fails, the already-started workers are killed
// and waited for rather than leaked.
func StartFleet(bin string, argvs [][]string, names []string) (*Fleet, error) {
	f := NewFleet(bin)
	for i, argv := range argvs {
		name := strconv.Itoa(i)
		if i < len(names) && names[i] != "" {
			name = names[i]
		}
		if err := f.Start(name, argv); err != nil {
			f.mu.Lock()
			started := append([]string(nil), f.order...)
			f.mu.Unlock()
			for _, running := range started {
				f.Kill(running)
			}
			f.Wait()
			return nil, err
		}
	}
	return f, nil
}

// StderrTail returns the current tail of the named worker's stderr
// (empty for unknown names). Safe to call while the fleet runs.
func (f *Fleet) StderrTail(name string) string {
	f.mu.Lock()
	p := f.procs[name]
	f.mu.Unlock()
	if p == nil {
		return ""
	}
	return p.tail.String()
}

// Wait waits for every worker ever started. The returned error joins
// every failure in start order, each carrying the tail of that
// worker's stderr.
func (f *Fleet) Wait() error {
	f.mu.Lock()
	names := append([]string(nil), f.order...)
	f.mu.Unlock()
	var errs []error
	for _, name := range names {
		f.mu.Lock()
		p := f.procs[name]
		f.mu.Unlock()
		<-p.done
		if p.err != nil {
			if tail := p.tail.String(); tail != "" {
				errs = append(errs, fmt.Errorf("distsweep: worker %s: %w; stderr tail:\n%s", name, p.err, tail))
			} else {
				errs = append(errs, fmt.Errorf("distsweep: worker %s: %w", name, p.err))
			}
		}
	}
	return errors.Join(errs...)
}

// SpawnArgs forks one `bin argv...` process per argument vector and
// waits for all of them.
func SpawnArgs(bin string, argvs [][]string) error {
	f, err := StartFleet(bin, argvs, nil)
	if err != nil {
		return err
	}
	return f.Wait()
}
