// Supervised-fleet chaos: the supervisor reconciliation loop driving
// an in-process worker fleet through seed-deterministic kill schedules
// over every transport. The fleet's "processes" are real
// dispatch.Worker pull loops whose transports die on schedule, so a
// kill looks exactly like a crashed worker process: the in-flight
// result is lost, the lease times out, and the supervisor sees a
// non-nil exit. One slot runs a poisoned binary (dies before
// delivering anything, every incarnation); it must be declared
// poisoned after exactly MaxRestarts replacements — with backoff
// between them — while the healthy slots churn, get replaced, and
// still produce a merge byte-identical to the single-process fold.
package chaostest_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"exegpt/internal/dispatch"
	"exegpt/internal/dispatch/chaostest"
	"exegpt/internal/dispatch/httptransport"
	"exegpt/internal/dispatch/journal"
	"exegpt/internal/dispatch/supervisor"
	"exegpt/internal/experiments"
)

// errKilled is what a scheduled kill looks like from the worker's Run
// loop: its transport starts failing, as if the process were shot.
var errKilled = errors.New("killed by chaos schedule mid-lease")

// deathTransport wraps a worker transport with a kill budget: after
// `budget` delivered results, the next result send — and everything
// after it — fails, so the worker dies with that result lost in
// flight (evaluated but never accounted). budget < 0 is immortal;
// budget 0 dies on its very first result, the poisoned-binary shape.
type deathTransport struct {
	inner  dispatch.WorkerTransport
	mu     sync.Mutex
	budget int
	dead   bool
}

func (d *deathTransport) kill() {
	d.mu.Lock()
	d.dead = true
	d.mu.Unlock()
}

func (d *deathTransport) Send(m *dispatch.Msg) error {
	d.mu.Lock()
	if !d.dead && d.budget >= 0 && m.Type == dispatch.MsgResult {
		if d.budget == 0 {
			d.dead = true
		} else {
			d.budget--
		}
	}
	dead := d.dead
	d.mu.Unlock()
	if dead {
		return errKilled
	}
	return d.inner.Send(m)
}

func (d *deathTransport) RecvLease(seq int, timeout time.Duration) (*dispatch.Lease, error) {
	d.mu.Lock()
	dead := d.dead
	d.mu.Unlock()
	if dead {
		return nil, errKilled
	}
	return d.inner.RecvLease(seq, timeout)
}

// parseWorker splits an incarnation id "s2r3" into its slot ("s2") and
// generation (3).
func parseWorker(t *testing.T, id string) (string, int) {
	t.Helper()
	i := strings.LastIndexByte(id, 'r')
	if i < 0 {
		t.Fatalf("worker id %q has no slot/generation shape", id)
	}
	gen, err := strconv.Atoi(id[i+1:])
	if err != nil {
		t.Fatalf("worker id %q has no slot/generation shape: %v", id, err)
	}
	return id[:i], gen
}

// chaosProc is one spawned in-process "worker process".
type chaosProc struct {
	dt      *deathTransport
	done    chan struct{}
	err     error
	started time.Time
}

// chaosFleet implements supervisor.Ops with goroutine workers instead
// of processes, so the whole churn scenario runs under -race in one
// binary.
type chaosFleet struct {
	t      *testing.T
	attach func(t *testing.T, id string) dispatch.WorkerTransport
	inj    *chaostest.Injector // optional message chaos under the kill wrapper
	fp     string
	n      int
	// killAfter maps (slot, generation) to a result budget for the
	// incarnation's deathTransport; < 0 means immortal.
	killAfter func(slot string, gen int) int
	// eval evaluates one cell for one incarnation.
	eval func(id string, cell int) (experiments.CellResult, error)

	mu    sync.Mutex
	procs map[string]*chaosProc
	order []string
}

func (f *chaosFleet) Spawn(id string) error {
	slot, gen := parseWorker(f.t, id)
	inner := f.attach(f.t, id)
	if f.inj != nil {
		inner = chaostest.Worker(inner, f.inj)
	}
	dt := &deathTransport{inner: inner, budget: f.killAfter(slot, gen)}
	p := &chaosProc{dt: dt, done: make(chan struct{}), started: time.Now()}
	f.mu.Lock()
	if f.procs == nil {
		f.procs = map[string]*chaosProc{}
	}
	if _, dup := f.procs[id]; dup {
		f.mu.Unlock()
		return fmt.Errorf("chaosFleet: worker %s spawned twice", id)
	}
	f.procs[id] = p
	f.order = append(f.order, id)
	f.mu.Unlock()
	w := &dispatch.Worker{
		ID: id, Fingerprint: f.fp, Cells: f.n,
		Heartbeat: 30 * time.Millisecond,
		Poll:      10 * time.Millisecond,
		Idle:      30 * time.Second,
		Eval:      func(c int) (experiments.CellResult, error) { return f.eval(id, c) },
	}
	go func() {
		p.err = w.Run(dt)
		close(p.done)
	}()
	return nil
}

func (f *chaosFleet) Exited(id string) (bool, error) {
	f.mu.Lock()
	p := f.procs[id]
	f.mu.Unlock()
	if p == nil {
		return true, fmt.Errorf("chaosFleet: unknown worker %s", id)
	}
	select {
	case <-p.done:
		return true, p.err
	default:
		return false, nil
	}
}

func (f *chaosFleet) Kill(id string) error {
	f.mu.Lock()
	p := f.procs[id]
	f.mu.Unlock()
	if p == nil {
		return fmt.Errorf("chaosFleet: unknown worker %s", id)
	}
	p.dt.kill()
	return nil
}

// killAll shoots every worker ever spawned; waitAll then joins their
// goroutines so nothing outlives the test.
func (f *chaosFleet) killAll() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, p := range f.procs {
		p.dt.kill()
	}
}

func (f *chaosFleet) waitAll(t *testing.T) {
	t.Helper()
	f.mu.Lock()
	procs := make([]*chaosProc, 0, len(f.procs))
	for _, p := range f.procs {
		procs = append(procs, p)
	}
	f.mu.Unlock()
	deadline := time.After(10 * time.Second)
	for _, p := range procs {
		select {
		case <-p.done:
		case <-deadline:
			t.Fatal("worker goroutines still running 10s after killAll")
		}
	}
}

// spawnsOf returns the incarnation ids spawned for one slot, in spawn
// order, with their start times.
func (f *chaosFleet) spawnsOf(slot string) (ids []string, at []time.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, id := range f.order {
		if strings.HasPrefix(id, slot+"r") {
			ids = append(ids, id)
			at = append(at, f.procs[id].started)
		}
	}
	return ids, at
}

// startSupervisor runs sup in a goroutine and returns a stop func
// (idempotent) plus the result channel.
func startSupervisor(sup *supervisor.Supervisor) (func(), chan error) {
	stop := make(chan struct{})
	var once sync.Once
	res := make(chan error, 1)
	go func() { res <- sup.Run(stop) }()
	return func() { once.Do(func() { close(stop) }) }, res
}

// testSupervisedChurn is the tentpole chaos scenario: a supervised
// fleet scales from 1 slot to 3 under queue depth; slot s1 is poisoned
// (its workers die before delivering a single result, every
// incarnation) and must be declared after exactly MaxRestarts capped,
// backed-off replacements; slots s0 and s2 each lose their first two
// incarnations on a seed-drawn schedule and get replaced. The merged
// artifact must still be byte-identical to the single-process fold.
func testSupervisedChurn(t *testing.T, newPhase func(t *testing.T) *phase, seed int64) {
	const fp = "fp-chaos-supervised"
	const n = 24
	const gated = 4 // tail cells held back until the poisoned verdict lands
	const maxRestarts = 4

	p := newPhase(t)
	inj := chaostest.NewInjector(chaostest.Faults{
		Seed: seed, Drop: 0.05, Dup: 0.1, Delay: 0.15,
		MaxDelay: 20 * time.Millisecond,
	})
	ks := chaostest.NewKillSchedule(seed, 3)

	ctrl := dispatch.NewController()
	cfg := chaosConfig(fp, n)
	cfg.Controller = ctrl

	// poisonedCh closes once the coordinator's status feed carries the
	// poisoned verdict for slot s1. The last `gated` cells block on it
	// (for everyone but s1's own workers), so the sweep cannot outrun
	// the poisoning no matter how the goroutines schedule: a fast fleet
	// parks on the tail cells while s1 burns its restart budget.
	poisonedCh := make(chan struct{})
	monitorStop := make(chan struct{})
	monitorDone := make(chan struct{})
	go func() {
		defer close(monitorDone)
		for {
			if st, ok := ctrl.Status(); ok {
				for _, r := range st.Restarts {
					if r.Slot == "s1" && r.Poisoned {
						close(poisonedCh)
						return
					}
				}
			}
			select {
			case <-monitorStop:
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
	}()
	defer func() {
		close(monitorStop)
		<-monitorDone
	}()

	killAfter := func(slot string, gen int) int {
		switch {
		case slot == "s1":
			return 0 // the broken binary: every incarnation dies before its first result
		case gen >= 2:
			return -1 // third incarnations live to the end
		default:
			return ks.Draw() // healthy slots churn on the seeded schedule
		}
	}
	fleet := &chaosFleet{
		t: t, attach: p.attach, inj: inj, fp: fp, n: n,
		killAfter: killAfter,
		eval: func(id string, cell int) (experiments.CellResult, error) {
			time.Sleep(30 * time.Millisecond)
			if slot, _ := parseWorker(t, id); cell >= n-gated && slot != "s1" {
				select {
				case <-poisonedCh:
				case <-time.After(20 * time.Second):
					return experiments.CellResult{}, fmt.Errorf("gate: slot s1 was never poisoned")
				}
			}
			return fakeCellResult(cell), nil
		},
	}

	sup, err := supervisor.New(supervisor.Config{
		Control:     ctrl,
		Fleet:       fleet,
		Min:         1,
		Max:         3,
		MaxRestarts: maxRestarts,
		Interval:    5 * time.Millisecond,
		IdleGrace:   30 * time.Second, // no scale-down noise mid-churn
		DrainGrace:  2 * time.Second,
		BackoffBase: 20 * time.Millisecond,
		BackoffMax:  60 * time.Millisecond,
		Seed:        seed,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	supStop, supRes := startSupervisor(sup)

	res := startCoord(chaostest.Coordinator(p.coord, inj), cfg)
	r := <-res

	// The supervisor self-finishes when the status feed shows the sweep
	// done; give it a moment, then force the issue so a missed final
	// publish can't hang the test.
	var supErr error
	select {
	case supErr = <-supRes:
	case <-time.After(5 * time.Second):
		supStop()
		supErr = <-supRes
	}
	fleet.killAll()
	fleet.waitAll(t)

	if r.err != nil {
		t.Fatalf("supervised sweep: %v", r.err)
	}
	if supErr != nil {
		t.Fatalf("supervisor: %v", supErr)
	}
	got, err := r.m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, reference(t, fp, n)) {
		t.Fatal("supervised-churn merge not byte-identical to the direct fold")
	}

	// The poisoned verdict reached the status feed with the full ledger.
	st, ok := ctrl.Status()
	if !ok {
		t.Fatal("no status published")
	}
	var s1 *dispatch.WorkerRestart
	for i, rr := range st.Restarts {
		switch rr.Slot {
		case "s1":
			s1 = &st.Restarts[i]
		default:
			if rr.Poisoned {
				t.Fatalf("healthy slot %s declared poisoned: %+v", rr.Slot, rr)
			}
			if rr.Restarts > maxRestarts {
				t.Fatalf("slot %s burned %d restarts, cap is %d", rr.Slot, rr.Restarts, maxRestarts)
			}
		}
	}
	if s1 == nil {
		t.Fatalf("no restart record for poisoned slot s1 in status: %+v", st.Restarts)
	}
	if !s1.Poisoned || s1.Restarts != maxRestarts {
		t.Fatalf("slot s1 record = %+v, want poisoned at exactly %d restarts", s1, maxRestarts)
	}

	// The restart cap held: exactly the initial spawn plus MaxRestarts
	// replacements, no resurrection after the verdict.
	ids, at := fleet.spawnsOf("s1")
	if len(ids) != maxRestarts+1 {
		t.Fatalf("poisoned slot s1 spawned %d incarnations (%v), want %d", len(ids), ids, maxRestarts+1)
	}
	if last := ids[len(ids)-1]; s1.Worker != last {
		t.Fatalf("poison record names worker %s, last incarnation was %s", s1.Worker, last)
	}
	// Backoff between replacements: consecutive spawns must be at least
	// the jitter floor (base/2) apart.
	for i := 1; i < len(at); i++ {
		if gap := at[i].Sub(at[i-1]); gap < 10*time.Millisecond {
			t.Fatalf("s1 respawn %d came %v after its predecessor, want >= 10ms of backoff", i, gap)
		}
	}

	// Queue depth scaled the fleet up to Max: slot s2 exists.
	if ids, _ := fleet.spawnsOf("s2"); len(ids) == 0 {
		t.Fatal("fleet never scaled up to slot s2 despite queue depth")
	}
}

func TestSupervisedChurnHub(t *testing.T) {
	testSupervisedChurn(t, hubPhase, 21)
}

func TestSupervisedChurnSpool(t *testing.T) {
	testSupervisedChurn(t, spoolPhases(t), 22)
}

func TestSupervisedChurnHTTP(t *testing.T) {
	testSupervisedChurn(t, httpPhase, 23)
}

// TestSupervisedKillResumeHub crashes the coordinator (journal
// kill-point) while a supervisor is mid-churn, then resumes both from
// the journal: the restart ledger survives, the resumed supervisor
// continues slot s0 at its pre-crash generation instead of resetting
// the count, and the final merge is byte-identical.
func TestSupervisedKillResumeHub(t *testing.T) {
	const fp = "fp-chaos-sup-resume"
	const n = 10
	const seed = 31
	dir := t.TempDir()
	j, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.WriteHeader(journal.Header{Fingerprint: fp, Cells: n}); err != nil {
		t.Fatal(err)
	}

	eval := func(id string, cell int) (experiments.CellResult, error) {
		time.Sleep(20 * time.Millisecond)
		return fakeCellResult(cell), nil
	}
	newSup := func(ctrl *dispatch.Controller, fleet *chaosFleet, seeded []dispatch.WorkerRestart) *supervisor.Supervisor {
		sup, err := supervisor.New(supervisor.Config{
			Control:     ctrl,
			Fleet:       fleet,
			Min:         1,
			Max:         1,
			MaxRestarts: 3,
			Interval:    5 * time.Millisecond,
			IdleGrace:   30 * time.Second,
			DrainGrace:  2 * time.Second,
			BackoffBase: 20 * time.Millisecond,
			BackoffMax:  60 * time.Millisecond,
			Seed:        seed,
			Restarts:    seeded,
			Logf:        t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sup
	}

	// Phase 1: s0's first incarnation delivers one result and dies; its
	// replacement grinds on until the injected crash at the fourth
	// accepted result. The supervisor journals the replacement between
	// the first and second accepted results, so it is always durable by
	// crash time.
	p1 := hubPhase(t)
	crash := &chaostest.CrashJournal{Inner: j, Appends: 3}
	ctrl1 := dispatch.NewController()
	cfg1 := chaosConfig(fp, n)
	cfg1.Journal = crash
	cfg1.Controller = ctrl1
	fleet1 := &chaosFleet{
		t: t, attach: p1.attach, fp: fp, n: n, eval: eval,
		killAfter: func(slot string, gen int) int {
			if slot == "s0" && gen == 0 {
				return 1
			}
			return -1
		},
	}
	stop1, res1sup := startSupervisor(newSup(ctrl1, fleet1, nil))
	r1 := <-startCoord(p1.coord, cfg1)
	if !errors.Is(r1.err, chaostest.ErrCrash) {
		t.Fatalf("phase 1 ended with %v, want the injected crash", r1.err)
	}
	stop1()
	if err := <-res1sup; err != nil {
		t.Fatalf("phase 1 supervisor: %v", err)
	}
	fleet1.killAll()
	fleet1.waitAll(t)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// The journal replay must carry the restart ledger.
	j2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	rs := j2.Restarts()
	if len(rs) != 1 || rs[0].Slot != "s0" || rs[0].Worker != "s0r0" ||
		rs[0].Restarts != 1 || rs[0].Poisoned {
		t.Fatalf("journal restart ledger = %+v, want one non-poisoned s0 record at 1 restart", rs)
	}
	if !strings.Contains(rs[0].Reason, "killed") {
		t.Fatalf("restart reason %q lost the exit error", rs[0].Reason)
	}
	if got := len(j2.Cells()); got != 4 {
		t.Fatalf("journal recovered %d cells, want 4", got)
	}

	// Phase 2: resume coordinator AND supervisor from the journal over
	// a fresh hub. The seeded slot must come back as generation 1 —
	// restart counts survive the coordinator restart.
	p2 := hubPhase(t)
	ctrl2 := dispatch.NewController()
	cfg2 := chaosConfig(fp, n)
	cfg2.Journal = j2
	cfg2.Completed = j2.Cells()
	cfg2.Exclusions = j2.Exclusions()
	cfg2.Restarts = rs
	cfg2.Controller = ctrl2
	fleet2 := &chaosFleet{
		t: t, attach: p2.attach, fp: fp, n: n, eval: eval,
		killAfter: func(string, int) int { return -1 },
	}
	stop2, res2sup := startSupervisor(newSup(ctrl2, fleet2, rs))
	r2 := <-startCoord(p2.coord, cfg2)
	var supErr error
	select {
	case supErr = <-res2sup:
	case <-time.After(5 * time.Second):
		stop2()
		supErr = <-res2sup
	}
	fleet2.killAll()
	fleet2.waitAll(t)
	if r2.err != nil {
		t.Fatalf("phase 2: %v", r2.err)
	}
	if supErr != nil {
		t.Fatalf("phase 2 supervisor: %v", supErr)
	}

	ids, _ := fleet2.spawnsOf("s0")
	if len(ids) == 0 || ids[0] != "s0r1" {
		t.Fatalf("resumed slot s0 spawned %v, want it to resume at generation 1 (s0r1)", ids)
	}
	st, ok := ctrl2.Status()
	if !ok {
		t.Fatal("phase 2 published no status")
	}
	found := false
	for _, rr := range st.Restarts {
		if rr.Slot == "s0" && rr.Restarts == 1 && !rr.Poisoned {
			found = true
		}
	}
	if !found {
		t.Fatalf("restart ledger missing from resumed status feed: %+v", st.Restarts)
	}
	got, err := r2.m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, reference(t, fp, n)) {
		t.Fatal("supervised kill-resume merge not byte-identical to the direct fold")
	}
}

// TestStatusSurvivesCoordinatorRestart pins the operator-facing half
// of the ledger: a worker that was excluded and then replaced keeps
// both its exclusion reason and its slot's restart count on
// GET /v1/status after the coordinator is restarted from the journal.
func TestStatusSurvivesCoordinatorRestart(t *testing.T) {
	const fp = "fp-status-restart"
	const n = 6
	dir := t.TempDir()
	j, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.WriteHeader(journal.Header{Fingerprint: fp, Cells: n}); err != nil {
		t.Fatal(err)
	}

	// Phase 1: worker s0r0 fails every cell until the coordinator
	// excludes it (journaled); the supervisor's replacement report is
	// journaled too; then the run is interrupted before any cell lands.
	srv1 := httptransport.NewServer()
	hs1 := httptest.NewServer(srv1.Handler())
	ctrl1 := dispatch.NewController()
	intr := make(chan struct{})
	cfg1 := chaosConfig(fp, n)
	cfg1.Options.WorkerFailures = 2
	cfg1.Options.LeaseTimeout = 200 * time.Millisecond
	cfg1.Journal = j
	cfg1.Controller = ctrl1
	cfg1.Interrupt = intr
	res1 := startCoord(srv1, cfg1)

	bad, err := httptransport.Dial(hs1.URL, "s0r0", 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	w := &dispatch.Worker{
		ID: "s0r0", Fingerprint: fp, Cells: n,
		Heartbeat: 30 * time.Millisecond,
		Poll:      10 * time.Millisecond,
		Idle:      30 * time.Second,
		Eval: func(c int) (experiments.CellResult, error) {
			return experiments.CellResult{}, fmt.Errorf("synthetic profile explosion on cell %d", c)
		},
	}
	badDone := make(chan error, 1)
	go func() { badDone <- w.Run(bad) }()

	waitStatus := func(ctrl *dispatch.Controller, what string, pred func(dispatch.Status) bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if st, ok := ctrl.Status(); ok && pred(st) {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("status never showed %s", what)
	}
	waitStatus(ctrl1, "the exclusion of s0r0", func(st dispatch.Status) bool {
		for _, ws := range st.Workers {
			if ws.Worker == "s0r0" && ws.Excluded {
				return true
			}
		}
		return false
	})
	select {
	case err := <-badDone:
		if err != nil {
			t.Fatalf("excluded worker exited with %v, want a clean stop", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("excluded worker never observed Stop")
	}
	// The supervisor's replacement report for the excluded worker.
	ctrl1.RecordRestart(dispatch.WorkerRestart{
		Slot: "s0", Worker: "s0r0", Restarts: 1,
		Reason: "excluded by coordinator: synthetic profile explosion on cell 0",
	})
	waitStatus(ctrl1, "the restart ledger for s0", func(st dispatch.Status) bool {
		return len(st.Restarts) > 0
	})

	close(intr)
	r1 := <-res1
	if !errors.Is(r1.err, dispatch.ErrInterrupted) {
		t.Fatalf("phase 1 ended with %v, want ErrInterrupted", r1.err)
	}
	hs1.Close()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: restart the coordinator from the journal on a fresh
	// server; /v1/status must carry both halves of the story before a
	// single new message arrives.
	j2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	srv2 := httptransport.NewServer()
	hs2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(hs2.Close)
	ctrl2 := dispatch.NewController()
	cfg2 := chaosConfig(fp, n)
	cfg2.Journal = j2
	cfg2.Completed = j2.Cells()
	cfg2.Exclusions = j2.Exclusions()
	cfg2.Restarts = j2.Restarts()
	cfg2.Controller = ctrl2
	res2 := startCoord(srv2, cfg2)

	var st dispatch.Status
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(hs2.URL + "/v1/status")
		if err == nil {
			decErr := json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if decErr == nil && resp.StatusCode == http.StatusOK && len(st.Workers) > 0 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("/v1/status never served the replayed state")
		}
		time.Sleep(10 * time.Millisecond)
	}
	var badRow *dispatch.WorkerStatus
	for i, ws := range st.Workers {
		if ws.Worker == "s0r0" {
			badRow = &st.Workers[i]
		}
	}
	if badRow == nil {
		t.Fatalf("/v1/status after restart lost the excluded worker: %+v", st.Workers)
	}
	if !badRow.Excluded || badRow.Failures < 2 ||
		!strings.Contains(badRow.LastError, "synthetic profile explosion") {
		t.Fatalf("excluded worker replayed as %+v, want exclusion with reason and failure count", badRow)
	}
	if len(st.Restarts) != 1 || st.Restarts[0].Slot != "s0" ||
		st.Restarts[0].Restarts != 1 ||
		!strings.Contains(st.Restarts[0].Reason, "excluded") {
		t.Fatalf("restart ledger replayed as %+v, want the s0 replacement record", st.Restarts)
	}

	// The resumed coordinator still works: an honest worker finishes
	// the grid, byte-identical.
	w2, err := httptransport.Dial(hs2.URL, "w2", 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	startWorker(t, "w2", fp, n, w2)
	r2 := <-res2
	if r2.err != nil {
		t.Fatalf("phase 2: %v", r2.err)
	}
	got, err := r2.m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, reference(t, fp, n)) {
		t.Fatal("post-restart merge not byte-identical to the direct fold")
	}
}
