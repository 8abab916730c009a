package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"exegpt/internal/dispatch"
	"exegpt/internal/dispatch/httptransport"
	"exegpt/internal/distsweep"
	"exegpt/internal/experiments"
)

// gridFlagSet bundles the grid-selection flags of `sweep`, so
// coordinator and worker processes resolve — and fingerprint — the same
// grid from the same spellings.
type gridFlagSet struct {
	models   *string
	gpus     *string
	tasks    *string
	policies *string
}

func gridFlags(fs *flag.FlagSet) *gridFlagSet {
	return &gridFlagSet{
		models:   fs.String("models", "", "comma-separated model names (default: every Table 2 model)"),
		gpus:     fs.String("gpus", "", "comma-separated cluster sizes overriding Table 2 (e.g. 4,8,16)"),
		tasks:    fs.String("tasks", "", "comma-separated task IDs (default: S,T,G,C1,C2)"),
		policies: fs.String("policies", "all", "policy set: rra, waa, disagg or all"),
	}
}

// build resolves the flags into a sweep grid.
func (g *gridFlagSet) build(ctx *experiments.Context) (experiments.SweepGrid, error) {
	tasks, err := tasksByIDs(*g.tasks)
	if err != nil {
		return experiments.SweepGrid{}, err
	}
	groups, err := parsePolicies(*g.policies)
	if err != nil {
		return experiments.SweepGrid{}, err
	}
	deps, err := sweepDeployments(*g.models, *g.gpus)
	if err != nil {
		return experiments.SweepGrid{}, err
	}
	return experiments.SweepGrid{
		Deployments: deps,
		Tasks:       tasks,
		Policies:    groups,
		Workers:     ctx.Workers,
	}, nil
}

// dispatchFlagSet maps the dispatch.Options knobs onto flags, shared by
// `sweep -mode dispatch` and `sweep -mode pull` so both sides tune the
// same struct the same way.
type dispatchFlagSet struct {
	leaseTimeout   *time.Duration
	leaseCells     *int
	cellRetries    *int
	workerFailures *int
	idle           *time.Duration
	retryBase      *time.Duration
	retryMax       *time.Duration
}

func dispatchFlags(fs *flag.FlagSet) *dispatchFlagSet {
	d := dispatch.Defaults()
	return &dispatchFlagSet{
		leaseTimeout: fs.Duration("lease-timeout", d.LeaseTimeout,
			"requeue a worker's cells after this long without a heartbeat or result"),
		leaseCells: fs.Int("lease-cells", d.LeaseCells,
			"max cells per lease (1 = finest stealing granularity)"),
		cellRetries: fs.Int("cell-retries", d.CellRetries,
			"abort the sweep when one cell has been requeued this many times"),
		workerFailures: fs.Int("worker-failures", d.WorkerFailures,
			"exclude a worker from further leases after this many failed leases"),
		idle: fs.Duration("dispatch-idle", d.Idle,
			"abort the sweep when no worker message arrives for this long (0 waits forever)"),
		retryBase: fs.Duration("retry-base", d.RetryBase,
			"worker transport retries: first backoff step (doubles with jitter up to -retry-max)"),
		retryMax: fs.Duration("retry-max", d.RetryMax,
			"worker transport retries: backoff ceiling"),
	}
}

// options collects the parsed flags into a validated dispatch.Options.
func (d *dispatchFlagSet) options() (dispatch.Options, error) {
	o := dispatch.Options{
		LeaseTimeout:   *d.leaseTimeout,
		LeaseCells:     *d.leaseCells,
		CellRetries:    *d.cellRetries,
		WorkerFailures: *d.workerFailures,
		Idle:           *d.idle,
		RetryBase:      *d.retryBase,
		RetryMax:       *d.retryMax,
	}
	if err := o.Validate(); err != nil {
		return dispatch.Options{}, err
	}
	return o, nil
}

// coordConfig assembles a coordinator Config logging to stderr.
func coordConfig(fp string, cells int, opts dispatch.Options) dispatch.Config {
	return dispatch.Config{
		Fingerprint: fp,
		Cells:       cells,
		Options:     opts,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
}

// sanitizeWorkerID maps an arbitrary string (a hostname) onto a worker id that is safe in logs, process listings and shell
// patterns: letters, digits, '.', '-' and '_'; everything else becomes
// '-'.
func sanitizeWorkerID(id string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '-', r == '_':
			return r
		}
		return '-'
	}, id)
}

// defaultWorkerID derives a worker id from host and pid.
func defaultWorkerID() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "worker"
	}
	return fmt.Sprintf("%s-%d", sanitizeWorkerID(host), os.Getpid())
}

// httpCoord is a listening HTTP coordinator endpoint: the transport
// plus the server that exposes it.
type httpCoord struct {
	srv *httptransport.Server
	hs  *http.Server
	ln  net.Listener
}

// listenHTTP binds the coordinator's HTTP API on addr (host:port; port
// 0 picks a free one) and starts serving it.
func listenHTTP(addr string) (*httpCoord, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dispatch: listen %s: %w", addr, err)
	}
	srv := httptransport.NewServer()
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	return &httpCoord{srv: srv, hs: hs, ln: ln}, nil
}

// localURL is the coordinator URL as reachable from this machine.
func (h *httpCoord) localURL() string {
	addr := h.ln.Addr().(*net.TCPAddr)
	host := addr.IP.String()
	if addr.IP.IsUnspecified() {
		host = "127.0.0.1"
	}
	return fmt.Sprintf("http://%s", net.JoinHostPort(host, strconv.Itoa(addr.Port)))
}

// run drives the coordinator over the HTTP transport, lingers briefly
// so polling workers observe Stop, then closes the listener.
func (h *httpCoord) run(cfg dispatch.Config) (*distsweep.Merged, error) {
	merged, err := dispatch.Run(h.srv, cfg)
	h.srv.DrainStops(5 * time.Second)
	h.hs.Close()
	return merged, err
}

// runPullWorker is `exegpt sweep -mode pull`: one pull-loop worker
// process evaluating cells leased from the HTTP coordinator at
// connectURL.
func runPullWorker(ctx *experiments.Context, grid experiments.SweepGrid, fp, connectURL, id string, opts dispatch.Options) error {
	if id == "" {
		id = defaultWorkerID()
	}
	// -dispatch-idle bounds the worker's patience on both paths: how
	// long a send retries an unreachable coordinator (attaching before
	// it is up is fine within this budget) and, in the pull loop, how
	// long to wait for a lease reply. 0 falls back to the client's own
	// default rather than retrying sends forever.
	c, err := httptransport.Dial(connectURL, id, opts.Idle)
	if err != nil {
		return err
	}
	c.Tune(opts.RetryBase, opts.RetryMax, 0)
	// SIGINT/SIGTERM drain the worker gracefully: it finishes the cell
	// it is evaluating, releases the rest of its lease back to the
	// coordinator, and exits cleanly. A second signal exits immediately.
	drain := make(chan struct{})
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "worker %s: %v: draining (finishing the in-flight cell, releasing the rest; signal again to exit immediately)\n", id, s)
		close(drain)
		s = <-sig
		fmt.Fprintf(os.Stderr, "worker %s: %v: exiting immediately\n", id, s)
		os.Exit(130)
	}()

	w := &dispatch.Worker{
		ID:          id,
		Fingerprint: fp,
		Cells:       len(grid.Cells()),
		Batch:       opts.LeaseCells,
		Idle:        opts.Idle,
		RetryBase:   opts.RetryBase,
		RetryMax:    opts.RetryMax,
		Drain:       drain,
		Eval: func(c int) (experiments.CellResult, error) {
			crs, err := ctx.SweepCells(grid, []int{c})
			if err != nil {
				return experiments.CellResult{}, err
			}
			return crs[0], nil
		},
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	fmt.Fprintf(os.Stderr, "sweep: pull worker %s on %s (%d-cell grid %.12s)\n",
		id, connectURL, w.Cells, fp)
	return w.Run(c)
}

// runDispatch is `exegpt sweep -mode dispatch`: a work-stealing
// coordinator serving the HTTP API on httpAddr (empty picks a free
// loopback port) until `-mode pull` workers, attached from any
// reachable host at any time, have covered every cell. It evaluates
// nothing itself.
func runDispatch(grid experiments.SweepGrid, fp, httpAddr string, opts dispatch.Options, jsonOut string) error {
	cells := len(grid.Cells())
	if httpAddr == "" {
		httpAddr = "127.0.0.1:0"
	}
	hc, err := listenHTTP(httpAddr)
	if err != nil {
		return err
	}
	connectURL := hc.localURL()
	fmt.Fprintf(os.Stderr, "dispatch: coordinating %d cells on %s (grid %.12s; status: %s/v1/status)\n",
		cells, connectURL, fp, connectURL)
	merged, err := hc.run(coordConfig(fp, cells, opts))
	if err != nil {
		return err
	}
	return printMerged(merged, grid, jsonOut)
}
