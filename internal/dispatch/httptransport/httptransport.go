// Package httptransport carries the dispatch protocol over a small
// JSON-over-HTTP API, so pull workers attach to a coordinator across
// plain TCP — no shared filesystem, no synced directory. Workers are
// joinable and killable at any time: the lease/heartbeat/retry-budget
// machinery in internal/dispatch is reused unchanged, so merged output
// stays byte-identical to a single-process sweep even under churn.
//
// The API, spoken in the shared dispatch wire codec:
//
//	POST /v1/msg                          one Msg frame → 204
//	GET  /v1/lease?worker=W&seq=N&waitms=MS
//	                                      long-poll for the lease
//	                                      replying to (W, N): 200 with a
//	                                      Lease frame, or 204 after
//	                                      waitms with none
//	GET  /v1/status                       coordinator status: queue
//	                                      depth, per-worker lease state,
//	                                      uptime, lease ages, finished
//	                                      flag
//
// NewServer is the coordinator side (a dispatch.Transport that also
// implements dispatch.StatusSink); Dial is the worker side (a
// dispatch.WorkerTransport whose requests retry with backoff, so a
// worker may attach before the coordinator is up and survives transient
// network failures).
package httptransport

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"exegpt/internal/dispatch"
)

// maxMsgBytes bounds one POSTed message frame; a cell-result envelope
// is a few KB, so this is generous.
const maxMsgBytes = 64 << 20

// maxLongPoll caps one lease long-poll round trip; clients with longer
// timeouts simply poll again.
const maxLongPoll = 30 * time.Second

// Server is the coordinator side of the HTTP transport: pass it to
// dispatch.Run and serve Handler() on a listener. It implements
// dispatch.Transport and dispatch.StatusSink.
type Server struct {
	inbox chan *dispatch.Msg
	done  chan struct{}
	once  sync.Once

	mu       sync.Mutex
	leases   map[string]chan *dispatch.Lease
	active   map[string]bool // workers heard from on any endpoint
	stopSeen map[string]bool // workers that have received a Stop lease
	status   dispatch.Status
	hasState bool
}

// NewServer returns an HTTP dispatch transport with no workers yet.
func NewServer() *Server {
	return &Server{
		inbox:    make(chan *dispatch.Msg, 64),
		done:     make(chan struct{}),
		leases:   map[string]chan *dispatch.Lease{},
		active:   map[string]bool{},
		stopSeen: map[string]bool{},
	}
}

func (s *Server) leaseChan(worker string) chan *dispatch.Lease {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch, ok := s.leases[worker]
	if !ok {
		ch = make(chan *dispatch.Lease, 4)
		s.leases[worker] = ch
	}
	return ch
}

func (s *Server) markActive(worker string) {
	s.mu.Lock()
	s.active[worker] = true
	s.mu.Unlock()
}

func (s *Server) finished() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// Recv implements dispatch.Transport.
func (s *Server) Recv(timeout time.Duration) (*dispatch.Msg, error) {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case m := <-s.inbox:
		return m, nil
	case <-timer.C:
		return nil, nil
	}
}

// Send implements dispatch.Transport. An undeliverable lease (worker
// gone, or not draining its long-polls) is dropped; the worker
// re-requests and the coordinator requeues on deadline.
func (s *Server) Send(l *dispatch.Lease) error {
	select {
	case s.leaseChan(l.Worker) <- l:
	default:
	}
	return nil
}

// Finish implements dispatch.Transport: every lease long-poll from here
// on answers Stop immediately.
func (s *Server) Finish() error {
	s.once.Do(func() { close(s.done) })
	return nil
}

// PublishStatus implements dispatch.StatusSink; the snapshot is served
// on GET /v1/status.
func (s *Server) PublishStatus(st dispatch.Status) {
	s.mu.Lock()
	s.status = st
	s.hasState = true
	s.mu.Unlock()
}

// DrainStops waits up to timeout for every worker the server has heard
// from to observe a Stop lease, so a coordinator process can linger
// just long enough for its fleet to exit cleanly before closing the
// listener. It reports whether all of them did.
func (s *Server) DrainStops(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		s.mu.Lock()
		drained := true
		for w := range s.active {
			if !s.stopSeen[w] {
				drained = false
				break
			}
		}
		s.mu.Unlock()
		if drained {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Handler returns the coordinator's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/msg", s.handleMsg)
	mux.HandleFunc("GET /v1/lease", s.handleLease)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	return mux
}

func (s *Server) handleMsg(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxMsgBytes))
	if err != nil {
		http.Error(w, fmt.Sprintf("read msg: %v", err), http.StatusBadRequest)
		return
	}
	m, err := dispatch.DecodeMsg(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if m.Worker == "" {
		http.Error(w, "msg has no worker id", http.StatusBadRequest)
		return
	}
	s.markActive(m.Worker)
	select {
	case s.inbox <- m:
	case <-s.done:
		// The run is over; drop the message (the worker's next lease
		// poll answers Stop).
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	worker := q.Get("worker")
	if worker == "" {
		http.Error(w, "missing worker", http.StatusBadRequest)
		return
	}
	seq, err := strconv.Atoi(q.Get("seq"))
	if err != nil {
		http.Error(w, "bad seq", http.StatusBadRequest)
		return
	}
	wait := time.Duration(0)
	if ms := q.Get("waitms"); ms != "" {
		n, err := strconv.ParseInt(ms, 10, 64)
		if err != nil || n < 0 {
			http.Error(w, "bad waitms", http.StatusBadRequest)
			return
		}
		wait = time.Duration(n) * time.Millisecond
	}
	if wait > maxLongPoll {
		wait = maxLongPoll
	}
	s.markActive(worker)

	writeLease := func(l *dispatch.Lease) {
		data, err := dispatch.EncodeLease(l)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if l.Stop {
			s.mu.Lock()
			s.stopSeen[worker] = true
			s.mu.Unlock()
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	}

	ch := s.leaseChan(worker)
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for {
		select {
		case l := <-ch:
			// Leases for superseded request sequences (a reply sent just
			// before the worker re-requested) are discarded, as on every
			// transport.
			if l.Stop || l.Seq == seq {
				writeLease(l)
				return
			}
		case <-s.done:
			writeLease(&dispatch.Lease{Version: dispatch.WireVersion, Worker: worker, Stop: true})
			return
		case <-timer.C:
			w.WriteHeader(http.StatusNoContent)
			return
		}
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	snapshot := struct {
		dispatch.Status
		Finished bool `json:"finished"`
	}{s.status, s.finished()}
	s.mu.Unlock()
	data, err := json.MarshalIndent(&snapshot, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(data, '\n'))
}

// Client is one worker's side of the HTTP transport, a
// dispatch.WorkerTransport. Safe for concurrent use (the evaluation
// loop and the heartbeat ticker share it).
type Client struct {
	base string
	id   string
	hc   *http.Client
	// retryFor bounds how long Send keeps retrying a failing POST with
	// backoff before reporting the transport broken.
	retryFor time.Duration
	// retryBase/retryMax/retrySeed parameterize the per-attempt backoff
	// schedule (dispatch.NewBackoff); see Tune.
	retryBase time.Duration
	retryMax  time.Duration
	retrySeed int64
}

// Dial prepares a worker client for the coordinator at baseURL (e.g.
// "http://gpu1:8080"). No connection is made yet: the first request
// retries with backoff, so the worker may attach before the coordinator
// is up. retryFor bounds how long one Send retries a failing POST
// before the worker gives up on the coordinator; <= 0 means 2 minutes.
func Dial(baseURL, workerID string, retryFor time.Duration) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("httptransport: bad coordinator URL %q: %w", baseURL, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("httptransport: coordinator URL %q: want http:// or https://", baseURL)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("httptransport: coordinator URL %q has no host", baseURL)
	}
	if workerID == "" {
		return nil, fmt.Errorf("httptransport: empty worker id")
	}
	if retryFor <= 0 {
		retryFor = 2 * time.Minute
	}
	return &Client{
		base:      strings.TrimRight(u.String(), "/"),
		id:        workerID,
		hc:        &http.Client{Timeout: maxLongPoll + 15*time.Second},
		retryFor:  retryFor,
		retryBase: 100 * time.Millisecond,
		retryMax:  2 * time.Second,
		retrySeed: dispatch.SeedFromID(workerID),
	}, nil
}

// Tune overrides the client's retry backoff schedule: each failing
// attempt inside Send/RecvLease sleeps an exponential
// backoff-with-jitter delay from base up to max, jitter pinned by seed
// (0 keeps the worker-id-derived seed). Call before the first request;
// the CLI threads dispatch.Options.RetryBase/RetryMax here.
func (c *Client) Tune(base, max time.Duration, seed int64) {
	if base > 0 {
		c.retryBase = base
	}
	if max > 0 {
		c.retryMax = max
	}
	if c.retryMax < c.retryBase {
		c.retryMax = c.retryBase
	}
	if seed != 0 {
		c.retrySeed = seed
	}
}

// backoff starts one retry loop's delay schedule.
func (c *Client) backoff() *dispatch.Backoff {
	return dispatch.NewBackoff(c.retryBase, c.retryMax, c.retrySeed)
}

// Send implements dispatch.WorkerTransport: POST one message frame,
// retrying network errors and 5xx responses with exponential backoff
// for up to the client's retry budget. A 4xx response is permanent (a
// protocol or version mismatch), reported immediately.
func (c *Client) Send(m *dispatch.Msg) error {
	frame, err := dispatch.EncodeMsg(m)
	if err != nil {
		return err
	}
	deadline := time.Now().Add(c.retryFor)
	bo := c.backoff()
	for {
		err := c.postMsg(frame)
		if err == nil {
			return nil
		}
		var perm *permanentError
		if errors.As(err, &perm) {
			return fmt.Errorf("httptransport: worker %s: %w", c.id, perm.err)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("httptransport: worker %s: coordinator unreachable for %v: %w", c.id, c.retryFor, err)
		}
		time.Sleep(bo.Next())
	}
}

// permanentError marks a response that retrying cannot fix.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }

func (c *Client) postMsg(frame []byte) error {
	resp, err := c.hc.Post(c.base+"/v1/msg", "application/json", bytes.NewReader(frame))
	if err != nil {
		return err
	}
	defer drainClose(resp)
	switch {
	case resp.StatusCode == http.StatusNoContent || resp.StatusCode == http.StatusOK:
		return nil
	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return &permanentError{fmt.Errorf("coordinator rejected msg: %s: %s",
			resp.Status, strings.TrimSpace(string(body)))}
	default:
		return fmt.Errorf("coordinator: %s", resp.Status)
	}
}

// RecvLease implements dispatch.WorkerTransport: long-poll the lease
// endpoint until the reply to request seq (or a Stop) arrives, the
// timeout passes (nil), or a permanent protocol error occurs. Network
// errors back off and retry within the timeout, so a coordinator
// restart or a flaky link only slows the worker down.
func (c *Client) RecvLease(seq int, timeout time.Duration) (*dispatch.Lease, error) {
	deadline := time.Now().Add(timeout)
	bo := c.backoff()
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, nil
		}
		wait := remaining
		if wait > maxLongPoll {
			wait = maxLongPoll
		}
		u := fmt.Sprintf("%s/v1/lease?worker=%s&seq=%d&waitms=%d",
			c.base, url.QueryEscape(c.id), seq, wait.Milliseconds())
		resp, err := c.hc.Get(u)
		if err != nil {
			delay := bo.Next()
			if time.Until(deadline) <= delay {
				return nil, nil
			}
			time.Sleep(delay)
			continue
		}
		l, err := c.readLease(resp)
		if err != nil {
			return nil, fmt.Errorf("httptransport: worker %s: %w", c.id, err)
		}
		if l != nil && (l.Stop || l.Seq == seq) {
			return l, nil
		}
		// 204 (nothing yet) or a superseded lease: poll again.
	}
}

func (c *Client) readLease(resp *http.Response) (*dispatch.Lease, error) {
	defer drainClose(resp)
	switch {
	case resp.StatusCode == http.StatusNoContent:
		return nil, nil
	case resp.StatusCode == http.StatusOK:
		body, err := io.ReadAll(io.LimitReader(resp.Body, maxMsgBytes))
		if err != nil {
			return nil, fmt.Errorf("read lease: %w", err)
		}
		return dispatch.DecodeLease(body)
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("coordinator rejected lease poll: %s: %s",
			resp.Status, strings.TrimSpace(string(body)))
	}
}

// drainClose consumes what remains of a response body so the connection
// can be reused, then closes it.
func drainClose(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}
