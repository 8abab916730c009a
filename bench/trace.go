package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call from a benchmark file into a layer. Root spans
// (Parent 0) are the workload's operations: a sweep cell, a search or a
// serve rung; Trace names that operation and is shared by every span
// under it. Times are nanoseconds since the tracer's epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Pass   int    `json:"pass"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// layer is the module a span's call went into: the part of its name
// before the first dot.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans in memory; it is written out once the run ends. A
// nil *tracer records nothing, so untraced passes run the same code.
// Cells of the sweep replica run on several goroutines, hence the lock.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	pass  int
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(parent int, trace, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Pass: t.pass, Start: now})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// call runs fn inside a span named name under parent.
func (t *tracer) call(parent int, trace, name string, fn func() error) error {
	id := t.begin(parent, trace, name)
	err := fn()
	t.end(id)
	return err
}

// passSpans returns a copy of the spans recorded during pass p.
func (t *tracer) passSpans(p int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Pass == p {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes fills in each span's Self: its duration minus the part of
// its interval covered by the union of its children's intervals.
func selfTimes(spans []span) {
	idx := make(map[int]int, len(spans))
	for i, s := range spans {
		idx[s.ID] = i
	}
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range spans {
		p := spans[i]
		spans[i].Self = (p.End - p.Start) - covered(p.Start, p.End, children[p.ID])
	}
}

// covered is the length of [lo, hi] covered by the union of the
// intervals of kids.
func covered(lo, hi int64, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] <= curHi:
			curHi = max(curHi, x[1])
		default:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// breakdown is one traced pass seen by layer.
type breakdown struct {
	// lanes is wall time times the pass's fan-out width: the time the
	// pass's operations could have used.
	lanes int64
	// roots is the summed duration of the operations (root spans).
	roots int64
	// self is the summed self time per layer.
	self map[string]int64
	// ops are the root spans' durations in milliseconds.
	ops []float64
}

// layerBreakdown computes self times and sums them per layer for one
// traced pass of the given wall time and fan-out width.
func layerBreakdown(spans []span, wall time.Duration, workers int) breakdown {
	selfTimes(spans)
	b := breakdown{lanes: wall.Nanoseconds() * int64(workers), self: map[string]int64{}}
	for _, s := range spans {
		b.self[s.layer()] += s.Self
		if s.Parent == 0 {
			b.roots += s.End - s.Start
			b.ops = append(b.ops, float64(s.End-s.Start)/1e6)
		}
	}
	return b
}

// selfTotal sums the self time of every layer.
func (b breakdown) selfTotal() int64 {
	var t int64
	for _, v := range b.self {
		t += v
	}
	return t
}
