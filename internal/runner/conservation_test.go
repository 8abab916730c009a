package runner

import (
	"math/rand"
	"reflect"
	"testing"

	"exegpt/internal/hw"
	"exegpt/internal/model"
	"exegpt/internal/sched"
	"exegpt/internal/workload"
)

// conservationCase is one schedule the conservation tests execute.
type conservationCase struct {
	name  string
	cfg   sched.Config
	alloc func(t *testing.T, e *Engine) sched.Allocation
}

func conservationCases() []conservationCase {
	waa := sched.Config{Policy: sched.WAAM, BE: 4, BD: 128, Bm: 2, TP: sched.TPSpec{Degree: 1}}
	rraAllocFn := func(t *testing.T, e *Engine) sched.Allocation { return rraAlloc(t, e, sched.TPSpec{Degree: 1}) }
	return []conservationCase{
		{"RRA", rraConfig(64, 8), rraAllocFn},
		// Large encode and decode batches: many completions per step.
		{"RRA-large", sched.Config{Policy: sched.RRA, BE: 32, BD: 512, ND: 8, TP: sched.TPSpec{Degree: 1}}, rraAllocFn},
		{"WAA", waa, func(t *testing.T, e *Engine) sched.Allocation { return waaAlloc(t, e, 1, 3, sched.TPSpec{Degree: 1}) }},
	}
}

// checkConservation asserts that records hold every request exactly
// once with End >= Start >= arrival, and that after a final Compact
// every decode stage's tracker holds only its weights.
func checkConservation(t *testing.T, e *Engine, reqs []workload.Request, arrival map[int]float64, records []QueryRecord, states []*stageState) {
	t.Helper()
	seen := make(map[int]bool, len(reqs))
	for _, r := range records {
		if seen[r.ID] {
			t.Fatalf("request %d completed twice", r.ID)
		}
		seen[r.ID] = true
		if r.End < r.Start {
			t.Fatalf("request %d ends at %v before its start %v", r.ID, r.End, r.Start)
		}
		if r.Start < arrival[r.ID] {
			t.Fatalf("request %d starts at %v before its arrival %v", r.ID, r.Start, arrival[r.ID])
		}
	}
	for _, r := range reqs {
		if !seen[r.ID] {
			t.Fatalf("request %d never completed (%d of %d did)", r.ID, len(records), len(reqs))
		}
	}
	for _, st := range states {
		st.kv.Compact()
		if want := sched.WeightBytesPerGPU(e.Model, st.stage); st.mem.Used() != want || st.kv.LiveTokens() != 0 {
			t.Fatalf("stage at rank %d holds %d bytes (%d live tokens), want weights only (%d)",
				st.stage.FirstRank, st.mem.Used(), st.kv.LiveTokens(), want)
		}
	}
}

func TestBatchRunConservation(t *testing.T) {
	e := engine(t, model.OPT13B, 4, hw.A40Cluster)
	for _, c := range conservationCases() {
		for _, seed := range []int64{1, 2, 3} {
			reqs := requests(t, workload.Summarization, 300, seed)
			var records []QueryRecord
			o, err := e.runAll(c.cfg, c.alloc(t, e), reqs, func(r QueryRecord) { records = append(records, r) }, nil)
			if err != nil {
				t.Fatalf("%s seed %d: %v", c.name, seed, err)
			}
			checkConservation(t, e, reqs, nil, records, o.dec.states)
		}
	}
}

func TestOpenRunConservation(t *testing.T) {
	e := engine(t, model.OPT13B, 4, hw.A40Cluster)
	for _, c := range conservationCases() {
		for _, seed := range []int64{1, 2, 3} {
			o, err := e.Open(c.cfg, c.alloc(t, e), 0)
			if err != nil {
				t.Fatal(err)
			}
			done := collect(o)
			reqs := requests(t, workload.Summarization, 300, seed)
			rng := rand.New(rand.NewSource(seed))
			arrival := make(map[int]float64, len(reqs))
			at := 0.0
			for _, r := range reqs {
				at += rng.ExpFloat64() / 20 // ~20 req/s
				arrival[r.ID] = at
				o.Push(r, at)
			}
			if err := o.Finish(); err != nil {
				t.Fatalf("%s seed %d: %v", c.name, seed, err)
			}
			checkConservation(t, e, reqs, arrival, done.recs, o.dec.states)
		}
	}
}

// The decoder's running context sum equals a rescan of the active
// queries after every step, for decoder-only and encoder-decoder models.
// The rescan counts each query's generated tokens as the steps taken
// since its admission.
func TestDecoderContextSum(t *testing.T) {
	for _, m := range []model.Model{model.OPT13B, model.T511B} {
		e := engine(t, m, 4, hw.A40Cluster)
		states, err := e.newStageStates(rraAlloc(t, e, sched.TPSpec{Degree: 1}))
		if err != nil {
			t.Fatal(err)
		}
		d := decoder{model: m, states: states}
		steps := 0
		admittedAt := map[int]int{} // request ID -> steps before its admission
		for i, r := range requests(t, workload.Translation, 200, 5) {
			if err := admit(states, r.ID, r.InLen); err != nil {
				t.Fatal(err)
			}
			d.add(r, 0)
			admittedAt[r.ID] = steps
			if i%3 != 0 {
				continue
			}
			if err := d.step(float64(i), nil); err != nil {
				t.Fatal(err)
			}
			steps++
			want := 0
			for _, q := range d.active {
				want += m.ContextLen(q.req.InLen, steps-admittedAt[q.req.ID])
			}
			if d.ctxSum != want {
				t.Fatalf("%s: ctxSum %d, rescan %d", m.Name, d.ctxSum, want)
			}
		}
	}
}

// Queries admitted at different iterations that reach their output
// length in the same step complete in admission order, not in request
// ID or output-length order.
func TestDecoderCompletesInAdmissionOrder(t *testing.T) {
	e := engine(t, model.OPT13B, 4, hw.A40Cluster)
	states, err := e.newStageStates(rraAlloc(t, e, sched.TPSpec{Degree: 1}))
	if err != nil {
		t.Fatal(err)
	}
	d := decoder{model: e.Model, states: states}
	var records []QueryRecord
	sink := func(r QueryRecord) { records = append(records, r) }
	// Each wave is admitted after the previous step; every query
	// except ID 8 completes at step 4.
	waves := [][]workload.Request{
		{{ID: 7, InLen: 16, OutLen: 4}, {ID: 8, InLen: 16, OutLen: 9}, {ID: 2, InLen: 16, OutLen: 4}},
		{{ID: 3, InLen: 16, OutLen: 3}},
		{{ID: 9, InLen: 16, OutLen: 2}, {ID: 1, InLen: 16, OutLen: 2}},
		{{ID: 0, InLen: 16, OutLen: 1}, {ID: 5, InLen: 16, OutLen: 0}},
	}
	for step, wave := range waves {
		for _, r := range wave {
			if err := admit(states, r.ID, r.InLen); err != nil {
				t.Fatal(err)
			}
			d.add(r, float64(step))
		}
		before := len(records)
		if err := d.step(float64(step+1), sink); err != nil {
			t.Fatal(err)
		}
		if n, want := len(records)-before, map[bool]int{true: 7, false: 0}[step == 3]; n != want {
			t.Fatalf("step %d completed %d queries, want %d", step+1, n, want)
		}
	}
	var ids []int
	for _, r := range records {
		ids = append(ids, r.ID)
	}
	if want := []int{7, 2, 3, 9, 1, 0, 5}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("step 4 completed %v, want admission order %v", ids, want)
	}
	if len(d.active) != 1 || d.active[0].req.ID != 8 || d.ctxSum != model.OPT13B.ContextLen(16, 4) {
		t.Fatalf("after step 4: %d active, ctxSum %d; want query 8 alone at context %d",
			len(d.active), d.ctxSum, model.OPT13B.ContextLen(16, 4))
	}
}

// A steady-state decode step — no query finishes — allocates nothing.
func TestDecodeStepAllocs(t *testing.T) {
	e := engine(t, model.OPT13B, 4, hw.A40Cluster)
	states, err := e.newStageStates(rraAlloc(t, e, sched.TPSpec{Degree: 1}))
	if err != nil {
		t.Fatal(err)
	}
	d := decoder{model: e.Model, states: states}
	for id := 0; id < 256; id++ {
		r := workload.Request{ID: id, InLen: 16, OutLen: 1 << 30}
		if err := admit(states, r.ID, r.InLen); err != nil {
			t.Fatal(err)
		}
		d.add(r, 0)
	}
	var records []QueryRecord
	sink := func(r QueryRecord) { records = append(records, r) }
	allocs := testing.AllocsPerRun(100, func() {
		if err := d.step(1, sink); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("decode step allocates %v times, want 0", allocs)
	}
}
