// Package workload defines the NLP tasks of the ExeGPT evaluation
// (Table 3), the real-world dataset emulations of §7.5, and request
// generation.
//
// The paper synthesizes input/output sequences from truncated normal
// distributions whose parameters reflect public datasets, and enforces
// output lengths by suppressing the end-of-sequence token (§7.1). Real
// datasets (WMT, Alpaca, CNN/DailyMail) exhibit long tails toward long
// outputs, which we emulate with log-normal length distributions.
package workload

import (
	"fmt"
	"math/rand"

	"exegpt/internal/seqdist"
)

// Spec gives the summary statistics of a length distribution as listed
// in Table 3.
type Spec struct {
	Avg, Std float64
	Max      int
	// LongTail selects a log-normal shape instead of truncated normal
	// (used by the real-dataset emulations).
	LongTail bool
}

// Dist materializes the distribution.
func (s Spec) Dist() (*seqdist.Dist, error) {
	if s.LongTail {
		return seqdist.NewLogNormal(s.Avg, s.Std, s.Max)
	}
	return seqdist.NewTruncNormal(s.Avg, s.Std, s.Max)
}

// Task is one evaluation workload.
type Task struct {
	// ID is the paper's task identifier (S, T, G, C1, C2, or a dataset
	// name for §7.5).
	ID   string
	Name string
	In   Spec
	Out  Spec
	// Rho is the input/output length correlation (Gaussian copula);
	// §7.1 reports 0.08-0.21 for most tasks and 0.57-0.94 for
	// translation.
	Rho float64
}

// Table 3 tasks.
var (
	Summarization  = Task{ID: "S", Name: "Summarization", In: Spec{256, 252, 512, false}, Out: Spec{32, 13, 80, false}, Rho: 0.15}
	Translation    = Task{ID: "T", Name: "Translation", In: Spec{128, 81, 256, false}, Out: Spec{128, 68, 320, false}, Rho: 0.75}
	CodeGeneration = Task{ID: "G", Name: "Code Generation", In: Spec{64, 23, 128, false}, Out: Spec{192, 93, 480, false}, Rho: 0.12}
	ConvQA1        = Task{ID: "C1", Name: "Conversational Q&A (short)", In: Spec{256, 115, 512, false}, Out: Spec{64, 30, 160, false}, Rho: 0.18}
	ConvQA2        = Task{ID: "C2", Name: "Conversational Q&A (long)", In: Spec{512, 252, 1024, false}, Out: Spec{256, 134, 640, false}, Rho: 0.21}
)

// Real-world dataset emulations (§7.5, Figure 10). Output tails are
// long, which exacerbates the diminishing-batch problem for fixed-batch
// systems.
var (
	WMT    = Task{ID: "WMT", Name: "WMT En-De translation", In: Spec{30, 22, 256, true}, Out: Spec{32, 26, 300, true}, Rho: 0.85}
	Alpaca = Task{ID: "Alpaca", Name: "Alpaca conversational Q&A", In: Spec{21, 16, 256, true}, Out: Spec{120, 110, 1024, true}, Rho: 0.10}
	CNN    = Task{ID: "CNN", Name: "CNN/DailyMail summarization", In: Spec{780, 320, 2048, false}, Out: Spec{58, 28, 256, true}, Rho: 0.12}
)

// Tasks lists the synthetic Table 3 tasks in paper order.
var Tasks = []Task{Summarization, Translation, CodeGeneration, ConvQA1, ConvQA2}

// RealDatasets lists the §7.5 dataset emulations.
var RealDatasets = []Task{WMT, Alpaca, CNN}

// tasksByID indexes every task (synthetic and dataset) by identifier,
// built once instead of rebuilding the concatenated slice per lookup.
var tasksByID = func() map[string]Task {
	m := make(map[string]Task, len(Tasks)+len(RealDatasets))
	for _, t := range Tasks {
		m[t.ID] = t
	}
	for _, t := range RealDatasets {
		m[t.ID] = t
	}
	return m
}()

// ByID returns a task (synthetic or dataset) by its identifier.
func ByID(id string) (Task, error) {
	t, ok := tasksByID[id]
	if !ok {
		return Task{}, fmt.Errorf("workload: unknown task %q", id)
	}
	return t, nil
}

// Dists materializes both length distributions.
func (t Task) Dists() (in, out *seqdist.Dist, err error) {
	in, err = t.In.Dist()
	if err != nil {
		return nil, nil, fmt.Errorf("workload %s input: %w", t.ID, err)
	}
	out, err = t.Out.Dist()
	if err != nil {
		return nil, nil, fmt.Errorf("workload %s output: %w", t.ID, err)
	}
	return in, out, nil
}

// Request is one inference query with enforced lengths.
type Request struct {
	ID     int
	InLen  int
	OutLen int
}

// Generator produces requests with correlated lengths.
type Generator struct {
	task Task
	biv  seqdist.Bivariate
	rng  *rand.Rand
	next int
	// RandomizeInputs applies the paper's input-length randomization
	// across batches for highly correlated tasks (§7.1): it shuffles
	// the input marginal independently, breaking the copula coupling.
	RandomizeInputs bool
}

// NewGenerator returns a deterministic generator for the task.
func NewGenerator(task Task, seed int64) (*Generator, error) {
	in, out, err := task.Dists()
	if err != nil {
		return nil, err
	}
	return &Generator{
		task: task,
		biv:  seqdist.Bivariate{In: in, Out: out, Rho: task.Rho},
		rng:  rand.New(rand.NewSource(seed)),
	}, nil
}

// Task returns the generator's task.
func (g *Generator) Task() Task { return g.task }

// Next produces the next request.
func (g *Generator) Next() Request {
	var in, out int
	if g.RandomizeInputs {
		in = g.biv.In.Sample(g.rng)
		out = g.biv.Out.Sample(g.rng)
	} else {
		in, out = g.biv.Sample(g.rng)
	}
	r := Request{ID: g.next, InLen: in, OutLen: out}
	g.next++
	return r
}

// Batch produces n requests.
func (g *Generator) Batch(n int) []Request {
	out := make([]Request, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// Split partitions requests into an estimation set (first fraction est)
// and an evaluation set, mirroring §7.5's 10%/90% split.
func Split(reqs []Request, est float64) (estimate, eval []Request) {
	n := int(float64(len(reqs)) * est)
	if n < 0 {
		n = 0
	}
	if n > len(reqs) {
		n = len(reqs)
	}
	return reqs[:n], reqs[n:]
}

// EstimateDists fits empirical distributions to a request sample, the
// way a deployment observes an NLP service over time (§1, §7.5).
func EstimateDists(reqs []Request) (in, out *seqdist.Dist, err error) {
	if len(reqs) == 0 {
		return nil, nil, fmt.Errorf("workload: no requests to estimate from")
	}
	ins := make([]int, len(reqs))
	outs := make([]int, len(reqs))
	for i, r := range reqs {
		ins[i] = r.InLen
		outs[i] = r.OutLen
	}
	in, err = seqdist.NewEmpirical("observed-in", ins)
	if err != nil {
		return nil, nil, err
	}
	out, err = seqdist.NewEmpirical("observed-out", outs)
	if err != nil {
		return nil, nil, err
	}
	return in, out, nil
}
