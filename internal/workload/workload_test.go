package workload

import (
	"math"
	"testing"

	"exegpt/internal/seqdist"
)

func TestTable3Specs(t *testing.T) {
	if len(Tasks) != 5 {
		t.Fatalf("want 5 synthetic tasks, got %d", len(Tasks))
	}
	// Spot-check Table 3 numbers.
	if Summarization.In.Avg != 256 || Summarization.Out.Avg != 32 || Summarization.Out.Max != 80 {
		t.Fatalf("task S spec wrong: %+v", Summarization)
	}
	if Translation.Rho < 0.5 {
		t.Fatal("translation should be highly correlated")
	}
	if ConvQA2.In.Max != 1024 || ConvQA2.Out.Max != 640 {
		t.Fatalf("task C2 spec wrong: %+v", ConvQA2)
	}
}

func TestByID(t *testing.T) {
	for _, id := range []string{"S", "T", "G", "C1", "C2", "WMT", "Alpaca", "CNN"} {
		task, err := ByID(id)
		if err != nil {
			t.Fatalf("ByID(%s): %v", id, err)
		}
		if task.ID != id {
			t.Fatalf("ByID(%s) returned %s", id, task.ID)
		}
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown task should error")
	}
}

func TestDistsMatchSpecs(t *testing.T) {
	for _, task := range Tasks {
		in, out, err := task.Dists()
		if err != nil {
			t.Fatalf("%s: %v", task.ID, err)
		}
		// Truncation skews moments for wide distributions (e.g. task S
		// input std 252 vs mean 256), so allow generous bounds.
		if math.Abs(in.Mean()-task.In.Avg)/task.In.Avg > 0.35 {
			t.Errorf("%s input mean %v vs spec %v", task.ID, in.Mean(), task.In.Avg)
		}
		if math.Abs(out.Mean()-task.Out.Avg)/task.Out.Avg > 0.35 {
			t.Errorf("%s output mean %v vs spec %v", task.ID, out.Mean(), task.Out.Avg)
		}
		if in.Max() != task.In.Max || out.Max() != task.Out.Max {
			t.Errorf("%s support bounds wrong", task.ID)
		}
	}
}

// Output p99 should land near the Table 3 99th-percentile column.
func TestOutputP99(t *testing.T) {
	cases := []struct {
		task Task
		p99  int
	}{
		{Summarization, 63}, {Translation, 292}, {CodeGeneration, 417},
		{ConvQA1, 137}, {ConvQA2, 579},
	}
	for _, c := range cases {
		_, out, err := c.task.Dists()
		if err != nil {
			t.Fatal(err)
		}
		got := out.Percentile(0.99)
		if math.Abs(float64(got-c.p99))/float64(c.p99) > 0.10 {
			t.Errorf("%s p99 = %d, want ~%d", c.task.ID, got, c.p99)
		}
	}
}

func TestRealDatasetsLongTail(t *testing.T) {
	for _, task := range []Task{WMT, Alpaca, CNN} {
		_, out, err := task.Dists()
		if err != nil {
			t.Fatalf("%s: %v", task.ID, err)
		}
		if sk := skewness(out); sk <= 0.3 {
			t.Errorf("%s output skewness = %v, want long right tail", task.ID, sk)
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	g1, err := NewGenerator(Translation, 11)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := NewGenerator(Translation, 11)
	for i := 0; i < 100; i++ {
		a, b := g1.Next(), g2.Next()
		if a != b {
			t.Fatalf("generators diverged at %d: %+v vs %+v", i, a, b)
		}
		if a.ID != i {
			t.Fatalf("request ID = %d, want %d", a.ID, i)
		}
	}
}

func TestGeneratorBounds(t *testing.T) {
	g, err := NewGenerator(CodeGeneration, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range g.Batch(2000) {
		if r.InLen < 1 || r.InLen > 128 || r.OutLen < 1 || r.OutLen > 480 {
			t.Fatalf("request out of bounds: %+v", r)
		}
	}
}

func TestRandomizeInputsBreaksCorrelation(t *testing.T) {
	corr := func(randomize bool) float64 {
		g, err := NewGenerator(Translation, 99)
		if err != nil {
			t.Fatal(err)
		}
		g.RandomizeInputs = randomize
		reqs := g.Batch(6000)
		var sx, sy, sxx, syy, sxy float64
		for _, r := range reqs {
			x, y := float64(r.InLen), float64(r.OutLen)
			sx += x
			sy += y
			sxx += x * x
			syy += y * y
			sxy += x * y
		}
		n := float64(len(reqs))
		return (sxy/n - sx/n*sy/n) / math.Sqrt((sxx/n-sx/n*sx/n)*(syy/n-sy/n*sy/n))
	}
	if c := corr(false); c < 0.5 {
		t.Fatalf("correlated sampling corr = %v, want high", c)
	}
	if c := corr(true); math.Abs(c) > 0.1 {
		t.Fatalf("randomized sampling corr = %v, want ~0", c)
	}
}

func TestSplit(t *testing.T) {
	g, _ := NewGenerator(Summarization, 1)
	reqs := g.Batch(100)
	est, eval := Split(reqs, 0.1)
	if len(est) != 10 || len(eval) != 90 {
		t.Fatalf("split sizes %d/%d", len(est), len(eval))
	}
	est, eval = Split(reqs, -1)
	if len(est) != 0 || len(eval) != 100 {
		t.Fatal("negative fraction should clamp to 0")
	}
	est, _ = Split(reqs, 2)
	if len(est) != 100 {
		t.Fatal("fraction > 1 should clamp")
	}
}

func TestEstimateDists(t *testing.T) {
	g, _ := NewGenerator(ConvQA1, 2)
	reqs := g.Batch(5000)
	in, out, err := EstimateDists(reqs)
	if err != nil {
		t.Fatal(err)
	}
	trueIn, trueOut := g.biv.In, g.biv.Out
	if math.Abs(in.Mean()-trueIn.Mean())/trueIn.Mean() > 0.05 {
		t.Fatalf("estimated in mean %v vs %v", in.Mean(), trueIn.Mean())
	}
	if math.Abs(out.Mean()-trueOut.Mean())/trueOut.Mean() > 0.05 {
		t.Fatalf("estimated out mean %v vs %v", out.Mean(), trueOut.Mean())
	}
	if _, _, err := EstimateDists(nil); err == nil {
		t.Fatal("empty estimate should error")
	}
}

func TestByIDCoversAllTasks(t *testing.T) {
	for _, want := range append(append([]Task{}, Tasks...), RealDatasets...) {
		got, err := ByID(want.ID)
		if err != nil {
			t.Fatalf("ByID(%q): %v", want.ID, err)
		}
		if got != want {
			t.Fatalf("ByID(%q) = %+v, want %+v", want.ID, got, want)
		}
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("ByID(nope) did not error")
	}
}

// skewness returns the standardized third moment of d.
func skewness(d *seqdist.Dist) float64 {
	m, sd := d.Mean(), d.Std()
	if sd == 0 {
		return 0
	}
	sk := 0.0
	for s := 1; s <= d.Max(); s++ {
		z := (float64(s) - m) / sd
		sk += z * z * z * d.PMF(s)
	}
	return sk
}
