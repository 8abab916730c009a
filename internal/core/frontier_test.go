package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"exegpt/internal/sched"
)

// fp builds a feasible estimate with a distinguishable config.
func fp(lat, tput float64, bd int) *Estimate {
	return &Estimate{
		Config:   sched.Config{Policy: sched.RRA, BD: bd, BE: 1, ND: 1, Bm: 1, TP: sched.TPSpec{Degree: 1}},
		Feasible: true, Latency: lat, Throughput: tput,
	}
}

func TestFrontierAddAndBestUnder(t *testing.T) {
	var f Frontier
	if _, ok := f.BestUnder(10); ok {
		t.Fatal("empty frontier answered a query")
	}
	if !f.Add(fp(2, 5, 1)) {
		t.Fatal("first point rejected")
	}
	if !f.Add(fp(4, 9, 2)) {
		t.Fatal("non-dominated point rejected")
	}
	// Dominated: higher latency, lower throughput.
	if f.Add(fp(5, 3, 3)) {
		t.Fatal("dominated point joined")
	}
	// Dominating: replaces both existing points.
	if !f.Add(fp(1, 12, 4)) {
		t.Fatal("dominating point rejected")
	}
	if f.Len() != 1 {
		t.Fatalf("frontier kept %d points after a global dominator, want 1", f.Len())
	}
	est, ok := f.BestUnder(2)
	if !ok || est.Config.BD != 4 {
		t.Fatalf("BestUnder(2) = %+v, %v", est, ok)
	}
	// Strictly-below semantics: a bound equal to the point's latency
	// does not qualify.
	if _, ok := f.BestUnder(1); ok {
		t.Fatal("BestUnder must require latency strictly below the bound")
	}
}

func TestFrontierRejectsInfeasibleAndNonFinite(t *testing.T) {
	var f Frontier
	bad := fp(2, 5, 1)
	bad.Feasible = false
	if f.Add(bad) {
		t.Fatal("infeasible estimate joined")
	}
	if f.Add(fp(math.Inf(1), 5, 1)) {
		t.Fatal("infinite-latency estimate joined")
	}
	if f.Len() != 0 {
		t.Fatalf("frontier not empty: %d", f.Len())
	}
}

// TestFrontierTieBreak: equal throughput keeps the canonically smaller
// config available at its latency, exactly like the search incumbent.
func TestFrontierTieBreak(t *testing.T) {
	var f Frontier
	f.Add(fp(2, 5, 9)) // larger config, lower latency
	f.Add(fp(4, 5, 3)) // canonically smaller config, higher latency
	// Under a bound covering both, the canonical tie-break wins.
	est, ok := f.BestUnder(10)
	if !ok || est.Config.BD != 3 {
		t.Fatalf("BestUnder(10) = BD %d, want 3 (canonical tie-break)", est.Config.BD)
	}
	// Under a bound covering only the low-latency point, it answers.
	est, ok = f.BestUnder(3)
	if !ok || est.Config.BD != 9 {
		t.Fatalf("BestUnder(3) = BD %d, want 9", est.Config.BD)
	}
	// The same config offered twice must not duplicate.
	n := f.Len()
	if f.Add(fp(4, 5, 3)) || f.Len() != n {
		t.Fatal("duplicate point changed the frontier")
	}
}

// TestFrontierOrderIndependent: the frontier is a function of the point
// set, not the insertion order.
func TestFrontierOrderIndependent(t *testing.T) {
	pts := []*Estimate{
		fp(1, 2, 1), fp(2, 4, 2), fp(2.5, 4, 1), fp(3, 6, 3),
		fp(4, 6, 2), fp(5, 5, 4), fp(6, 9, 5), fp(0.5, 1, 6),
	}
	var want Frontier
	for _, p := range pts {
		want.Add(p)
	}
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		shuffled := append([]*Estimate(nil), pts...)
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		var f Frontier
		for _, p := range shuffled {
			f.Add(p)
		}
		if !reflect.DeepEqual(f, want) {
			t.Fatalf("trial %d: frontier depends on insertion order\n got %+v\nwant %+v", trial, f, want)
		}
	}
}

func TestFrontierInvariants(t *testing.T) {
	var f Frontier
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		f.Add(fp(1+9*r.Float64(), 1+9*r.Float64(), 1+r.Intn(50)))
	}
	for i := 1; i < f.Len(); i++ {
		a, b := f.Points[i-1], f.Points[i]
		if a.Latency >= b.Latency {
			t.Fatalf("latency not strictly increasing at %d: %v >= %v", i, a.Latency, b.Latency)
		}
		if !better(&b.Est, &a.Est) {
			t.Fatalf("preference not strictly increasing at %d", i)
		}
	}
}

func TestFrontierMergeMatchesUnion(t *testing.T) {
	pts := []*Estimate{fp(1, 2, 1), fp(2, 4, 2), fp(3, 6, 3), fp(4, 5, 4), fp(5, 9, 5)}
	var all Frontier
	for _, p := range pts {
		all.Add(p)
	}
	var a, b Frontier
	for i, p := range pts {
		if i%2 == 0 {
			a.Add(p)
		} else {
			b.Add(p)
		}
	}
	a.Merge(&b)
	if !reflect.DeepEqual(a, all) {
		t.Fatalf("merge != union\n got %+v\nwant %+v", a, all)
	}
}
