package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// compareMain compares two sets of result files, A (the parent) and B
// (the change). Arguments are files or directories; each set is the
// files of one directory, the first directory named being A. For each
// workload and metric it prints both sides' median and quartiles, B's
// share of won pairs and a verdict.
func compareMain(args []string, spec benchSpec, w io.Writer) error {
	sets, err := resultSets(args)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A = %s (%d runs)\nB = %s (%d runs)\n", sets[0].dir, len(sets[0].runs), sets[1].dir, len(sets[1].runs))
	fmt.Fprintf(w, "%-13s %-38s %-6s %29s %29s %5s  %s\n", "workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "wins", "verdict")
	for _, wl := range workloadNames {
		for _, traced := range []bool{false, true} {
			a, b := sets[0].pick(wl, traced), sets[1].pick(wl, traced)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			for _, name := range metricNames(a, b) {
				def, _ := spec.lookup(name)
				c := compareMetric(a, b, name, def)
				fmt.Fprintf(w, "%-13s %-38s %-6s %29s %29s %5.2f  %s\n", wl, name, def.Unit,
					fmtSpread(c.medA, c.q1A, c.q3A), fmtSpread(c.medB, c.q1B, c.q3B), c.wins, c.verdict)
			}
		}
	}
	return nil
}

type resultSet struct {
	dir  string
	runs []*result
}

// resultSets loads the arguments into exactly two sets by directory.
func resultSets(args []string) ([2]resultSet, error) {
	var sets []resultSet
	add := func(path string) error {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		dir := filepath.Dir(path)
		for i := range sets {
			if sets[i].dir == dir {
				sets[i].runs = append(sets[i].runs, &r)
				return nil
			}
		}
		sets = append(sets, resultSet{dir: dir, runs: []*result{&r}})
		return nil
	}
	for _, arg := range args {
		paths := []string{arg}
		if st, err := os.Stat(arg); err == nil && st.IsDir() {
			paths, _ = filepath.Glob(filepath.Join(arg, "*.json")) // the pattern is well formed
		}
		for _, p := range paths {
			if strings.HasPrefix(filepath.Base(p), "spans-") {
				continue
			}
			if err := add(p); err != nil {
				return [2]resultSet{}, err
			}
		}
	}
	if len(sets) != 2 {
		return [2]resultSet{}, fmt.Errorf("-compare needs result files from exactly two directories, got %d", len(sets))
	}
	return [2]resultSet{sets[0], sets[1]}, nil
}

// pick returns the runs of one workload and kind, ordered by seed and
// then by time, which is how runs are paired.
func (s resultSet) pick(workload string, traced bool) []*result {
	var out []*result
	for _, r := range s.runs {
		if r.Workload == workload && r.Trace == traced {
			out = append(out, r)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Seed != out[j].Seed {
			return out[i].Seed < out[j].Seed
		}
		return out[i].Stamp.Unix < out[j].Stamp.Unix
	})
	return out
}

// metricNames lists the metrics both sides measured.
func metricNames(a, b []*result) []string {
	inB := map[string]bool{}
	for _, r := range b {
		for n := range r.Metrics {
			inB[n] = true
		}
	}
	seen := map[string]bool{}
	var names []string
	for _, r := range a {
		for n := range r.Metrics {
			if inB[n] && !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	sort.Strings(names)
	return names
}

type comparison struct {
	medA, q1A, q3A float64
	medB, q1B, q3B float64
	wins           float64
	verdict        string
}

// compareMetric applies the rule of the choosing-metrics guide (§6.5,
// §8): B improved when it wins at least nine tenths of the pairs and the
// medians differ by more than A's quartile spread; B is worse when its
// median is worse than A's by more than the bound; the result is
// unresolved when A's spread is wider than the bound, unless every run
// of B beats every run of A. Runs pair up by seed, in time order. A
// metric with bound 0 is a simulated outcome, fixed by the seed, so only
// pairs can judge it and any change that is not an improvement is worse.
func compareMetric(a, b []*result, name string, def specMetric) comparison {
	va, vb := values(a, name), values(b, name)
	var c comparison
	c.medA, c.medB = median(va), median(vb)
	c.q1A, c.q3A = quartiles(va)
	c.q1B, c.q3B = quartiles(vb)
	sign := 1.0 // > 0 means B is better
	if def.Better == "lower" {
		sign = -1
	}
	pairs, wins, equal := 0, 0, 0
	used := make([]bool, len(b))
	for _, ra := range a {
		for j, rb := range b {
			if used[j] || rb.Seed != ra.Seed {
				continue
			}
			used[j] = true
			pairs++
			d := sign * (rb.Metrics[name].Value - ra.Metrics[name].Value)
			switch {
			case d > 0:
				wins++
			case d == 0:
				equal++
			}
			break
		}
	}
	c.wins = math.NaN()
	if pairs > 0 {
		c.wins = float64(wins) / float64(pairs)
	}
	gain := sign * (c.medB - c.medA)
	spread := c.q3A - c.q1A
	// Every run of B beats every run of A when B's worst beats A's best.
	allBetter := sign*(minOrMax(vb, sign > 0)-minOrMax(va, sign < 0)) > 0
	deterministic := def.Bound != nil && *def.Bound == 0
	switch {
	case deterministic && pairs == 0:
		c.verdict = "unpaired"
	case pairs > 0 && equal == pairs:
		c.verdict = "unchanged"
	case deterministic && c.wins >= 0.9:
		c.verdict = "improved"
	case deterministic:
		c.verdict = "worse"
	case pairs > 0 && c.wins >= 0.9 && gain > spread:
		c.verdict = "improved"
	case def.Bound == nil:
		// Per-layer metrics have no bound: a change is only "worse" by
		// the mirror of the improvement rule.
		if pairs > 0 && float64(pairs-wins-equal)/float64(pairs) >= 0.9 && -gain > spread {
			c.verdict = "worse"
		} else {
			c.verdict = "no claim"
		}
	case -gain > *def.Bound*math.Abs(c.medA):
		c.verdict = "worse"
	case spread > *def.Bound*math.Abs(c.medA) && !allBetter:
		c.verdict = "unresolved"
	default:
		c.verdict = "unchanged"
	}
	return c
}

func values(rs []*result, name string) []float64 {
	var xs []float64
	for _, r := range rs {
		xs = append(xs, r.Metrics[name].Value)
	}
	return xs
}

// minOrMax returns the smallest value when lowest is set, else the largest.
func minOrMax(xs []float64, lowest bool) float64 {
	s := sorted(xs)
	if lowest {
		return s[0]
	}
	return s[len(s)-1]
}

func fmtSpread(med, q1, q3 float64) string {
	return fmt.Sprintf("%.5g [%.5g, %.5g]", med, q1, q3)
}
