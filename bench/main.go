// Command bench is the repository's end-to-end benchmark. It runs three
// workloads, each in its own child process, checks their outputs, and
// prints every end-to-end metric by name with its unit:
//
//	sweep-paper   `exegpt sweep` on its default grid (Figs 6-8)
//	search-cost   cold FindBestMany on every Table 2 deployment (§7.7)
//	serve-ladder  `exegpt serve` at fixed Poisson rates
//
// Run it from the repository root (see bench/README.md):
//
//	sh bench/run.sh                          all three workloads
//	sh bench/run.sh -workload search-cost -seed 7
//	sh bench/run.sh -workload sweep-paper -trace 1
//	sh bench/run.sh -compare A/ B/           compare two sets of results
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A result file per workload run
// goes to -out; a traced run also writes spans-<workload>.json there.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"time"
)

// root is the repository root: the directory holding BENCHMARK.json.
var root = "."

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload: sweep-paper, search-cost or serve-ladder (default all three)")
	seed := fs.Int64("seed", 42, "workload seed (7 is the held-out seed)")
	seconds := fs.Float64("seconds", 0, "seconds of timed passes per workload (0 = run_seconds from BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and a spans file instead of the end-to-end metrics")
	out := fs.String("out", filepath.Join(".bench_build", "results"), "directory for result and spans files")
	compare := fs.Bool("compare", false, "compare two sets of result files (arguments: files or directories, one directory per set)")
	pin := fs.Bool("pin", false, "write this run's output digests to bench/digests.json (seed 42 only)")
	child := fs.Bool("child", false, "run one workload in this process and print its result (the parent uses this)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	if root, err = findRoot(); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *compare {
		if err := compareMain(fs.Args(), spec, stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *pin && *seed != 42 {
		fmt.Fprintln(stderr, "bench: -pin needs -seed 42")
		return 2
	}
	if *child {
		cfg := config{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1,
			minPasses: minPasses[*name], setupReps: 5, probeReps: 5}
		if *trace == 1 {
			cfg.minPasses = 2
		}
		if *seed == 42 && !*pin {
			pinned, err := loadDigests()
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			cfg.pinned = pinned.Workloads[*name]
			if cfg.pinned == nil {
				cfg.pinned = map[string]string{}
			}
		}
		if err := childMain(cfg, *out, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}

	names := workloadNames
	if *name != "" {
		if !slices.Contains(workloadNames, *name) {
			fmt.Fprintf(stderr, "bench: unknown workload %q (want one of %v)\n", *name, workloadNames)
			return 2
		}
		names = []string{*name}
	}
	flags := []string{"-seed", strconv.FormatInt(*seed, 10), "-seconds", strconv.FormatFloat(*seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(*trace), "-out", *out}
	if *pin {
		flags = append(flags, "-pin")
	}
	var results []*result
	pins := map[string]map[string]string{}
	for _, n := range names {
		res, err := runChild(n, flags, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", n, err)
			return 1
		}
		// Digests are only needed for pinning; keep result files small.
		pins[n], res.Digests = res.Digests, nil
		path, err := writeResult(*out, res)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		printResult(stdout, res, spec, path)
		results = append(results, res)
	}
	if *pin {
		if err := pinDigests(results, pins); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	line, ok, err := summaryLine(results, spec)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if !ok {
		return 1
	}
	return 0
}

// findRoot locates BENCHMARK.json in the working directory or its
// parent (tests run from bench/).
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", errors.New("BENCHMARK.json not found: run from the repository root")
}

// childMain runs one workload and prints its result as one JSON line.
func childMain(cfg config, out string, stdout, stderr io.Writer) error {
	res, err := runWorkload(cfg, stderr)
	if err != nil {
		return err
	}
	if cfg.trace {
		if err := writeSpans(out, res); err != nil {
			return err
		}
	}
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", data)
	return err
}

// runChild runs one workload in a child process of this binary and
// waits for it.
func runChild(name string, flags []string, stderr io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, append([]string{"-child", "-workload", name}, flags...)...)
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	var res result
	if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &res); err != nil {
		return nil, fmt.Errorf("child result: %w", err)
	}
	return &res, nil
}

func writeResult(dir string, res *result) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	kind := "plain"
	if res.Trace {
		kind = "traced"
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s-%d.json", res.Workload, res.Seed, kind, time.Now().UnixNano()))
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// spansFile is the layout of spans-<workload>.json.
type spansFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Workers  int    `json:"workers"`
	Spans    []span `json:"spans"`
}

func writeSpans(dir string, res *result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(spansFile{Workload: res.Workload, Seed: res.Seed,
		Workers: res.Stamp.Workers, Spans: res.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "spans-"+res.Workload+".json"), append(data, '\n'), 0o644)
}

// printResult prints a workload's metrics as a table: the declared ones
// of this run's kind first, then the rest it measured.
func printResult(w io.Writer, res *result, spec benchSpec, path string) {
	fmt.Fprintf(w, "== %s  seed %d  %s  rev %.12s  %s, nproc %d, GOMAXPROCS %d, workers %d\n",
		res.Workload, res.Seed, map[bool]string{false: "plain", true: "traced"}[res.Trace],
		res.Stamp.Revision, res.Stamp.Go, res.Stamp.NumCPU, res.Stamp.GOMAXPROCS, res.Stamp.Workers)
	declared := spec.declared(res.Trace)
	seen := map[string]bool{}
	var names []string
	for _, m := range declared {
		names = append(names, m.Name)
		seen[m.Name] = true
	}
	var rest []string
	for n := range res.Metrics {
		if !seen[n] {
			rest = append(rest, n)
		}
	}
	sort.Strings(rest)
	for _, n := range append(names, rest...) {
		if m, ok := res.Metrics[n]; ok {
			fmt.Fprintf(w, "  %-42s %16.6g %s\n", n, m.Value, m.Unit)
		}
	}
	fmt.Fprintf(w, "  correct %t, %d operations attempted, %d failed; %d timed passes; result %s\n",
		res.Correct, res.Attempted, res.Failed, len(res.PassWallS), path)
	for _, f := range res.Failures {
		fmt.Fprintln(w, "  FAILED", f)
	}
}

// summaryLine is the closing JSON line: for one workload its declared
// metrics; for several, every declared metric prefixed by its workload.
func summaryLine(results []*result, spec benchSpec) (string, bool, error) {
	type out struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
	o := out{Correct: true, Metrics: map[string]metric{}}
	for _, res := range results {
		o.Correct = o.Correct && res.Correct
		o.Attempted += res.Attempted
		o.Failed += res.Failed
		for _, m := range spec.declared(res.Trace) {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				return "", false, fmt.Errorf("%s: metric %s (%s) not measured", res.Workload, m.Name, m.Unit)
			}
			key := m.Name
			if len(results) > 1 {
				key = res.Workload + "/" + m.Name
			}
			o.Metrics[key] = got
		}
	}
	data, err := json.Marshal(o)
	return string(data), o.Correct, err
}

// digests is the layout of bench/digests.json: per workload, the
// sha256 of each operation's output at seed 42.
type digests struct {
	Seed      int64                        `json:"seed"`
	Workloads map[string]map[string]string `json:"workloads"`
}

func digestsPath() string { return filepath.Join(root, "bench", "digests.json") }

func loadDigests() (digests, error) {
	var d digests
	data, err := os.ReadFile(digestsPath())
	if err != nil {
		return d, err
	}
	return d, json.Unmarshal(data, &d)
}

func pinDigests(results []*result, pins map[string]map[string]string) error {
	d, err := loadDigests()
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	d.Seed = 42
	if d.Workloads == nil {
		d.Workloads = map[string]map[string]string{}
	}
	for _, res := range results {
		if !res.Correct {
			return fmt.Errorf("%s: not pinning a run that failed its checks", res.Workload)
		}
		d.Workloads[res.Workload] = pins[res.Workload]
	}
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(digestsPath(), append(data, '\n'), 0o644)
}
