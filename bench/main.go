// Command bench is the pepscale benchmark. It measures the search a pepid or
// pepd user waits on, end to end on the host clock and on the virtual LogGP
// clock, and a ladder of per-layer numbers taken from outside by timing
// calls into each layer's public functions. See README.md beside this file.
//
// Usage:
//
//	go run ./bench --workload batch_dense --seed 1 --seconds 15 --trace 0   one run, end-to-end metrics
//	go run ./bench --workload batch_dense --seed 1 --seconds 15 --trace 1   one run, per-layer metrics and a span trace
//	go run ./bench [-seed 1] [-seconds 15]                                   every workload, both passes, bench/out/results.json
//	go run ./bench compare A.json B.json                                     verdict per (workload, end-to-end metric)
//	go run ./bench manifest                                                  print BENCHMARK.json from the metric tables
//
// A single run prints every metric by name with its unit and ends with one
// JSON line: {"correct":…,"attempted":…,"failed":…,"metrics":{…}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// outDir holds everything a run leaves behind; .gitignore names it.
const outDir = "bench/out"

// runSeconds is how long one run measures unless told otherwise, and what
// BENCHMARK.json tells a driver. Slow regimes of a shared machine last 5 to
// 20 seconds; a shorter window too often lies wholly inside one.
const runSeconds = 15

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "manifest":
			os.Stdout.Write(manifestJSON())
			return
		}
	}
	var (
		name    = flag.String("workload", "", "run one workload (default: all, each in its own process)")
		seed    = flag.Uint64("seed", 1, "seed every input is generated from")
		seconds = flag.Float64("seconds", runSeconds, "how long one run measures")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from the traced pass")
		quick   = flag.Bool("quick", false, "use the small size table of the package's tests")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *name == "" {
		if err := runAll(*seed, *seconds, *quick); err != nil {
			fatal(err)
		}
		return
	}
	w, ok := findWorkload(workloads(*quick), *name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	var rec *runRecord
	var err error
	if *traced == 0 {
		rec, err = runEndToEnd(w, *seed, *seconds)
	} else {
		rec, err = runLayers(w, *seed, *seconds)
	}
	if err != nil {
		fatal(fmt.Errorf("%s: %w", w.Name, err))
	}
	if err := writeJSON(recordPath(w.Name, *traced), rec); err != nil {
		fatal(err)
	}
	rec.print(os.Stdout)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	os.Exit(1)
}

// searchProcs is the GOMAXPROCS the timed searches run at: the machine's
// cores, capped at four so a run is sized for a shared machine.
func searchProcs() int { return min(runtime.NumCPU(), 4) }

// env records where a run was measured.
type env struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func currentEnv() env {
	e := env{Commit: "unknown", GoVersion: runtime.Version(), CPUModel: "unknown",
		NumCPU: runtime.NumCPU(), GOMAXPROCS: searchProcs()}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

// runRecord is one run of one workload: what the final JSON line carries,
// plus each metric's range.
type runRecord struct {
	Workload  string            `json:"workload"`
	Trace     int               `json:"trace"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	InputHash string            `json:"input_hash"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]sample `json:"metrics"`
}

// count folds one search's failure accounting into the record.
func (r *runRecord) count(o *outcome) {
	r.Attempted += o.Attempted
	r.Failed += o.Failed
}

// print writes every metric by name and unit, then the one-line result.
func (r *runRecord) print(f *os.File) {
	defs := endToEnd
	if r.Trace != 0 {
		defs = perLayer
	}
	fmt.Fprintf(f, "%s seed=%d trace=%d input=%s\n", r.Workload, r.Seed, r.Trace, r.InputHash)
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]metric{}}
	for _, d := range defs {
		s := r.Metrics[d.Name]
		fmt.Fprintf(f, "  %-36s %14.6g %-6s", d.Name, s.Value, d.Unit)
		if s.N > 1 {
			fmt.Fprintf(f, "  [%.6g – %.6g, n=%d]", s.Min, s.Max, s.N)
		}
		if d.Name == "engine.unattributed_share" && s.Value > 0.25 {
			fmt.Fprint(f, "  WARNING: over a quarter of the 1-core run is not covered by the replayed layers")
		}
		fmt.Fprintln(f)
		line.Metrics[d.Name] = metric{s.Value, d.Unit}
	}
	fmt.Fprintf(f, "  fail_share %d/%d\n", r.Failed, r.Attempted)
	out, _ := json.Marshal(line)
	fmt.Fprintf(f, "%s\n", out)
}

// A run sets up at least minSetups times, and more (up to maxSetups) while
// set-up has taken under a tenth of the measuring window in all; setup_s is
// their fastest, like every repeated host timing.
const minSetups, maxSetups = 3, 15

// runEndToEnd measures the end-to-end metrics of one workload with tracing
// off: set-up (several times), one untimed warm-up search, then timed
// searches until the window closes; host timings report the window's
// fastest (see fastest in metrics.go). Every search is checked against the
// oracle, and every virtual number must repeat exactly from search to
// search.
func runEndToEnd(w workload, seed uint64, seconds float64) (*runRecord, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(searchProcs()))
	rec := &runRecord{Workload: w.Name, Seed: seed, Seconds: seconds, Metrics: map[string]sample{}}
	var in *inputs
	var setups []float64
	for total := 0.0; len(setups) < minSetups || (total < seconds/10 && len(setups) < maxSetups); {
		t0 := time.Now()
		var err error
		if in, err = setup(w, seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		total += setups[len(setups)-1]
	}
	rec.InputHash = fmt.Sprintf("%016x", in.Hash)

	first, err := search(w, in, w.RefRate, false, nil)
	if err != nil {
		return nil, fmt.Errorf("warm-up search: %w", err)
	}
	rec.count(first)

	var host, rates, alloc []float64
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(host) < 3 || time.Now().Before(deadline) {
		runtime.GC() // every search starts from the same heap
		o, err := search(w, in, w.RefRate, false, nil)
		if err != nil {
			return nil, fmt.Errorf("search %d: %w", len(host)+1, err)
		}
		rec.count(o)
		if o.VirtualRunSec != first.VirtualRunSec {
			return nil, fmt.Errorf("virtual run-time moved between identical searches: %v then %v", first.VirtualRunSec, o.VirtualRunSec)
		}
		host = append(host, o.HostSec)
		rates = append(rates, float64(o.Attempted-o.Failed)/o.HostSec)
		alloc = append(alloc, float64(o.AllocBytes)/1e6)
	}
	rec.Correct = rec.Failed == 0

	rec.Metrics["setup_s"] = fastest(setups, "s")
	rec.Metrics["search_host_s"] = fastest(host, "s")
	qps := summarize(rates, "1/s")
	qps.Value = qps.Max // the rate of the fastest search
	rec.Metrics["queries_per_host_s"] = qps
	rec.Metrics["alloc_mb"] = summarize(alloc, "MB")
	rec.Metrics["virtual_run_s"] = single(first.VirtualRunSec, "s")
	p50, p95, err := sojourn(w, first)
	if err != nil {
		return nil, err
	}
	rec.Metrics["sojourn_p50_virtual_s"] = single(p50, "s")
	rec.Metrics["sojourn_p95_virtual_s"] = single(p95, "s")
	return rec, nil
}

// sojourn returns the median and p95 virtual time from a query's arrival to
// its result. A batch is a burst at time zero whose results all appear when
// the run ends, so both equal the virtual run-time there.
func sojourn(w workload, o *outcome) (p50, p95 float64, err error) {
	if w.Engine != engineServe {
		return o.VirtualRunSec, o.VirtualRunSec, nil
	}
	if err := requireTail(len(o.Sojourn), 0.95); err != nil {
		return 0, 0, fmt.Errorf("sojourn at %g q/s: %w", w.RefRate, err)
	}
	return percentile(o.Sojourn, 0.50), percentile(o.Sojourn, 0.95), nil
}

// runAll runs every workload in its own child process, the end-to-end pass
// and then the traced pass, exactly as a driver would, and gathers the
// records into results.json.
func runAll(seed uint64, seconds float64, quick bool) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	results := struct {
		Env  env          `json:"env"`
		Seed uint64       `json:"seed"`
		Runs []*runRecord `json:"runs"`
	}{Env: currentEnv(), Seed: seed}
	failed := 0
	for _, w := range workloads(quick) {
		for _, traced := range []int{0, 1} {
			args := []string{"--workload", w.Name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(traced)}
			if quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s trace=%d: %w", w.Name, traced, err)
			}
			var rec runRecord
			if err := readJSON(recordPath(w.Name, traced), &rec); err != nil {
				return err
			}
			failed += rec.Failed
			results.Runs = append(results.Runs, &rec)
		}
	}
	path := filepath.Join(outDir, "results.json")
	if err := writeJSON(path, results); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d failed queries)\n", path, failed)
	return nil
}

func recordPath(workload string, traced int) string {
	return filepath.Join(outDir, fmt.Sprintf("%s.trace%d.json", workload, traced))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// manifestJSON renders BENCHMARK.json from the workload and metric tables.
func manifestJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"go", "run", "./bench"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads(false) {
		m.Workloads = append(m.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	out, _ := json.MarshalIndent(m, "", "  ")
	return append(out, '\n')
}
