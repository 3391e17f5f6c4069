package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "root", Start: 0, End: 100 * ms, Parent: -1},
		{Name: "a", Start: 10 * ms, End: 40 * ms, Parent: 0},
		{Name: "a.inner", Start: 20 * ms, End: 30 * ms, Parent: 1},
		{Name: "b", Start: 50 * ms, End: 70 * ms, Parent: 0},
		{Name: "a", Start: 80 * ms, End: 85 * ms, Parent: 0},
	}
	want := []time.Duration{45 * ms, 20 * ms, 10 * ms, 20 * ms, 5 * ms}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	var total time.Duration
	for _, d := range selfTimes(spans) {
		total += d
	}
	if total != 100*ms {
		t.Errorf("self times sum to %v, want the root's 100ms", total)
	}
}

func TestRecorderLinksSpansToTheirCause(t *testing.T) {
	r := newRecorder("w")
	r.in("outer", func() {
		r.in("first", func() {})
		r.in("second", func() { r.in("leaf", func() {}) })
	})
	var parents []int
	for _, s := range r.spans {
		parents = append(parents, s.Parent)
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	if want := []int{-1, 0, 0, 2}; !reflect.DeepEqual(parents, want) {
		t.Errorf("parents = %v, want %v", parents, want)
	}
	var nilRec *recorder
	ran := false
	if sec := nilRec.in("untraced", func() { ran = true }); sec < 0 || !ran {
		t.Error("a nil recorder must run and time the call without recording")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.95); got != 7 {
		t.Errorf("percentile of one sample = %v", got)
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median = %v", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	if got := samplesBeyond(240, 0.95); got != 12 {
		t.Errorf("samplesBeyond(240, p95) = %d, want 12", got)
	}
	if err := requireTail(200, 0.95); err != nil {
		t.Errorf("200 samples support p95: %v", err)
	}
	if err := requireTail(199, 0.95); err == nil {
		t.Error("199 samples leave 9 beyond p95; want an error")
	}
	if err := requireTail(960, 0.99); err == nil {
		t.Error("960 samples leave 9 beyond p99; want an error")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestWithinContract checks the tables BENCHMARK.json is generated
// from against the limits a driver enforces, and that the checked-in file
// is the generated one.
func TestManifestWithinContract(t *testing.T) {
	ws := workloads(false)
	if len(ws) < 2 || len(ws) > 8 || len(endToEnd) < 1 || len(endToEnd) > 16 || len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer metrics: caps are 2–8, 1–16, 1–128", len(ws), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	use := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range ws {
		use(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		use(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is outside %v", d.Name, d.Unit, unitRE)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range perLayer {
		if d.Layer == "" || d.Moves == "" {
			t.Errorf("%s: a per-layer metric names its layer and what it should move", d.Name)
		}
	}
	if d, ok := findMetric(endToEnd, "setup_s"); !ok || d.Unit != "s" || d.Better != "lower" {
		t.Error("setup_s (s, lower) must be an end-to-end metric")
	}

	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(onDisk) != string(manifestJSON()) {
		t.Error("BENCHMARK.json differs from the tables; regenerate it with: go run ./bench manifest > BENCHMARK.json")
	}
	if len(onDisk) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(onDisk))
	}
}

func TestVerdict(t *testing.T) {
	host := metricDef{Name: "search_host_s", Better: "lower", Bound: 0.10}
	rate := metricDef{Name: "queries_per_host_s", Better: "higher", Bound: 0.10}
	exact := metricDef{Name: "virtual_run_s", Better: "lower", Bound: 0.10, Exact: true}
	s := func(v, lo, hi float64) sample { return sample{Value: v, Min: lo, Max: hi, N: 5} }
	for _, c := range []struct {
		name string
		d    metricDef
		a, b sample
		want string
	}{
		{"same", host, s(1, 0.98, 1.03), s(1.01, 0.99, 1.04), verdictOK},
		{"within bound", host, s(1, 0.98, 1.03), s(1.08, 1.05, 1.09), verdictOK},
		{"beyond bound, ranges apart", host, s(1, 0.98, 1.03), s(1.2, 1.15, 1.25), verdictWorse},
		{"beyond bound, inside a's own spread", host, s(1, 0.9, 1.2), s(1.15, 0.95, 1.3), verdictUnresolved},
		{"within bound, slow tails do not matter", host, s(1, 0.98, 1.6), s(1.02, 0.99, 1.7), verdictOK},
		{"every run better", host, s(1, 0.8, 1.3), s(0.7, 0.65, 0.75), verdictOK},
		{"higher is better: drop beyond bound", rate, s(100, 98, 102), s(80, 78, 82), verdictWorse},
		{"higher is better: rise", rate, s(100, 98, 102), s(130, 125, 140), verdictOK},
		{"exact equal", exact, s(6.5, 6.5, 6.5), s(6.5, 6.5, 6.5), verdictOK},
		{"exact moved, even for the better", exact, s(6.5, 6.5, 6.5), s(6.4999, 6.4999, 6.4999), verdictWorse},
	} {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestSeedDeterminesInputsAndVirtualMetrics: the same seed gives the same
// inputs and exactly the same virtual numbers from two searches; another
// seed gives other inputs.
func TestSeedDeterminesInputsAndVirtualMetrics(t *testing.T) {
	for _, w := range workloads(true) {
		in, err := setup(w, 1)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		again, err := setup(w, 1)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		other, err := setup(w, 2)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if in.Hash != again.Hash {
			t.Errorf("%s: seed 1 gave input hashes %x and %x", w.Name, in.Hash, again.Hash)
		}
		if in.Hash == other.Hash {
			t.Errorf("%s: seeds 1 and 2 gave the same input hash %x", w.Name, in.Hash)
		}
		a, err := search(w, in, w.RefRate, false, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		b, err := search(w, again, w.RefRate, false, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if a.Failed != 0 || a.Attempted == 0 {
			t.Errorf("%s: %d of %d queries failed", w.Name, a.Failed, a.Attempted)
		}
		if a.VirtualRunSec != b.VirtualRunSec || !reflect.DeepEqual(a.Sojourn, b.Sojourn) ||
			!reflect.DeepEqual(a.Metrics, b.Metrics) || a.Stats != b.Stats || a.CkptBytes != b.CkptBytes {
			t.Errorf("%s: virtual metrics differ between two searches of the same inputs", w.Name)
		}
	}
}

// TestSearchCountsFailures: a search whose output differs from the oracle
// reports the differing queries as failed.
func TestSearchCountsFailures(t *testing.T) {
	w, _ := findWorkload(workloads(true), "batch_dense")
	in, err := setup(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := &in.Oracle.Queries[0]
	if len(q.Hits) == 0 {
		t.Fatal("oracle query 0 has no hits to corrupt")
	}
	q.Hits[0].Score++
	o, err := search(w, in, 0, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.Failed != 1 {
		t.Errorf("failed = %d of %d, want 1", o.Failed, o.Attempted)
	}
}

// TestRunsReportEveryDeclaredMetric runs both passes of every workload at
// the quick sizes from an empty directory, as a driver's checkout would.
func TestRunsReportEveryDeclaredMetric(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })

	for _, w := range workloads(true) {
		for _, rate := range w.SweepRates {
			if _, ok := findMetric(perLayer, fmt.Sprintf("serve.sojourn_p95_virtual_s.r%g", rate)); !ok {
				t.Errorf("%s: sweep rate %v has no declared p95 metric", w.Name, rate)
			}
		}
		e2e, err := runEndToEnd(w, 3, 0.05)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		layers, err := runLayers(w, 3, 0.05)
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		for _, run := range []struct {
			rec  *runRecord
			defs []metricDef
		}{{e2e, endToEnd}, {layers, perLayer}} {
			if !run.rec.Correct || run.rec.Failed != 0 || run.rec.Attempted == 0 {
				t.Errorf("%s trace=%d: %d of %d queries failed", w.Name, run.rec.Trace, run.rec.Failed, run.rec.Attempted)
			}
			if len(run.rec.Metrics) != len(run.defs) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w.Name, run.rec.Trace, len(run.rec.Metrics), len(run.defs))
			}
		}
		for _, d := range endToEnd {
			if e2e.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, d.Name, e2e.Metrics[d.Name].Value)
			}
		}

		data, err := os.ReadFile(filepath.Join(outDir, w.Name+".trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		var trace struct {
			TraceEvents []chromeEvent `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &trace); err != nil {
			t.Fatalf("%s: trace does not load: %v", w.Name, err)
		}
		names := map[string]bool{}
		for _, ev := range trace.TraceEvents {
			names[ev.Name] = true
			if ev.Ph != "X" || ev.Dur < 0 || ev.Args["workload"] != w.Name {
				t.Errorf("%s: malformed trace event %+v", w.Name, ev)
			}
		}
		for _, want := range []string{"search", "spectrum.ParseMGF", "fasta.ParseBytes", "replay", "core.Serial", "cluster.Barrier"} {
			if !names[want] {
				t.Errorf("%s: trace has no %q span", w.Name, want)
			}
		}
	}
}
