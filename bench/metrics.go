package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef declares one metric of the benchmark. BENCHMARK.json is
// generated from these tables (go run ./bench manifest).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// Exact marks a virtual-clock number: it is read from the engine's own
	// accounting, repeats exactly for a fixed seed, and compare tests it
	// with ==. A change that moves it is a model change, not an
	// optimisation.
	Exact bool
	// Layer is the module a per-layer metric measures.
	Layer string
	// Moves is the prediction written down before measuring: which
	// end-to-end metric this layer metric should move, on which workload.
	// Everywhere else the prediction is no change.
	Moves string
}

// endToEnd lists what a user of pepid or pepd sees. Every metric is defined
// on every workload. A bound should be three times the spread (inter-quartile
// range over median) seen over ten seeds; on the shared two-core machine this
// was written on, host timings spread 2–6 % in a calm hour and 10–36 % in a
// noisy one, and the virtual numbers 1–7 % between seeds (README.md has the
// tables), so every bound but allocation's is the largest allowed. For one
// seed the virtual metrics repeat exactly, and compare tests them with ==.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "search_host_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "queries_per_host_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "virtual_run_s", Unit: "s", Better: "lower", Bound: 0.25, Exact: true},
	{Name: "sojourn_p50_virtual_s", Unit: "s", Better: "lower", Bound: 0.25, Exact: true},
	{Name: "sojourn_p95_virtual_s", Unit: "s", Better: "lower", Bound: 0.25, Exact: true},
}

// Workload names used in the predictions below.
const (
	onSparse  = "batch_sparse"
	onDense   = "batch_dense"
	onFragidx = "batch_fragidx"
	onWide    = "scale_wide"
	onElastic = "elastic_churn"
	onServe   = "serve_stream"
)

// perLayer lists the layer ladder, bottom up. A workload reports 0 for a
// layer its search does not execute.
var perLayer = []metricDef{
	{Name: "fasta.parse_s", Unit: "s", Better: "lower", Layer: "fasta", Moves: "search_host_s on " + onSparse},
	{Name: "fasta.parse_mb_per_s", Unit: "MB/s", Better: "higher", Layer: "fasta", Moves: "search_host_s on " + onSparse},
	{Name: "spectrum.mgf_parse_s", Unit: "s", Better: "lower", Layer: "spectrum", Moves: "search_host_s on " + onDense},
	{Name: "spectrum.mgf_mb_per_s", Unit: "MB/s", Better: "higher", Layer: "spectrum", Moves: "search_host_s on " + onDense},
	{Name: "digest.index_build_s", Unit: "s", Better: "lower", Layer: "digest", Moves: "search_host_s, alloc_mb on " + onSparse},
	{Name: "digest.peptides_per_s", Unit: "1/s", Better: "higher", Layer: "digest", Moves: "search_host_s on " + onSparse},
	{Name: "digest.alloc_bytes_per_peptide", Unit: "B", Better: "lower", Layer: "digest", Moves: "alloc_mb on " + onSparse},
	{Name: "sortmz.sort_host_s", Unit: "s", Better: "lower", Layer: "sortmz", Moves: "search_host_s on " + onSparse},
	{Name: "fragidx.build_s", Unit: "s", Better: "lower", Layer: "fragidx", Moves: "search_host_s on " + onFragidx},
	{Name: "fragidx.build_alloc_mb", Unit: "MB", Better: "lower", Layer: "fragidx", Moves: "alloc_mb on " + onFragidx},
	{Name: "fragidx.frags_per_s", Unit: "1/s", Better: "higher", Layer: "fragidx", Moves: "search_host_s on " + onFragidx},
	{Name: "fragidx.e2e_vs_peptide_host_ratio", Unit: "ratio", Better: "lower", Layer: "fragidx", Moves: "search_host_s on " + onFragidx},
	{Name: "score.prepare_query_us", Unit: "us", Better: "lower", Layer: "score", Moves: "search_host_s on " + onDense + ", " + onServe},
	{Name: "score.score_ns_per_cand", Unit: "ns", Better: "lower", Layer: "score", Moves: "search_host_s on " + onDense},
	{Name: "scan.serial_host_s", Unit: "s", Better: "lower", Layer: "core", Moves: "search_host_s on " + onDense},
	{Name: "scan.self_s", Unit: "s", Better: "lower", Layer: "core", Moves: "search_host_s, queries_per_host_s on " + onDense},
	{Name: "scan.cand_per_host_s", Unit: "1/s", Better: "higher", Layer: "core", Moves: "queries_per_host_s on " + onDense},
	{Name: "scan.alloc_bytes_per_cand", Unit: "B", Better: "lower", Layer: "core", Moves: "alloc_mb on " + onDense},
	{Name: "scan.candidates", Unit: "count", Better: "lower", Layer: "core", Exact: true, Moves: "none: fixed by the input"},
	{Name: "topk.offer_ns", Unit: "ns", Better: "lower", Layer: "topk", Moves: "search_host_s on " + onWide},
	{Name: "topk.merge_ns_per_hit", Unit: "ns", Better: "lower", Layer: "topk", Moves: "search_host_s on " + onWide},
	{Name: "cluster.machine_new_s", Unit: "s", Better: "lower", Layer: "cluster", Moves: "search_host_s on " + onWide},
	{Name: "cluster.send_recv_host_ns", Unit: "ns", Better: "lower", Layer: "cluster", Moves: "search_host_s on " + onWide},
	{Name: "cluster.get_wait_host_ns", Unit: "ns", Better: "lower", Layer: "cluster", Moves: "search_host_s on " + onWide},
	{Name: "cluster.allreduce_host_ns", Unit: "ns", Better: "lower", Layer: "cluster", Moves: "search_host_s on " + onWide},
	{Name: "cluster.barrier_host_ns", Unit: "ns", Better: "lower", Layer: "cluster", Moves: "search_host_s on " + onWide},
	{Name: "engine.run_host_1core_s", Unit: "s", Better: "lower", Layer: "core", Moves: "search_host_s on every workload"},
	{Name: "engine.overhead_s", Unit: "s", Better: "lower", Layer: "core", Moves: "search_host_s on " + onWide + ", " + onElastic},
	{Name: "engine.host_parallel_speedup", Unit: "ratio", Better: "higher", Layer: "core", Moves: "search_host_s on every workload"},
	{Name: "engine.host_s_per_virtual_s", Unit: "ratio", Better: "lower", Layer: "core", Moves: "search_host_s on every workload"},
	{Name: "engine.mallocs_per_cand", Unit: "count", Better: "lower", Layer: "core", Moves: "alloc_mb on " + onWide},
	{Name: "engine.unattributed_share", Unit: "ratio", Better: "lower", Layer: "core", Moves: "none: coverage of the ladder"},
	{Name: "process.peak_rss_mb", Unit: "MB", Better: "lower", Layer: "process", Moves: "none: reported, not gated"},
	{Name: "engine.virtual_compute_s", Unit: "s", Better: "lower", Layer: "core", Exact: true, Moves: "virtual_run_s"},
	{Name: "engine.virtual_residual_comm_ratio", Unit: "ratio", Better: "lower", Layer: "core", Exact: true, Moves: "virtual_run_s"},
	{Name: "engine.virtual_sort_s", Unit: "s", Better: "lower", Layer: "sortmz", Exact: true, Moves: "virtual_run_s on " + onSparse},
	{Name: "engine.virtual_max_resident_mb", Unit: "MB", Better: "lower", Layer: "core", Exact: true, Moves: "none: the space-optimality claim"},
	{Name: "engine.comm_bytes", Unit: "B", Better: "lower", Layer: "cluster", Exact: true, Moves: "virtual_run_s"},
	{Name: "engine.rma_bytes", Unit: "B", Better: "lower", Layer: "cluster", Exact: true, Moves: "virtual_run_s"},
	{Name: "engine.messages", Unit: "count", Better: "lower", Layer: "cluster", Exact: true, Moves: "virtual_run_s"},
	{Name: "ckpt.encode_mb_per_s", Unit: "MB/s", Better: "higher", Layer: "ckpt", Moves: "search_host_s on " + onElastic + ", " + onServe},
	{Name: "ckpt.decode_mb_per_s", Unit: "MB/s", Better: "higher", Layer: "ckpt", Moves: "search_host_s on " + onElastic},
	{Name: "placement.next_us.u11", Unit: "us", Better: "lower", Layer: "placement", Moves: "search_host_s on " + onElastic},
	{Name: "placement.next_us.u1024", Unit: "us", Better: "lower", Layer: "placement", Moves: "search_host_s on " + onElastic},
	{Name: "elastic.host_vs_static_ratio", Unit: "ratio", Better: "lower", Layer: "core", Moves: "search_host_s on " + onElastic},
	{Name: "elastic.migration_bytes", Unit: "B", Better: "lower", Layer: "core", Exact: true, Moves: "virtual_run_s on " + onElastic},
	{Name: "elastic.ckpt_bytes", Unit: "B", Better: "lower", Layer: "ckpt", Exact: true, Moves: "virtual_run_s on " + onElastic},
	{Name: "elastic.attempts", Unit: "count", Better: "lower", Layer: "core", Exact: true, Moves: "virtual_run_s on " + onElastic},
	{Name: "serve.host_us_per_query", Unit: "us", Better: "lower", Layer: "serve", Moves: "search_host_s on " + onServe},
	{Name: "serve.wire_submit_ns", Unit: "ns", Better: "lower", Layer: "serve", Moves: "search_host_s on " + onServe},
	{Name: "serve.wire_result_ns", Unit: "ns", Better: "lower", Layer: "serve", Moves: "search_host_s on " + onServe},
	{Name: "serve.mean_batch_size", Unit: "count", Better: "higher", Layer: "serve", Exact: true, Moves: "sojourn_p50_virtual_s on " + onServe},
	{Name: "serve.batches", Unit: "count", Better: "lower", Layer: "serve", Exact: true, Moves: "search_host_s on " + onServe},
	{Name: "serve.quanta", Unit: "count", Better: "lower", Layer: "serve", Exact: true, Moves: "search_host_s on " + onServe},
	{Name: "serve.ckpt_bytes", Unit: "B", Better: "lower", Layer: "ckpt", Exact: true, Moves: "search_host_s on " + onServe},
	{Name: "serve.sojourn_p95_virtual_s.r32", Unit: "s", Better: "lower", Layer: "serve", Exact: true, Moves: "serve.max_rate_in_slo_qps"},
	{Name: "serve.sojourn_p95_virtual_s.r48", Unit: "s", Better: "lower", Layer: "serve", Exact: true, Moves: "serve.max_rate_in_slo_qps"},
	{Name: "serve.sojourn_p95_virtual_s.r64", Unit: "s", Better: "lower", Layer: "serve", Exact: true, Moves: "serve.max_rate_in_slo_qps"},
	{Name: "serve.sojourn_p95_virtual_s.r96", Unit: "s", Better: "lower", Layer: "serve", Exact: true, Moves: "serve.max_rate_in_slo_qps"},
	{Name: "serve.refused_share.r96", Unit: "ratio", Better: "lower", Layer: "serve", Exact: true, Moves: "serve.max_rate_in_slo_qps"},
	{Name: "serve.max_rate_in_slo_qps", Unit: "q/s", Better: "higher", Layer: "serve", Exact: true, Moves: "none: the highest swept rate inside the latency limit"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower", Layer: "bench", Moves: "none: cost of the benchmark's own spans"},
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// sample is one metric as measured in one run: the reported value and the
// range of the samples it was taken from.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
}

// summarize reports the median of xs with its range.
func summarize(xs []float64, unit string) sample {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sample{Value: median(s), Unit: unit, Min: s[0], Max: s[len(s)-1], N: len(s)}
}

// fastest reports a host timing repeated over a window: the fastest
// sample, with the range.
//
// On a shared machine the noise is one-sided and comes in regimes: for 5 to
// 20 seconds at a time a neighbour takes a core and every search runs up to
// 1.6× slower. A window's median then depends on how much of the window the
// slow regimes covered (medians of identical runs differed by 35–50 %), and
// even its fastest decile is lost when they cover nine tenths of it (+23 %
// between two runs of one seed). The fastest sample needs one undisturbed
// search; across ten seeds it spread 4–7 % where the median spread 9–19 %.
// It is also what ROADMAP item 1 asks a trajectory to record (min-of-N).
func fastest(xs []float64, unit string) sample {
	s := summarize(xs, unit)
	s.Value = s.Min
	return s
}

// single is a metric with one sample.
func single(v float64, unit string) sample {
	return sample{Value: v, Unit: unit, Min: v, Max: v, N: 1}
}

// median of ascending xs.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// percentile is the nearest-rank q-th percentile (0 < q ≤ 1) of ascending
// xs: the smallest sample with at least q of the samples at or below it.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(len(xs))))
	return xs[max(rank, 1)-1]
}

// samplesBeyond is how many of n samples lie strictly above the
// nearest-rank q-th percentile's position.
func samplesBeyond(n int, q float64) int {
	return n - max(int(math.Ceil(q*float64(n))), 1)
}

// requireTail fails when a sojourn sample is too small to support the
// percentile a metric's name promises.
func requireTail(n int, q float64) error {
	if b := samplesBeyond(n, q); b < 10 {
		return fmt.Errorf("p%.0f of %d samples has only %d beyond it, need 10", q*100, n, b)
	}
	return nil
}
