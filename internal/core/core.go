// Package core implements the paper's peptide-identification engines:
//
//   - Serial — the single-processor reference (equivalent to a uni-worker
//     MSPolygraph run); used for validation and as the speedup baseline.
//   - MasterWorker — the MSPolygraph baseline parallelization: a master
//     distributes query batches on demand while every worker caches the
//     entire database (O(N) memory per processor).
//   - AlgorithmA — the paper's space-optimal database-transport engine:
//     the database is block-partitioned, each rank scans its local queries
//     against one block per iteration while a non-blocking one-sided get
//     prefetches the next block (communication masked by computation).
//   - AlgorithmB — Algorithm A preceded by a parallel counting sort of the
//     database by parent m/z, restricting communication to the "sender
//     group" of ranks that can hold candidates for the local queries.
//   - SubGroup — the paper's proposed extension for medium-sized inputs:
//     ranks split into groups; the database is partitioned within a group
//     and the query set across groups.
//
// Database transport and crash restart are each written once. walkBlocks
// (algoa.go) is the paper's double-buffered block walk, shared by Algorithm
// A, SubGroup (Algorithm A inside each group), Algorithm B's sender group,
// the candidate engine's band walk and the sweeper (sweep.go): the
// checkpointed group sweep over a stable p0-way partition behind RunElastic
// — on a static roster, the checkpointed crash restart of Algorithm A's
// schedule — and the pepd Backend, which walks without masking. recoverLoop
// (recover.go) is the one attempt loop behind RunElastic and RunWithRecovery.
//
// All engines run on the virtual distributed-memory machine of
// internal/cluster and produce identical hit lists for identical inputs —
// the validation property the paper reports ("both implementations A & B
// successfully reproduce MSPolygraph's output").
package core

import (
	"fmt"
	"math"
	"sort"

	"pepscale/internal/chem"
	"pepscale/internal/cluster"
	"pepscale/internal/digest"
	"pepscale/internal/fasta"
	"pepscale/internal/score"
	"pepscale/internal/spectrum"
	"pepscale/internal/topk"
	"pepscale/internal/trace"
)

// Options configure a search.
type Options struct {
	// Tau is τ: the number of top hits reported per query (the paper uses
	// 10–1,000).
	Tau int
	// Tol is δ: the parent-mass tolerance defining candidates.
	Tol chem.Tolerance
	// Digest configures candidate generation.
	Digest digest.Params
	// ScorerName selects the statistical model ("likelihood", "hyper",
	// "sharedpeaks", "xcorr").
	ScorerName string
	// Score configures the model.
	Score score.Config
	// MinScore drops hits scoring at or below this value (0 keeps
	// everything with positive score; set to -inf to keep all).
	MinScore float64
	// Prefilter, when positive, enables X!!Tandem-style aggressive
	// prefiltering: candidates whose quick singly-charged b/y match
	// fraction falls below it are skipped without full model evaluation.
	// Fast, but "could miss true predictions" — the quality trade-off the
	// paper's parallelism avoids. Typical aggressive value: 0.2–0.35.
	Prefilter float64
	// BatchSize is the master–worker query batch size (default 16).
	BatchSize int
	// Masking enables communication–computation overlap (the prefetch of
	// the next block while the current one is scanned) in A, B, sub-group
	// and candidate. The checkpointed sweep (RunElastic, the pepd backend)
	// walks the same transport without it. DefaultOptions turns it on;
	// AlgoANoMask is Algorithm A with it forced off, whatever this field
	// says.
	Masking bool
	// Groups is the sub-group count of the SubGroup engine (must divide p).
	Groups int
	// ScanMode names a block-scan kernel, but there is one: every accepted
	// value ("", "peptide", "fragidx") runs the peptide-major sweep, and any
	// other value fails Validate. The field stays only because the
	// benchmark's workload table (bench/workloads.go) still sets it, and goes
	// when that table stops naming it.
	ScanMode string
}

// ScanMode values Options.Validate accepts; both run the peptide-major
// sweep.
const (
	ScanModePeptideMajor = "peptide"
	// ScanModeFragIdx named the retired fragment-index scan.
	ScanModeFragIdx = "fragidx"
)

// DefaultOptions returns the standard configuration: τ=50, δ=3 Da,
// likelihood scoring, masking on.
func DefaultOptions() Options {
	return Options{
		Tau:        50,
		Tol:        chem.DaltonTolerance(3),
		Digest:     digest.DefaultParams(),
		ScorerName: "likelihood",
		Score:      score.DefaultConfig(),
		BatchSize:  16,
		Masking:    true,
		Groups:     1,
	}
}

// Validate reports option errors.
func (o Options) Validate() error {
	if o.Tau < 0 {
		return fmt.Errorf("core: negative tau %d", o.Tau)
	}
	if math.IsNaN(o.Tol.Value) || math.IsInf(o.Tol.Value, 0) {
		return fmt.Errorf("core: Tol.Value %v is not finite", o.Tol.Value)
	}
	if o.Tol.Value < 0 {
		return fmt.Errorf("core: negative tolerance %v", o.Tol)
	}
	if math.IsNaN(o.Prefilter) {
		return fmt.Errorf("core: Prefilter is NaN")
	}
	if math.IsNaN(o.MinScore) {
		return fmt.Errorf("core: MinScore is NaN (use -Inf to keep every hit)")
	}
	if err := o.Digest.Validate(); err != nil {
		return err
	}
	if _, err := score.New(o.ScorerName, o.Score); err != nil {
		return err
	}
	switch o.ScanMode {
	case "", ScanModePeptideMajor, ScanModeFragIdx:
	default:
		return fmt.Errorf("core: unknown scan mode %q (want peptide or fragidx)", o.ScanMode)
	}
	return nil
}

// Input is a search workload: the database FASTA image (the shared file of
// the paper's parallel loading step) plus the experimental spectra.
type Input struct {
	DBData  []byte
	Queries []*spectrum.Spectrum
}

// InvalidQueryError rejects a query spectrum no engine can search: one
// that fails spectrum.Check. A NaN parent mass has no place in the mass
// order the scan sweeps queries in, so one such spectrum would move the
// candidate windows of the valid queries around it; every entry point
// refuses the run instead.
type InvalidQueryError struct {
	// Index is the query's position in Input.Queries.
	Index int
	// ID is the spectrum identifier.
	ID string
	// Reason names the offending field and its value.
	Reason string
}

// Error implements error.
func (e *InvalidQueryError) Error() string {
	return fmt.Sprintf("core: query %d (%q): %s", e.Index, e.ID, e.Reason)
}

// validate is the check every entry point that returns an error makes before
// it runs: the options, then each query.
func (in Input) validate(opt Options) error {
	if err := opt.Validate(); err != nil {
		return err
	}
	for i, q := range in.Queries {
		if err := q.Check(); err != nil {
			return &InvalidQueryError{Index: i, ID: q.ID, Reason: err.Error()}
		}
	}
	return nil
}

// QueryResult is the reported hit list for one query.
type QueryResult struct {
	// Index is the query's position in Input.Queries.
	Index int
	// ID is the spectrum identifier.
	ID string
	// ParentMass is the query's neutral parent mass.
	ParentMass float64
	// Hits is the top-τ list, best first.
	Hits []topk.Hit
}

// RankMetrics is the per-rank accounting of a run.
type RankMetrics struct {
	ComputeSec       float64
	TotalCommSec     float64
	ResidualCommSec  float64
	SyncWaitSec      float64
	LoadSec          float64
	SortSec          float64
	BytesSent        int64
	BytesReceived    int64
	RMABytesReceived int64
	RMARetries       int64
	RMAFailures      int64
	MaxResidentBytes int64
	Candidates       int64
	Queries          int
	Messages         int64
	// MigrationBytes is the subset of RMABytesReceived this rank fetched
	// while acquiring migrated database blocks at elastic membership
	// boundaries (zero for non-elastic engines).
	MigrationBytes int64
}

// Metrics aggregates a run.
type Metrics struct {
	// Algorithm is the engine name.
	Algorithm string
	// Ranks is p.
	Ranks int
	// RunSec is the parallel run-time: the maximum virtual clock.
	RunSec float64
	// Candidates is the total number of candidate evaluations.
	Candidates int64
	// Hits is the total number of reported hits.
	Hits int64
	// SortSec is the maximum per-rank sorting time (Algorithm B).
	SortSec float64
	// PerRank carries the per-rank breakdown.
	PerRank []RankMetrics
}

// CandidatesPerSec is the paper's Table III measure.
func (m Metrics) CandidatesPerSec() float64 {
	if m.RunSec <= 0 {
		return 0
	}
	return float64(m.Candidates) / m.RunSec
}

// ResidualToComputeRatios returns the per-rank residual-communication to
// computation ratios (the paper reports 0.36 ± 0.11 for p > 2).
func (m Metrics) ResidualToComputeRatios() []float64 {
	out := make([]float64, 0, len(m.PerRank))
	for _, r := range m.PerRank {
		if r.ComputeSec > 0 {
			out = append(out, (r.ResidualCommSec+r.SyncWaitSec)/r.ComputeSec)
		}
	}
	return out
}

// MaxResidentBytes returns the per-rank memory high-water mark — the
// quantity the space-optimality claim bounds by O((N+m)/p).
func (m Metrics) MaxResidentBytes() int64 {
	var max int64
	for _, r := range m.PerRank {
		if r.MaxResidentBytes > max {
			max = r.MaxResidentBytes
		}
	}
	return max
}

// Result is a completed search.
type Result struct {
	Queries []QueryResult
	Metrics Metrics
	// Trace is the run's virtual-clock event trace, one attempt per machine
	// run (recovery drivers accumulate failed attempts ahead of the
	// successful one). Nil unless cluster.Config.Trace was set.
	Trace *trace.Trace
}

// share returns the half-open range [lo, hi) of m items owned by rank i of
// p — the balanced contiguous partition used for both database bytes and
// query lists.
func share(m, p, i int) (lo, hi int) {
	return m * i / p, m * (i + 1) / p
}

// queryBytes is the conditioned-query footprint estimate every engine
// charges at query load.
func queryBytes(specs []*spectrum.Spectrum) int {
	var n int
	for _, s := range specs {
		n += 64 + 12*len(s.Peaks)
	}
	return n
}

// prepareQueries conditions a slice of raw spectra and charges the rank's
// clock for the work.
func prepareQueries(r *cluster.Rank, specs []*spectrum.Spectrum, cfg score.Config) []*score.Query {
	out := make([]*score.Query, len(specs))
	var peaks int
	for i, s := range specs {
		out[i] = score.PrepareQuery(s, cfg)
		peaks += len(s.Peaks)
	}
	if r != nil {
		r.Compute(r.Cost().PrepSecPerPeak * float64(peaks))
	}
	return out
}

// scanStats counts the work done by scanIndex for clock charging.
type scanStats struct {
	Candidates int64
	// Prefiltered counts candidates rejected by the quick prefilter (each
	// costs prefilterCostFraction of a full evaluation).
	Prefiltered int64
	Offered     int64
}

// prefilterCostFraction is the relative cost of the quick prefilter test.
const prefilterCostFraction = 0.15

// scanIndex scores every candidate of ix falling in each query's tolerance
// window and folds accepted hits into the per-query top-τ lists. idOf
// resolves a global protein index to its FASTA identifier within the
// current block. It performs no clock charging — callers convert the
// returned stats into virtual time so the same scan logic serves both the
// engines and the pure serial reference.
//
// This wrapper runs the peptide-major sweep (scanState.scan) with throwaway
// state. Engine loops that scan repeatedly hold a persistent scanState
// instead, which keeps the sweep allocation-free and preserves the per-query
// scoring caches across blocks.
func scanIndex(qs []*score.Query, lists []*topk.List, ix *digest.Index, sc score.Scorer, opt Options, idOf func(int32) string) scanStats {
	var ss scanState
	return ss.scan(qs, lists, ix, sc, opt, idOf)
}

// scanComputeSec converts scan statistics into the virtual CPU time of the
// scan: full model cost for evaluated candidates, the prefilter fraction
// for skipped ones, and the reporting cost for retained hits.
func scanComputeSec(cost cluster.CostModel, sc score.Scorer, st scanStats) float64 {
	full := st.Candidates - st.Prefiltered
	return float64(full)*cost.ScoreSecPerCandidate*sc.Cost() +
		float64(st.Prefiltered)*cost.ScoreSecPerCandidate*prefilterCostFraction +
		float64(st.Offered)*cost.HitSecPerHit
}

// finalizeResults converts per-query top-k lists into QueryResults, each
// taking its list's storage (topk.List.Drain) and leaving the list empty.
func finalizeResults(indices []int, qs []*score.Query, lists []*topk.List) []QueryResult {
	out := make([]QueryResult, len(qs))
	for i, q := range qs {
		out[i] = QueryResult{
			Index:      indices[i],
			ID:         q.ID,
			ParentMass: q.ParentMass,
			Hits:       lists[i].Drain(),
		}
	}
	return out
}

// mergeGathered assembles rank 0's gathered per-rank result blobs into the
// final query-ordered list.
func mergeGathered(blobs [][]byte, total int) ([]QueryResult, error) {
	all := make([]QueryResult, 0, total)
	for _, b := range blobs {
		rs, err := decodeResults(b)
		if err != nil {
			return nil, err
		}
		all = append(all, rs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Index < all[j].Index })
	return all, nil
}

// indexFootprintBytes estimates the private memory held by a block index
// (peptide descriptors; residue storage is aliased, not copied).
func indexFootprintBytes(ix *digest.Index) int64 {
	return int64(ix.Len()) * 48
}

// blockIDResolver builds the gid→FASTA-ID lookup for a contiguous block.
func blockIDResolver(recs []fasta.Record, base int32) func(int32) string {
	return func(gid int32) string {
		i := int(gid - base)
		if i < 0 || i >= len(recs) {
			return fmt.Sprintf("protein_%d", gid)
		}
		return recs[i].ID
	}
}

// queryIndices returns [lo, hi) as an explicit index slice.
func queryIndices(lo, hi int) []int {
	out := make([]int, hi-lo)
	for i := range out {
		out[i] = lo + i
	}
	return out
}
