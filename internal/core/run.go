package core

import (
	"fmt"
	"strings"

	"pepscale/internal/cluster"
	"pepscale/internal/trace"
)

// Algorithm selects a parallel engine.
type Algorithm int

// The engines.
const (
	// AlgoMasterWorker is the MSPolygraph baseline (database replicated in
	// every worker, master distributes query batches on demand).
	AlgoMasterWorker Algorithm = iota
	// AlgoA is the paper's Algorithm A (block-cycled database transport
	// with one-sided prefetch masking).
	AlgoA
	// AlgoANoMask is Algorithm A with masking disabled (the ablation).
	AlgoANoMask
	// AlgoB is the paper's Algorithm B (m/z counting sort + sender groups).
	AlgoB
	// AlgoSubGroup is the paper's proposed medium-input extension
	// (database partitioned within groups, queries across groups).
	AlgoSubGroup
	// AlgoCandidate is the candidate-transport strategy the paper's
	// discussion proposes: pre-digested candidates (not sequences) are
	// stored in memory, mass-sorted across ranks, and communicated on
	// demand, eliminating per-block re-digestion.
	AlgoCandidate
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case AlgoMasterWorker:
		return "master-worker"
	case AlgoA:
		return "algorithm-a"
	case AlgoANoMask:
		return "algorithm-a-nomask"
	case AlgoB:
		return "algorithm-b"
	case AlgoSubGroup:
		return "subgroup"
	case AlgoCandidate:
		return "candidate"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ParseAlgorithm resolves user-facing engine names ("mw", "a", "a-nomask",
// "b", "subgroup" and the long forms from String).
func ParseAlgorithm(s string) (Algorithm, error) {
	switch strings.ToLower(s) {
	case "mw", "master-worker", "masterworker":
		return AlgoMasterWorker, nil
	case "a", "algorithm-a":
		return AlgoA, nil
	case "a-nomask", "algorithm-a-nomask", "nomask":
		return AlgoANoMask, nil
	case "b", "algorithm-b":
		return AlgoB, nil
	case "subgroup", "sub-group", "hybrid":
		return AlgoSubGroup, nil
	case "c", "candidate", "candidate-transport":
		return AlgoCandidate, nil
	default:
		return 0, fmt.Errorf("core: unknown algorithm %q (want mw, a, a-nomask, b, c, or subgroup)", s)
	}
}

// shared is the host-side result area; each rank writes only its own slots,
// and rank 0 writes the merged query results after the final gather.
type shared struct {
	loadSec    []float64
	sortSec    []float64
	candidates []int64
	queries    []int
	// migBytes counts block-migration bytes fetched by each rank (elastic
	// engine only; zero elsewhere).
	migBytes []int64
	merged   []QueryResult
	cache    *indexCache
}

func newShared(p int, cache *indexCache) *shared {
	return &shared{
		loadSec:    make([]float64, p),
		sortSec:    make([]float64, p),
		candidates: make([]int64, p),
		queries:    make([]int, p),
		migBytes:   make([]int64, p),
		cache:      cache,
	}
}

// engineBody resolves the selected engine's rank program.
func engineBody(algo Algorithm, cfg cluster.Config, in Input, opt Options, sh *shared) (func(*cluster.Rank) error, error) {
	switch algo {
	case AlgoMasterWorker:
		return func(r *cluster.Rank) error { return masterWorkerBody(r, in, opt, sh) }, nil
	case AlgoA, AlgoANoMask:
		if algo == AlgoANoMask {
			opt.Masking = false
		}
		return func(r *cluster.Rank) error { return cycleBody(r, in, opt, 1, false, sh) }, nil
	case AlgoB:
		return func(r *cluster.Rank) error { return algorithmBBody(r, in, opt, sh) }, nil
	case AlgoCandidate:
		return func(r *cluster.Rank) error { return candidateBody(r, in, opt, sh) }, nil
	case AlgoSubGroup:
		groups := opt.Groups
		if groups < 1 {
			groups = 1
		}
		if cfg.Ranks%groups != 0 {
			return nil, fmt.Errorf("core: %d groups do not divide %d ranks", groups, cfg.Ranks)
		}
		return func(r *cluster.Rank) error { return cycleBody(r, in, opt, groups, true, sh) }, nil
	default:
		return nil, fmt.Errorf("core: unknown algorithm %v", algo)
	}
}

// Run executes a search with the selected engine on a fresh virtual
// machine.
func Run(algo Algorithm, cfg cluster.Config, in Input, opt Options) (*Result, error) {
	return runOn(algo, cfg, in, opt, newIndexCache())
}

// runOn is Run on the caller's host-side memoizer, so tests can read its
// counters.
func runOn(algo Algorithm, cfg cluster.Config, in Input, opt Options, cache *indexCache) (*Result, error) {
	if err := in.validate(opt); err != nil {
		return nil, err
	}
	mach, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	sh := newShared(cfg.Ranks, cache)
	body, err := engineBody(algo, cfg, in, opt, sh)
	if err != nil {
		return nil, err
	}
	if err := mach.Run(body); err != nil {
		return nil, err
	}
	var atts []*trace.Attempt
	if att := mach.Trace(fmt.Sprintf("%s p=%d", algo, cfg.Ranks)); att != nil {
		atts = []*trace.Attempt{att}
	}
	return buildResult(algo.String(), mach, sh, atts), nil
}

// buildResult snapshots the machine-side stats plus the engine-side counters
// of the shared area into a Result. It is the only place Metrics.Hits is
// summed: a driver that adds the merged hits again double-counts them.
func buildResult(algo string, mach *cluster.Machine, sh *shared, atts []*trace.Attempt) *Result {
	p := mach.Ranks()
	m := Metrics{Algorithm: algo, Ranks: p, RunSec: mach.MaxTime(), PerRank: make([]RankMetrics, p)}
	for i := range m.PerRank {
		st := mach.Rank(i).Stats
		m.PerRank[i] = RankMetrics{
			ComputeSec:       st.ComputeSec,
			TotalCommSec:     st.TotalCommSec,
			ResidualCommSec:  st.ResidualCommSec,
			SyncWaitSec:      st.SyncWaitSec,
			LoadSec:          sh.loadSec[i],
			SortSec:          sh.sortSec[i],
			BytesSent:        st.BytesSent,
			BytesReceived:    st.BytesReceived,
			RMABytesReceived: st.RMABytesReceived,
			RMARetries:       st.RMARetries,
			RMAFailures:      st.RMAFailures,
			MaxResidentBytes: st.MaxResidentBytes,
			Candidates:       sh.candidates[i],
			Queries:          sh.queries[i],
			Messages:         st.Messages,
			MigrationBytes:   sh.migBytes[i],
		}
		if sh.sortSec[i] > m.SortSec {
			m.SortSec = sh.sortSec[i]
		}
		m.Candidates += sh.candidates[i]
	}
	for _, qr := range sh.merged {
		m.Hits += int64(len(qr.Hits))
	}
	res := &Result{Queries: sh.merged, Metrics: m}
	if len(atts) > 0 {
		res.Trace = &trace.Trace{Attempts: atts}
	}
	return res
}
