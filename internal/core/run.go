package core

import (
	"fmt"
	"strings"

	"pepscale/internal/cluster"
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
	case AlgoA:
		return func(r *cluster.Rank) error { return algorithmABody(r, in, opt, true, sh) }, nil
	case AlgoANoMask:
		return func(r *cluster.Rank) error { return algorithmABody(r, in, opt, false, sh) }, nil
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
		return func(r *cluster.Rank) error { return subGroupBody(r, in, opt, groups, sh) }, nil
	default:
		return nil, fmt.Errorf("core: unknown algorithm %v", algo)
	}
}

// Run executes a search with the selected engine on a fresh virtual
// machine.
func Run(algo Algorithm, cfg cluster.Config, in Input, opt Options) (*Result, error) {
	res, _, err := runReported(algo, cfg, in, opt, newIndexCache())
	return res, err
}
