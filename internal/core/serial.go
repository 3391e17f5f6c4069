package core

import (
	"pepscale/internal/cluster"
	"pepscale/internal/digest"
	"pepscale/internal/fasta"
	"pepscale/internal/score"
	"pepscale/internal/topk"
)

// Serial runs the single-processor reference search. It shares the scan,
// scoring, and top-τ machinery with the parallel engines but uses no
// virtual machine at all, so engine agreement with Serial also validates
// the cluster substrate itself. The returned metrics carry the analytic
// single-processor run-time under the given cost model (the paper's p = 1
// column, "equivalent to the uni-worker processor run of MSPolygraph").
func Serial(in Input, opt Options, cost cluster.CostModel) (*Result, error) {
	if err := in.validate(opt); err != nil {
		return nil, err
	}
	recs, err := fasta.ParseBytes(in.DBData)
	if err != nil {
		return nil, err
	}
	sc, err := score.New(opt.ScorerName, opt.Score)
	if err != nil {
		return nil, err
	}
	ix, err := digest.NewIndex(recs, 0, opt.Digest)
	if err != nil {
		return nil, err
	}
	qs := prepareQueries(nil, in.Queries, opt.Score)
	lists := topk.NewLists(len(qs), opt.Tau)
	st := scanIndex(qs, lists, ix, sc, opt, blockIDResolver(recs, 0))
	results := finalizeResults(queryIndices(0, len(qs)), qs, lists)

	var qbytes, peaks int
	for _, s := range in.Queries {
		qbytes += 64 + 12*len(s.Peaks)
		peaks += len(s.Peaks)
	}
	runSec := cost.IOSec(len(in.DBData)+qbytes) +
		cost.PrepSecPerPeak*float64(peaks) +
		cost.DigestSecPerResidue*float64(fasta.TotalResidues(recs)) +
		scanComputeSec(cost, sc, st)

	var hits int64
	for _, qr := range results {
		hits += int64(len(qr.Hits))
	}
	return &Result{
		Queries: results,
		Metrics: Metrics{
			Algorithm:  "serial",
			Ranks:      1,
			RunSec:     runSec,
			Candidates: st.Candidates,
			Hits:       hits,
			PerRank: []RankMetrics{{
				ComputeSec: runSec,
				Candidates: st.Candidates,
				Queries:    len(qs),
			}},
		},
	}, nil
}
