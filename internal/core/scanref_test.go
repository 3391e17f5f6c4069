package core

import (
	"pepscale/internal/digest"
	"pepscale/internal/score"
	"pepscale/internal/topk"
)

// scanIndexQueryMajor is the historical query-major scan: for each query in
// turn, walk its candidate window and evaluate every pair independently. It
// is the bit-identical reference the property tests (and
// BenchmarkScanKernelQueryMajor) compare the peptide-major sweep against; it
// is no longer selectable as a scan mode.
//
// The inner loop is allocation-free per candidate: modification deltas and
// prefilter fragment bins reuse scan-level buffers, and a topk.Hit (annotated
// peptide string, protein-ID lookup) is materialized only after the raw
// score beats both MinScore and the list's current threshold. A hit scoring
// strictly below a full list's worst retained score can never be accepted
// (ties fall through to Offer, whose deterministic tie-break needs the
// materialized strings), so skipping it changes neither results nor the
// Offered count that feeds the virtual clock.
func scanIndexQueryMajor(qs []*score.Query, lists []*topk.List, ix *digest.Index, sc score.Scorer, opt Options, idOf func(int32) string) scanStats {
	var st scanStats
	mods := opt.Digest.Mods
	var deltaBuf []float64
	var quickBins []int32
	var quickPrefix []float64
	for qi, q := range qs {
		lo, hi := opt.Tol.Window(q.ParentMass)
		start, end := ix.Window(lo, hi)
		st.Candidates += int64(end - start)
		list := lists[qi]
		for i := start; i < end; i++ {
			pep := ix.At(i)
			deltas := pep.AppendModDeltas(deltaBuf, mods)
			if deltas != nil {
				deltaBuf = deltas
			}
			if opt.Prefilter > 0 {
				quickBins, quickPrefix = score.QuickBins(quickBins, quickPrefix, pep.Seq, deltas, opt.Score)
				if score.QuickMatchFromBins(q, quickBins) < opt.Prefilter {
					st.Prefiltered++
					continue
				}
			}
			s := sc.Score(q, pep.Seq, deltas)
			if s <= opt.MinScore {
				continue
			}
			if thr, full := list.Threshold(); full && s < thr {
				continue
			}
			hit := topk.Hit{
				Peptide:   pep.Annotated(mods),
				Protein:   pep.Protein,
				ProteinID: idOf(pep.Protein),
				Mass:      pep.Mass,
				Score:     s,
			}
			if list.Offer(hit) {
				st.Offered++
			}
		}
	}
	return st
}
