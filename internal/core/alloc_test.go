package core

import (
	"math"
	"reflect"
	"testing"

	"pepscale/internal/score"
	"pepscale/internal/topk"
)

// TestScanIndexZeroAllocPerCandidate pins the allocation-free guarantee of
// the peptide-major sweep. With MinScore above any achievable score no hit
// is ever materialized, so a warmed scan on a persistent scanState — sweep
// buffers grown, per-query caches primed — must perform zero heap
// allocations no matter how many (peptide, query) pairs it evaluates.
func TestScanIndexZeroAllocPerCandidate(t *testing.T) {
	for _, scorer := range []string{"likelihood", "hyper", "sharedpeaks", "xcorr"} {
		f := newScanFixture(t, scorer, 120, 8)
		opt := f.opt
		opt.MinScore = math.MaxFloat64
		f.scan.scan(f.qs, f.lists, f.ix, f.sc, opt, f.idOf) // warm under this opt
		if allocs := testing.AllocsPerRun(3, func() {
			f.scan.scan(f.qs, f.lists, f.ix, f.sc, opt, f.idOf)
		}); allocs != 0 {
			t.Errorf("%s: %v allocs per warmed scan over %d candidates, want 0",
				scorer, allocs, f.cands)
		}
	}
}

// TestScanPrefilterZeroAlloc is the same guarantee with the aggressive
// prefilter enabled, covering the shared QuickBins path of the sweep.
func TestScanPrefilterZeroAlloc(t *testing.T) {
	f := newScanFixture(t, "likelihood", 120, 8)
	opt := f.opt
	opt.Prefilter = 0.25
	opt.MinScore = math.MaxFloat64
	f.scan.scan(f.qs, f.lists, f.ix, f.sc, opt, f.idOf)
	if allocs := testing.AllocsPerRun(3, func() {
		f.scan.scan(f.qs, f.lists, f.ix, f.sc, opt, f.idOf)
	}); allocs != 0 {
		t.Errorf("%v allocs per warmed prefiltered scan, want 0", allocs)
	}
}

// TestScanIndexLazyMaterialization verifies the threshold short-circuit is
// results-neutral: against an inline reference scan that materializes and
// offers every above-MinScore candidate, the lazy scan must produce
// identical hit lists AND an identical Offered count (the virtual-clock
// input), because the skip fires only when Offer was guaranteed to reject.
func TestScanIndexLazyMaterialization(t *testing.T) {
	for _, scorer := range []string{"hyper", "likelihood"} {
		f := newScanFixture(t, scorer, 120, 8)
		lazy := make([]*topk.List, len(f.qs))
		ref := make([]*topk.List, len(f.qs))
		for i := range lazy {
			lazy[i] = topk.New(f.opt.Tau)
			ref[i] = topk.New(f.opt.Tau)
		}
		st := scanIndex(f.qs, lazy, f.ix, f.sc, f.opt, f.idOf)

		refSc, err := score.New(scorer, f.opt.Score)
		if err != nil {
			t.Fatal(err)
		}
		mods := f.opt.Digest.Mods
		var offered int64
		for qi, q := range f.qs {
			lo, hi := f.opt.Tol.Window(q.ParentMass)
			start, end := f.ix.Window(lo, hi)
			for i := start; i < end; i++ {
				pep := f.ix.At(i)
				deltas := pep.ModDeltas(mods)
				if f.opt.Prefilter > 0 &&
					score.QuickMatchFraction(q, pep.Seq, deltas, f.opt.Score) < f.opt.Prefilter {
					continue
				}
				s := refSc.Score(q, pep.Seq, deltas)
				if s <= f.opt.MinScore {
					continue
				}
				if ref[qi].Offer(topk.Hit{
					Peptide:   pep.Annotated(mods),
					Protein:   pep.Protein,
					ProteinID: f.idOf(pep.Protein),
					Mass:      pep.Mass,
					Score:     s,
				}) {
					offered++
				}
			}
		}
		if st.Offered != offered {
			t.Errorf("%s: Offered = %d, reference = %d", scorer, st.Offered, offered)
		}
		for qi := range f.qs {
			if !reflect.DeepEqual(lazy[qi].Hits(), ref[qi].Hits()) {
				t.Errorf("%s: query %d hits differ:\nlazy %+v\nref  %+v",
					scorer, qi, lazy[qi].Hits(), ref[qi].Hits())
			}
		}
	}
}
