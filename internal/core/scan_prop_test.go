package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"pepscale/internal/chem"
	"pepscale/internal/digest"
	"pepscale/internal/score"
	"pepscale/internal/synth"
	"pepscale/internal/topk"
)

// scanVariant is one randomized configuration of the equivalence property.
type scanVariant struct {
	name   string
	mutate func(*Options, *synth.SpectraSpec)
}

// scanVariants covers the option space that shapes the sweep: charge
// diversity (grouping), modifications (delta buffers + variant expansion),
// the prefilter path, both tolerance kinds, and wide windows (heavy query
// overlap, the case the sweep optimizes).
var scanVariants = []scanVariant{
	{"default", func(o *Options, s *synth.SpectraSpec) {}},
	{"charges", func(o *Options, s *synth.SpectraSpec) {
		s.Charges = []int{1, 2, 3, 4}
	}},
	{"mods", func(o *Options, s *synth.SpectraSpec) {
		o.Digest.Mods = []chem.Mod{chem.OxidationM, chem.PhosphoSTY}
		o.Digest.MaxModsPerPeptide = 2
	}},
	{"prefilter", func(o *Options, s *synth.SpectraSpec) {
		o.Prefilter = 0.25
	}},
	{"ppm", func(o *Options, s *synth.SpectraSpec) {
		o.Tol = chem.PPMTolerance(2000)
	}},
	{"wide", func(o *Options, s *synth.SpectraSpec) {
		o.Tol = chem.DaltonTolerance(40)
	}},
	{"keepall", func(o *Options, s *synth.SpectraSpec) {
		// MinScore at -inf keeps zero and negative scores, exercising the
		// fragment-index path's exact-zero and no-prune branches.
		o.MinScore = math.Inf(-1)
	}},
	{"noisy", func(o *Options, s *synth.SpectraSpec) {
		// Dense spectra stress the walk accumulators and the tightness of
		// the likelihood estimate at high bin occupancy.
		s.NoisePeaks = 60
	}},
}

// TestScanPeptideMajorMatchesQueryMajor is the equivalence property of the
// tentpole rewrite: over randomized databases, queries, charges, mods, and
// tolerances, the peptide-major sweep must reproduce the query-major
// reference exactly — same scanStats (the virtual-clock input), same hit
// lists bit-for-bit (scores, tie-breaks, order). Tau is kept small so
// threshold rejections and Offer tie-breaks are exercised hard.
func TestScanPeptideMajorMatchesQueryMajor(t *testing.T) {
	for _, v := range scanVariants {
		for trial := 0; trial < 3; trial++ {
			t.Run(fmt.Sprintf("%s/trial%d", v.name, trial), func(t *testing.T) {
				dbSpec := synth.SizedSpec(60 + 20*trial)
				dbSpec.Seed = uint64(1000*trial + 7)
				db := synth.GenerateDB(dbSpec)

				opt := DefaultOptions()
				opt.Tau = 3
				spSpec := synth.DefaultSpectraSpec(12)
				spSpec.Seed = uint64(77 * (trial + 1))
				v.mutate(&opt, &spSpec)
				spSpec.Digest = opt.Digest

				truths, err := synth.GenerateSpectra(db, spSpec)
				if err != nil {
					t.Fatal(err)
				}
				ix, err := digest.NewIndex(db, 0, opt.Digest)
				if err != nil {
					t.Fatal(err)
				}
				qs := prepareQueries(nil, synth.Spectra(truths), opt.Score)
				idOf := blockIDResolver(db, 0)

				for _, scorer := range []string{"likelihood", "hyper", "sharedpeaks", "xcorr"} {
					opt := opt
					opt.ScorerName = scorer
					refSc, err := score.New(scorer, opt.Score)
					if err != nil {
						t.Fatal(err)
					}
					batSc, err := score.New(scorer, opt.Score)
					if err != nil {
						t.Fatal(err)
					}
					fragSc, err := score.New(scorer, opt.Score)
					if err != nil {
						t.Fatal(err)
					}
					refLists := make([]*topk.List, len(qs))
					batLists := make([]*topk.List, len(qs))
					fragLists := make([]*topk.List, len(qs))
					for i := range qs {
						refLists[i] = topk.New(opt.Tau)
						batLists[i] = topk.New(opt.Tau)
						fragLists[i] = topk.New(opt.Tau)
					}
					refSt := scanIndexQueryMajor(qs, refLists, ix, refSc, opt, idOf)
					blk := newBlockIndex(ix, nil)
					var ss scanState
					batSt := ss.scan(qs, batLists, blk, batSc, opt, idOf)
					if refSt != batSt {
						t.Errorf("%s: scanStats differ: query-major %+v, peptide-major %+v", scorer, refSt, batSt)
					}
					fragOpt := opt
					fragOpt.ScanMode = ScanModeFragIdx
					var fss scanState
					fragSt := fss.scan(qs, fragLists, blk, fragSc, fragOpt, idOf)
					if refSt != fragSt {
						t.Errorf("%s: scanStats differ: query-major %+v, fragidx %+v", scorer, refSt, fragSt)
					}
					for qi := range qs {
						if !reflect.DeepEqual(refLists[qi].Hits(), batLists[qi].Hits()) {
							t.Errorf("%s: query %d hits differ:\nquery-major  %+v\npeptide-major %+v",
								scorer, qi, refLists[qi].Hits(), batLists[qi].Hits())
						}
						if !reflect.DeepEqual(refLists[qi].Hits(), fragLists[qi].Hits()) {
							t.Errorf("%s: query %d hits differ:\nquery-major %+v\nfragidx     %+v",
								scorer, qi, refLists[qi].Hits(), fragLists[qi].Hits())
						}
					}
					// Rescanning on the same warmed state (as engine transport
					// loops do block after block) must stay stable: the memo
					// caches may be hit instead of filled, never drift.
					reLists := make([]*topk.List, len(qs))
					fragReLists := make([]*topk.List, len(qs))
					for i := range qs {
						reLists[i] = topk.New(opt.Tau)
						fragReLists[i] = topk.New(opt.Tau)
					}
					reSt := ss.scan(qs, reLists, blk, batSc, opt, idOf)
					if reSt != batSt {
						t.Errorf("%s: warmed rescan stats differ: first %+v, rescan %+v", scorer, batSt, reSt)
					}
					fragReSt := fss.scan(qs, fragReLists, blk, fragSc, fragOpt, idOf)
					if fragReSt != fragSt {
						t.Errorf("%s: warmed fragidx rescan stats differ: first %+v, rescan %+v", scorer, fragSt, fragReSt)
					}
					for qi := range qs {
						if !reflect.DeepEqual(batLists[qi].Hits(), reLists[qi].Hits()) {
							t.Errorf("%s: query %d warmed rescan hits differ", scorer, qi)
						}
						if !reflect.DeepEqual(fragLists[qi].Hits(), fragReLists[qi].Hits()) {
							t.Errorf("%s: query %d warmed fragidx rescan hits differ", scorer, qi)
						}
					}
				}
			})
		}
	}
}
