package fragidx

import (
	"math"
	"reflect"
	"testing"

	"pepscale/internal/chem"
	"pepscale/internal/digest"
	"pepscale/internal/score"
	"pepscale/internal/spectrum"
	"pepscale/internal/synth"
)

// TestMetaRoundTrip pins the packed payload layout: every field survives a
// pack/unpack round trip across its full range, including the extremes the
// packing constants promise, and the branch-free model/null selector the
// passes walk derives from the pass bits agrees with Pass().
func TestMetaRoundTrip(t *testing.T) {
	slots := []int{0, 5, maxSlot}
	idxs := []int{0, 1, 255, metaIndexMask}
	for pass := 0; pass <= metaPassMask; pass++ {
		for _, kind := range []spectrum.FragmentKind{spectrum.BIon, spectrum.YIon} {
			for z := 1; z <= maxPassCharge; z++ {
				for _, slot := range slots {
					for _, fi := range idxs {
						m := newMeta(pass, kind, z, slot, fi)
						if m.Pass() != pass || m.Kind() != kind ||
							m.Charge() != z || m.Slot() != slot || m.FragIndex() != fi {
							t.Fatalf("round trip (%d,%v,%d,%d,%d) -> (%d,%v,%d,%d,%d)",
								pass, kind, z, slot, fi,
								m.Pass(), m.Kind(), m.Charge(), m.Slot(), m.FragIndex())
						}
						wantNull := 0
						if pass != 0 {
							wantNull = 1
						}
						if got := int((m>>metaPassShift | m>>(metaPassShift+1)) & 1); got != wantNull {
							t.Fatalf("pass %d: null selector %d, want %d", pass, got, wantNull)
						}
					}
				}
			}
		}
	}
}

// fragIdxFixture builds a synthetic block and its inverted index.
func fragIdxFixture(t *testing.T, nDB, nQ int, params digest.Params, cfg score.Config) (*digest.Index, *Index, []*score.Query) {
	t.Helper()
	dbSpec := synth.SizedSpec(nDB)
	dbSpec.Seed = 11
	db := synth.GenerateDB(dbSpec)
	ix, err := digest.NewIndex(db, 0, params)
	if err != nil {
		t.Fatal(err)
	}
	spSpec := synth.DefaultSpectraSpec(nQ)
	spSpec.Digest = params
	spSpec.Charges = []int{1, 2, 3}
	truths, err := synth.GenerateSpectra(db, spSpec)
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]*score.Query, 0, len(truths))
	for _, raw := range synth.Spectra(truths) {
		qs = append(qs, score.PrepareQuery(raw, cfg))
	}
	return ix, New(ix, params.Mods, cfg), qs
}

// TestBuildDeterminism: tiers are pure functions of the block and config —
// two independent builds must be deeply equal, the invariant fault recovery
// relies on when it rebuilds a block's index from scratch.
func TestBuildDeterminism(t *testing.T) {
	params := digest.DefaultParams()
	params.Mods = []chem.Mod{chem.OxidationM}
	params.MaxModsPerPeptide = 1
	cfg := score.DefaultConfig()
	ix, a, _ := fragIdxFixture(t, 80, 1, params, cfg)
	b := New(ix, params.Mods, cfg)
	for _, kind := range []Kind{KindMatch, KindPasses} {
		for maxZ := 1; maxZ <= 3; maxZ++ {
			ta, tb := a.Tier(maxZ, kind), b.Tier(maxZ, kind)
			if (ta == nil) != (tb == nil) {
				t.Fatalf("kind %d maxZ %d: nil mismatch", kind, maxZ)
			}
			if ta != nil && !reflect.DeepEqual(ta, tb) {
				t.Errorf("kind %d maxZ %d: rebuilt tier differs", kind, maxZ)
			}
		}
	}
}

// TestWindowPostings checks the row-slicing binary searches against a
// linear-filter reference over every bin of a real tier, for a spread of
// ordinal windows including empty and out-of-range ones.
func TestWindowPostings(t *testing.T) {
	params := digest.DefaultParams()
	cfg := score.DefaultConfig()
	ix, fx, _ := fragIdxFixture(t, 80, 1, params, cfg)
	tier := fx.Tier(2, KindMatch) // passes tiers store packed keys, not ord/meta pairs
	n := ix.Len()
	windows := [][2]int{{0, n}, {0, 0}, {n, n}, {0, 1}, {n - 1, n}, {n / 4, 3 * n / 4}, {n / 2, n/2 + 1}}
	for r := 0; r < len(tier.rowStart)-1; r++ {
		bin := tier.minBin + int32(r)
		rowOrds := tier.ords[tier.rowStart[r]:tier.rowStart[r+1]]
		rowMetas := tier.metas[tier.rowStart[r]:tier.rowStart[r+1]]
		for _, w := range windows {
			gotOrds, gotMetas := tier.WindowPostings(bin, w[0], w[1])
			if len(gotOrds) != len(gotMetas) {
				t.Fatalf("bin %d window %v: ord/meta length mismatch %d vs %d",
					bin, w, len(gotOrds), len(gotMetas))
			}
			wantOrds := make([]int32, 0, len(rowOrds))
			wantMetas := make([]Meta, 0, len(rowOrds))
			for k, ord := range rowOrds {
				if int(ord) >= w[0] && int(ord) < w[1] {
					wantOrds = append(wantOrds, ord)
					wantMetas = append(wantMetas, rowMetas[k])
				}
			}
			if len(gotOrds) != len(wantOrds) {
				t.Fatalf("bin %d window %v: %d postings, want %d", bin, w, len(gotOrds), len(wantOrds))
			}
			for k := range wantOrds {
				if gotOrds[k] != wantOrds[k] || gotMetas[k] != wantMetas[k] {
					t.Fatalf("bin %d window %v: posting %d differs", bin, w, k)
				}
			}
		}
	}
	// Out-of-range bins yield nothing.
	if gotOrds, _ := tier.WindowPostings(tier.minBin-1, 0, n); gotOrds != nil {
		t.Error("below-range bin returned postings")
	}
	if gotOrds, _ := tier.WindowPostings(tier.minBin+int32(len(tier.rowStart)), 0, n); gotOrds != nil {
		t.Error("above-range bin returned postings")
	}
}

// TestBoundContract is the soundness and exactness contract that makes the
// fragment-index scan bit-identical: for every (query, candidate) pair and
// every scorer, a walk-derived bound with exact=true must equal
// ScorePrepared bit-for-bit, and a non-exact bound must never be below it.
// The likelihood estimate is additionally checked tight (the prune is
// useless otherwise).
func TestBoundContract(t *testing.T) {
	params := digest.DefaultParams()
	params.Mods = []chem.Mod{chem.OxidationM}
	params.MaxModsPerPeptide = 1
	cfg := score.DefaultConfig()
	ix, fx, qs := fragIdxFixture(t, 100, 12, params, cfg)
	n := ix.Len()

	var scr Scratch
	scr.Reset(n)
	for _, name := range []string{"likelihood", "hyper", "sharedpeaks", "xcorr"} {
		sc, err := score.New(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		walk := sc.FragWalk()
		exactSeen, boundedSeen := 0, 0
		for qi, q := range qs {
			bq := score.Batch(q)
			bins, intens := bq.Peaks()
			maxZ := spectrum.EffectiveMaxFragmentCharge(cfg.Theoretical, q.Charge)
			scr.BeginWindow(0, n)
			var tier *Tier
			if walk == score.FragWalkPasses {
				tier = fx.Tier(maxZ, KindPasses)
				if tier == nil {
					t.Fatal("pass tier unavailable for the synthetic block")
				}
				scr.WalkPasses(tier, &bq, bins, intens, 0, n)
			} else {
				tier = fx.Tier(maxZ, KindMatch)
				scr.WalkMatch(tier, bins, intens, 0, n)
			}
			var prep score.CandidatePrep
			for ord := 0; ord < n; ord++ {
				acc := scr.Accum(ord)
				acc.Predicted = tier.Predicted(ord)
				bound, exact := sc.BoundFromAccum(&bq, acc)
				pep := ix.At(ord)
				sc.Prepare(&prep, pep.Seq, pep.ModDeltas(params.Mods), q.Charge)
				s := sc.ScorePrepared(&bq, &prep)
				if exact {
					exactSeen++
					if bound != s {
						t.Fatalf("%s q%d ord%d: exact bound %v != score %v", name, qi, ord, bound, s)
					}
					continue
				}
				boundedSeen++
				if bound < s {
					t.Fatalf("%s q%d ord%d: bound %v below score %v (unsound by %g)",
						name, qi, ord, bound, s, s-bound)
				}
				if name == "likelihood" {
					if slack := bound - s; slack > 1e-6*(1+math.Abs(s)) {
						t.Fatalf("likelihood q%d ord%d: bound %v too loose for score %v (slack %g)",
							qi, ord, bound, s, slack)
					}
				}
			}
		}
		t.Logf("%s: %d exact, %d bounded", name, exactSeen, boundedSeen)
		if exactSeen == 0 && boundedSeen == 0 {
			t.Fatalf("%s: contract never exercised", name)
		}
	}
}

// TestPassTierSlotOverflow: a block whose per-pass fragment slots exceed the
// packable range must yield a nil pass tier (callers then full-score
// everything), and no tier of either kind exists beyond the packable
// fragment charge.
func TestPassTierSlotOverflow(t *testing.T) {
	params := digest.DefaultParams()
	cfg := score.DefaultConfig()
	ix, fx, _ := fragIdxFixture(t, 40, 1, params, cfg)
	if fx.Tier(maxPassCharge+1, KindPasses) != nil {
		t.Error("pass tier built beyond the packable fragment charge")
	}
	if fx.Tier(maxPassCharge+1, KindMatch) != nil {
		t.Error("match tier built beyond the packable fragment charge")
	}
	// Force a slot overflow by shrinking the packable range is not possible
	// at runtime; instead verify the guard arithmetic directly.
	var maxLen int32
	for ord := 0; ord < ix.Len(); ord++ {
		if l := int32(fx.Tier(1, KindMatch).PepLen(ord)); l > maxLen {
			maxLen = l
		}
	}
	if want := 2 * (int(maxLen) - 1); fx.maxSlots(1) != want {
		t.Errorf("maxSlots(1) = %d, want %d", fx.maxSlots(1), want)
	}
	overflowZ := (maxSlot+1)/(2*(int(maxLen)-1)) + 1
	if overflowZ <= maxPassCharge && fx.Tier(overflowZ, KindPasses) != nil {
		t.Errorf("pass tier built at charge cap %d despite slot overflow", overflowZ)
	}
}

// TestEmptyBlock: an empty digest index builds an empty (but valid) tier.
func TestEmptyBlock(t *testing.T) {
	ix, err := digest.NewIndex(nil, 0, digest.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 0 {
		t.Fatalf("empty database produced %d peptides", ix.Len())
	}
	fx := New(ix, nil, score.DefaultConfig())
	tier := fx.Tier(2, KindMatch)
	if tier == nil {
		t.Fatal("nil match tier for empty block")
	}
	if got, _ := tier.WindowPostings(100, 0, 0); got != nil {
		t.Errorf("empty tier returned postings: %v", got)
	}
}

// TestQuickWalkMatchesQuickBins: the charge-1 match tier must index exactly
// the fragments of score.QuickBins, and WalkQuick's multiplicity counts must
// reproduce the QuickMatchFromBins numerator for every candidate.
func TestQuickWalkMatchesQuickBins(t *testing.T) {
	params := digest.DefaultParams()
	params.Mods = []chem.Mod{chem.OxidationM}
	params.MaxModsPerPeptide = 1
	cfg := score.DefaultConfig()
	ix, fx, qs := fragIdxFixture(t, 80, 6, params, cfg)
	n := ix.Len()
	quick := fx.Tier(1, KindMatch)

	var scr Scratch
	scr.Reset(n)
	var quickBins []int32
	var quickFrags []spectrum.Fragment
	for qi, q := range qs {
		bq := score.Batch(q)
		bins, _ := bq.Peaks()
		scr.BeginWindow(0, n)
		scr.WalkQuick(quick, bins, 0, n)
		for ord := 0; ord < n; ord++ {
			pep := ix.At(ord)
			quickBins, quickFrags = score.QuickBins(quickBins, pep.Seq, pep.ModDeltas(params.Mods), cfg, quickFrags)
			if int(quick.NFrags(ord)) != len(quickBins) {
				t.Fatalf("q%d ord%d: NFrags %d, QuickBins %d", qi, ord, quick.NFrags(ord), len(quickBins))
			}
			var want float64
			if len(quickBins) > 0 {
				want = score.QuickMatchFromBins(q, quickBins)
			}
			var got float64
			if nf := quick.NFrags(ord); nf > 0 {
				got = float64(scr.QuickCount(ord)) / float64(nf)
			}
			if got != want {
				t.Fatalf("q%d ord%d: quick fraction %v, want %v", qi, ord, got, want)
			}
		}
	}
}

// TestScratchWindowIsolation: BeginWindow must clear every accumulator of
// every in-window ordinal, so state from an earlier query whose window
// overlapped cannot leak into the next query's reads.
func TestScratchWindowIsolation(t *testing.T) {
	var s Scratch
	s.Reset(4)
	s.BeginWindow(0, 4)
	s.n[2], s.dot[2], s.qn[2] = 9, 3.5, 7
	s.t2[4], s.sw2[4], s.c2[4] = -1.25, 2.0, 3 // ordinal 2, model lane
	s.t2[5], s.sw2[5], s.c2[5] = 0.5, 1.0, 1   // ordinal 2, null lane
	s.BeginWindow(1, 3)
	if got := s.Accum(2); got != (score.MatchAccum{}) {
		t.Errorf("stale accumulator leaked across windows: %+v", got)
	}
	if s.MatchCount(2) != 0 || s.QuickCount(2) != 0 {
		t.Error("stale counts leaked across windows")
	}
}

// TestScratchPassSum pins the occupancy recombination: Accum's Model/Null
// must equal the decomposed sum t − log(p0)·sw + log(1−p0)·cnt, and a
// zero-count lane must yield exactly 0 even with infinite occupancy logs.
func TestScratchPassSum(t *testing.T) {
	var s Scratch
	s.Reset(2)
	s.BeginWindow(0, 2)
	s.lp0, s.l1p0 = math.Log(0.1), math.Log(0.9)
	s.t2[2], s.sw2[2], s.c2[2] = 3.0, 1.75, 2
	want := 3.0 - s.lp0*1.75 + s.l1p0*2
	if got := s.Accum(1).Model; got != want {
		t.Errorf("Model = %v, want %v", got, want)
	}
	if got := s.Accum(1).Null; got != 0 {
		t.Errorf("zero-count Null = %v, want 0", got)
	}
	s.lp0 = math.Inf(-1) // empty query: log(0) occupancy
	if got := s.Accum(0).Model; got != 0 {
		t.Errorf("zero-count Model with -Inf lp0 = %v, want 0", got)
	}
}
