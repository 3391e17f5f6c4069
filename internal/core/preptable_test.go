package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"pepscale/internal/chem"
	"pepscale/internal/digest"
	"pepscale/internal/score"
	"pepscale/internal/spectrum"
	"pepscale/internal/synth"
	"pepscale/internal/topk"
)

// tableShapes are the digests a prepared-fragment table is tested over.
var tableShapes = []struct {
	name   string
	mutate func(*digest.Params)
}{
	{"plain", func(*digest.Params) {}},
	{"mods", func(p *digest.Params) {
		p.Mods = []chem.Mod{chem.OxidationM, chem.PhosphoSTY}
		p.MaxModsPerPeptide = 2
	}},
	{"semi", func(p *digest.Params) { p.SemiTryptic = true }},
}

// storedPasses copies every pass the tables hold, keyed by (cap, entry).
func storedPasses(tabs []*score.PrepTable, entries int) map[[2]int][][]int32 {
	out := map[[2]int][][]int32{}
	for c, tab := range tabs {
		for e := 0; e < entries; e++ {
			for k := 0; k < tab.Passes(e); k++ {
				key := [2]int{c + 1, e}
				out[key] = append(out[key], slices.Clone(tab.Pass(e, k)))
			}
		}
	}
	return out
}

// TestPrepTableMatchesAppendBins: every pass a scan stores in its block's
// tables equals a fresh spectrum.AppendBins over the same peptide (or its
// null shuffle) and deltas at a precursor charge with the table's cap, for
// mods and semi-tryptic digests, precursor charges 1–4 and fragment-charge
// caps 1–3; a later scan that fills other entries leaves every stored pass
// byte-equal; and both scans report the hits of a scan without tables.
func TestPrepTableMatchesAppendBins(t *testing.T) {
	db := synth.GenerateDB(synth.SizedSpec(40))
	for _, shape := range tableShapes {
		for maxZ := 1; maxZ <= 3; maxZ++ {
			t.Run(fmt.Sprintf("%s/maxz=%d", shape.name, maxZ), func(t *testing.T) {
				opt := DefaultOptions()
				shape.mutate(&opt.Digest)
				opt.Score.Theoretical.MaxFragmentCharge = maxZ
				// Lists that never fill and no MinScore: no bound rejects, so
				// every touched entry stores all four passes.
				opt.Tau = 1 << 20
				opt.MinScore = math.Inf(-1)
				ix, err := digest.NewIndex(db, 0, opt.Digest)
				if err != nil {
					t.Fatal(err)
				}
				sc, err := score.New("likelihood", opt.Score)
				if err != nil {
					t.Fatal(err)
				}
				var ss scanState
				ss.tabs = make(prepTables, 1).forBlock(0, ix.Len(), opt)
				var before map[[2]int][][]int32
				for round, seed := range []uint64{11, 12} {
					spec := synth.DefaultSpectraSpec(10)
					spec.Charges, spec.Digest, spec.Seed = []int{1, 2, 3, 4}, opt.Digest, seed
					truths, err := synth.GenerateSpectra(db, spec)
					if err != nil {
						t.Fatal(err)
					}
					qs := prepareQueries(nil, synth.Spectra(truths), opt.Score)
					got, want := newLists(len(qs), opt.Tau), newLists(len(qs), opt.Tau)
					ss.scan(qs, got, ix, sc, opt, blockIDResolver(db, 0))
					scanIndex(qs, want, ix, sc, opt, blockIDResolver(db, 0))
					for qi := range qs {
						if !slices.EqualFunc(got[qi].AppendSorted(nil), want[qi].AppendSorted(nil), func(a, b topk.Hit) bool { return a == b }) {
							t.Errorf("round %d: query %d hits differ from a scan without tables", round, qi)
						}
					}
					stored := storedPasses(ss.tabs, ix.Len())
					for key, old := range before {
						if !slices.EqualFunc(stored[key], old, slices.Equal[[]int32]) {
							t.Errorf("round %d: cap %d entry %d: a later fill changed a stored pass", round, key[0], key[1])
						}
					}
					checkStoredPasses(t, stored, ix, opt)
					if len(stored) <= len(before) {
						t.Errorf("round %d: %d entries stored, %d before", round, len(stored), len(before))
					}
					before = stored
				}
			})
		}
	}
}

// checkStoredPasses holds each stored pass to a fresh AppendBins.
func checkStoredPasses(t *testing.T, stored map[[2]int][][]int32, ix *digest.Index, opt Options) {
	t.Helper()
	width := opt.Score.FragmentBinWidth()
	caps := map[int]bool{}
	for key, passes := range stored {
		c, pep := key[0], ix.At(key[1])
		caps[c] = true
		deltas := pep.ModDeltas(opt.Digest.Mods)
		if len(passes) != 4 {
			t.Errorf("cap %d entry %d: %d passes stored, want 4", c, key[1], len(passes))
		}
		for k, got := range passes {
			seq, d := pep.Seq, deltas
			if k > 0 {
				seq, d = score.ShuffledInto(nil, nil, pep.Seq, deltas, uint64(k-1))
			}
			want, _ := spectrum.AppendBins(nil, nil, seq, d, c+1, opt.Score.Theoretical, width)
			if !slices.Equal(got, want) {
				t.Fatalf("cap %d entry %d (%s) pass %d: stored %v, AppendBins %v", c, key[1], pep.Seq, k, got, want)
			}
		}
	}
	for z := 1; z <= 4; z++ {
		if c := spectrum.EffectiveMaxFragmentCharge(opt.Score.Theoretical, z); !caps[c] {
			t.Errorf("no entry stored at cap %d (precursor charge %d)", c, z)
		}
	}
}

// newLists returns n empty top-τ lists.
func newLists(n, tau int) []*topk.List {
	lists := make([]*topk.List, n)
	for i := range lists {
		lists[i] = topk.New(tau)
	}
	return lists
}

// TestPrepTableViewsAreCapped: a stored pass is capped at its length, so an
// append through it reallocates instead of writing over the pass stored
// after it.
func TestPrepTableViewsAreCapped(t *testing.T) {
	opt := DefaultOptions()
	tab := score.NewPrepTable(2)
	sc, err := score.New("hyper", opt.Score)
	if err != nil {
		t.Fatal(err)
	}
	var prep score.CandidatePrep
	for e, pep := range []string{"PEPTIDEK", "LLNANVVNVEQIEHEK"} {
		prep.Use(tab, e)
		sc.Prepare(&prep, []byte(pep), nil, 2)
	}
	next := slices.Clone(tab.Pass(1, 0))
	_ = append(tab.Pass(0, 0), -1, -1, -1)
	if !slices.Equal(tab.Pass(1, 0), next) {
		t.Errorf("an append through entry 0's pass wrote into entry 1's")
	}
}
