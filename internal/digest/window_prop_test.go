package digest

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"pepscale/internal/chem"
	"pepscale/internal/fasta"
)

// linearWindow is the obviously correct reference for Window: a full linear
// scan over the mass-ordered peptides.
func linearWindow(ix *Index, lo, hi float64) (start, end int) {
	n := ix.Len()
	start = n
	for i := 0; i < n; i++ {
		if ix.At(i).Mass >= lo {
			start = i
			break
		}
	}
	end = n
	for i := start; i < n; i++ {
		if ix.At(i).Mass > hi {
			end = i
			break
		}
	}
	return start, end
}

// windowIndex digests the records with no missed cleavages (so repeated
// tryptic units yield controlled mass multiplicity) and no mods.
func windowIndex(t *testing.T, recs []fasta.Record) *Index {
	t.Helper()
	p := DefaultParams()
	p.MissedCleavages = 0
	ix, err := NewIndex(recs, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	ix.SortAll()
	return ix
}

// TestWindowMatchesLinearReference is the property test for the gallop
// bounds the scan kernels build on: across degenerate mass distributions — all-equal masses, a single
// peptide, an empty index — and randomized ones, Window must agree with a
// linear scan for every probe, and WindowFrom must agree with Window for
// EVERY hint satisfying its precondition (hints at or below the true
// bounds), including hints sitting past the end of the index.
func TestWindowMatchesLinearReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))

	randomProteins := func(n int) []fasta.Record {
		recs := make([]fasta.Record, n)
		for i := range recs {
			var sb strings.Builder
			units := 1 + rng.Intn(3)
			for u := 0; u < units; u++ {
				l := 6 + rng.Intn(12)
				for j := 0; j < l; j++ {
					sb.WriteByte("ACDEFGHILMNPQSTVWY"[rng.Intn(18)])
				}
				sb.WriteByte("KR"[rng.Intn(2)])
			}
			recs[i] = fasta.Record{ID: fmt.Sprintf("rnd-%d", i), Seq: []byte(sb.String())}
		}
		return recs
	}

	dists := []struct {
		name string
		recs []fasta.Record
	}{
		// Every peptide identical: one repeated tryptic unit, so every mass
		// is bit-equal and any probe hits all or nothing.
		{"all-equal", []fasta.Record{{ID: "eq", Seq: []byte(strings.Repeat("PEPTIDEK", 24))}}},
		{"single-peptide", []fasta.Record{{ID: "one", Seq: []byte("ELVISLIVESK")}}},
		{"empty", nil},
		{"random", randomProteins(25)},
		// Heavy duplicate head plus a sparse distinct tail.
		{"skewed", append([]fasta.Record{{ID: "head", Seq: []byte(strings.Repeat("AAAAGGGGK", 16))}}, randomProteins(6)...)},
	}

	for _, d := range dists {
		t.Run(d.name, func(t *testing.T) {
			ix := windowIndex(t, d.recs)
			n := ix.Len()

			// Probe windows: every adjacent mass pair, exact single masses,
			// inverted (empty) windows, and out-of-range extremes.
			type probe struct{ lo, hi float64 }
			var probes []probe
			for i := 0; i < n; i++ {
				m := ix.At(i).Mass
				probes = append(probes,
					probe{m, m},               // exact hit
					probe{m - 0.5, m + 0.5},   // straddle
					probe{m + 1e-9, m + 1e-9}, // just above: likely empty
				)
				if i+1 < n {
					next := ix.At(i + 1).Mass
					probes = append(probes, probe{m, next})
					if next > m {
						// Empty in-contract window strictly between two masses.
						mid := m + (next-m)/2
						probes = append(probes, probe{mid, mid})
					}
				}
			}
			probes = append(probes,
				probe{-1e9, 1e9}, // everything
				probe{1e9, 2e9},  // beyond the top
				probe{-2, -1},    // below the bottom
			)
			for k := 0; k < 40; k++ {
				lo := 400 + rng.Float64()*3000
				probes = append(probes, probe{lo, lo + rng.Float64()*200})
			}

			for _, pr := range probes {
				wantS, wantE := linearWindow(ix, pr.lo, pr.hi)
				gotS, gotE := ix.Window(pr.lo, pr.hi)
				if gotS != wantS || gotE != wantE {
					t.Fatalf("Window(%g, %g) = [%d,%d), linear reference [%d,%d)",
						pr.lo, pr.hi, gotS, gotE, wantS, wantE)
				}
				// Exhaustive hint sweep: every hint pair at or below the true
				// bounds satisfies the gallop precondition and must reproduce
				// Window exactly (this covers hint == bound, hint == 0, and —
				// when the window is empty at the end — hints at n).
				for hs := 0; hs <= wantS; hs++ {
					for he := 0; he <= wantE; he++ {
						fs, fe := ix.WindowFrom(hs, he, pr.lo, pr.hi)
						if fs != wantS || fe != wantE {
							t.Fatalf("WindowFrom(%d, %d, %g, %g) = [%d,%d), want [%d,%d)",
								hs, he, pr.lo, pr.hi, fs, fe, wantS, wantE)
						}
					}
				}
			}

			// Monotone sweep as the scan uses it: windows of ascending probe
			// masses computed with the previous result as hint.
			hintS, hintE := 0, 0
			for i := 0; i < n; i++ {
				m := ix.At(i).Mass
				wantS, wantE := ix.Window(m-0.25, m+0.25)
				gotS, gotE := ix.WindowFrom(hintS, hintE, m-0.25, m+0.25)
				if gotS != wantS || gotE != wantE {
					t.Fatalf("sweep WindowFrom at mass %g = [%d,%d), want [%d,%d)",
						m, gotS, gotE, wantS, wantE)
				}
				hintS, hintE = gotS, gotE
			}
		})
	}
}

// eagerOrder is the reference a lazily sorted index is held to: the
// peptides sorted whole under the index order before any window is asked.
func eagerOrder(peps []Peptide) []Peptide {
	ref := slices.Clone(peps)
	slices.SortFunc(ref, func(a, b Peptide) int {
		return cmp.Or(cmp.Compare(massKey(a.Mass), massKey(b.Mass)), bytes.Compare(a.Seq, b.Seq),
			cmp.Compare(a.Protein, b.Protein), cmp.Compare(len(a.Sites), len(b.Sites)),
			slices.CompareFunc(a.Sites, b.Sites, func(x, y ModSite) int {
				return cmp.Or(cmp.Compare(x.Pos, y.Pos), cmp.Compare(x.Mod, y.Mod))
			}))
	})
	return ref
}

// eagerWindow is Window over the reference: the first position of mass
// >= lo and the first of mass > hi.
func eagerWindow(ref []Peptide, lo, hi float64) (start, end int) {
	return sort.Search(len(ref), func(i int) bool { return ref[i].Mass >= lo }),
		sort.Search(len(ref), func(i int) bool { return ref[i].Mass > hi })
}

// sameAt reports the first position of [start, end) where At, Candidate,
// Protein or SeqLen differs from the reference, field for field (mass by
// bits), or -1.
func sameAt(ix *Index, ref []Peptide, start, end int) int {
	for i := start; i < end; i++ {
		g, c, w := ix.At(i), ix.Candidate(i), ref[i]
		if math.Float64bits(g.Mass) != math.Float64bits(w.Mass) || !bytes.Equal(g.Seq, w.Seq) ||
			g.Protein != w.Protein || !slices.Equal(g.Sites, w.Sites) || ix.SeqLen(i) != len(w.Seq) ||
			ix.Protein(i) != w.Protein || c.Protein != -1 || math.Float64bits(c.Mass) != math.Float64bits(w.Mass) ||
			!bytes.Equal(c.Seq, w.Seq) || !slices.Equal(c.Sites, w.Sites) || (c.Sites == nil) != (w.Sites == nil) {
			return i
		}
	}
	return -1
}

// lazyCase is one block the lazy-index tests build cold, any number of
// times, beside the peptides it holds.
type lazyCase struct {
	name  string
	peps  []Peptide
	build func() (*Index, error)
}

// lazyCases are the blocks of the lazy-index tests: digested ones with
// modifications and semi-tryptic forms on both sides of wholeSortMax,
// blocks of exactly wholeSortMax-1, wholeSortMax and wholeSortMax+1
// entries, one of at most 32, two of infinite and signed-zero masses with
// runs of more than 32 equal masses (one on each side of wholeSortMax),
// one of a single mass, and an empty one.
func lazyCases(t *testing.T) []lazyCase {
	t.Helper()
	mods := DefaultParams()
	mods.Mods = []chem.Mod{chem.OxidationM, chem.PhosphoSTY}
	mods.MaxModsPerPeptide = 2
	semi := mods
	semi.SemiTryptic = true
	digested := func(name string, nRecs int, p Params) lazyCase {
		recs := make([]fasta.Record, nRecs)
		var peps []Peptide
		for i := range recs {
			recs[i] = fasta.Record{ID: "r", Seq: randomProtein(uint64(i)*31+7, 300)}
			Digest(recs[i].Seq, int32(i), p, func(pep Peptide) { peps = append(peps, pep) })
		}
		return lazyCase{name, peps, func() (*Index, error) { return NewIndex(recs, 0, p) }}
	}
	given := func(name string, peps []Peptide) lazyCase {
		return lazyCase{name, peps, func() (*Index, error) {
			return IndexFromFunc(len(peps), func(i int) Peptide { return peps[i] }, mods)
		}}
	}
	cases := []lazyCase{
		digested("plain/small", 12, DefaultParams()),
		digested("plain/large", 150, DefaultParams()),
		digested("mods", 60, mods),
		digested("semi+mods", 12, semi),
	}
	pool := cases[1].peps
	if len(pool) < 4*wholeSortMax {
		t.Fatalf("the plain block has %d peptides, too few to cut the threshold cases from", len(pool))
	}
	for _, n := range []int{20, wholeSortMax - 1, wholeSortMax, wholeSortMax + 1} {
		cases = append(cases, given(fmt.Sprintf("n=%d", n), pool[:n]))
	}
	odd := func(n int) []Peptide {
		peps := slices.Clone(pool[:n])
		for i := range peps {
			switch {
			case i%97 == 0:
				peps[i].Mass = math.Inf(1 - 2*(i%2))
			case i%89 == 0:
				peps[i].Mass = math.Copysign(0, float64(1-2*(i%2)))
			case i%5 == 0:
				peps[i].Mass = float64(1000 + 500*(i%3)) // three runs of equal masses
			}
		}
		return peps
	}
	equal := slices.Clone(pool[:2*wholeSortMax])
	for i := range equal {
		equal[i].Mass = 1234.5
	}
	// The same infinite and signed-zero masses in a block sorted whole at
	// build and in one sorted by bucket.
	return append(cases, given("inf+zeros+runs-eager", odd(wholeSortMax-1)), given("inf+zeros+runs", odd(3*wholeSortMax)),
		given("one-mass", equal), given("empty", nil))
}

// lazyProbes returns windows in arbitrary order: random ones, single
// masses, ones that start below the least mass or end above the greatest
// (at +Inf included), ones that span every bucket, and inverted ones.
func lazyProbes(rng *rand.Rand, ref []Peptide) [][2]float64 {
	probes := [][2]float64{
		{math.Inf(-1), math.MaxFloat64}, {-1e300, 1e300}, {math.Inf(-1), 0}, {0, 0}, {-1, 1},
		{math.Inf(-1), math.Inf(-1)}, {1e9, 2e9}, {-2, -1}, {math.Inf(-1), 600}, {4000, math.MaxFloat64},
		{math.Inf(-1), math.Inf(1)}, {4000, math.Inf(1)}, {math.MaxFloat64, math.Inf(1)}, {math.Inf(1), math.Inf(1)},
		{0, math.Inf(1)}, {math.Inf(1), 0},
	}
	if len(ref) == 0 {
		return probes
	}
	least, greatest := 400.0, 5000.0
	for _, p := range ref {
		if !math.IsInf(p.Mass, 0) {
			least, greatest = min(least, p.Mass), max(greatest, p.Mass)
		}
	}
	for k := 0; k < 60; k++ {
		m := ref[rng.Intn(len(ref))].Mass
		if math.IsInf(m, 0) {
			m = least
		}
		lo := least + rng.Float64()*(greatest-least)
		w := rng.ExpFloat64() * 5
		probes = append(probes, [2]float64{m, m}, [2]float64{lo, lo + w}, [2]float64{lo + w, lo},
			[2]float64{least - w, least + w}, [2]float64{greatest - w, greatest + w})
	}
	rng.Shuffle(len(probes), func(i, j int) { probes[i], probes[j] = probes[j], probes[i] })
	return probes
}

// TestLazyIndexMatchesEagerReference holds an index whose buckets are
// sorted on first reach to the same peptides sorted whole: every window's
// positions, and At and SeqLen at every position inside it, asked of cold
// indexes in arbitrary order through Window and in ascending sweeps
// through WindowFrom; then every position after SortAll.
func TestLazyIndexMatchesEagerReference(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	for _, c := range lazyCases(t) {
		t.Run(c.name, func(t *testing.T) {
			ref := eagerOrder(c.peps)
			cold := func() *Index {
				ix, err := c.build()
				if err != nil {
					t.Fatal(err)
				}
				if ix.Len() != len(ref) {
					t.Fatalf("Len = %d, reference %d", ix.Len(), len(ref))
				}
				return ix
			}
			check := func(ix *Index, what string, lo, hi float64, gs, ge int) {
				t.Helper()
				ws, we := eagerWindow(ref, lo, hi)
				if gs != ws || ge != we {
					t.Fatalf("%s(%g, %g) = [%d,%d), reference [%d,%d)", what, lo, hi, gs, ge, ws, we)
				}
				if i := sameAt(ix, ref, gs, ge); i >= 0 {
					t.Fatalf("%s(%g, %g): At(%d) = %+v, reference %+v", what, lo, hi, i, ix.At(i), ref[i])
				}
			}
			for trial := 0; trial < 4; trial++ {
				ix := cold()
				for _, pr := range lazyProbes(rng, ref) {
					s, e := ix.Window(pr[0], pr[1])
					check(ix, "Window", pr[0], pr[1], s, e)
				}
			}
			// Ascending sweeps, each on a cold index, from below the least
			// mass to above the greatest: narrow, wide, and one whose first
			// window spans every bucket.
			for _, sw := range []struct{ w, step float64 }{{0.02, 2}, {3, 5}, {150, 120}} {
				ix, w := cold(), sw.w
				hs, he := 0, 0
				for m := -2 * w; m < 6000; m += sw.step * (0.5 + rng.Float64()) {
					hs, he = ix.WindowFrom(hs, he, m-w, m+w)
					check(ix, "WindowFrom", m-w, m+w, hs, he)
				}
			}
			ix := cold()
			hs, he := ix.WindowFrom(0, 0, math.Inf(-1), 400)
			check(ix, "WindowFrom", math.Inf(-1), 400, hs, he)
			hs, he = ix.WindowFrom(hs, he, 500, 9000)
			check(ix, "WindowFrom", 500, 9000, hs, he)
			ix.SortAll()
			if i := sameAt(ix, ref, 0, len(ref)); i >= 0 {
				t.Fatalf("after SortAll: At(%d) = %+v, reference %+v", i, ix.At(i), ref[i])
			}
		})
	}
}

// TestIndexConcurrentFirstTouch: goroutines asking overlapping windows of
// one cold index at once each read the reference's peptides, whichever of
// them sorts a bucket first (run under -race, this also checks that every
// reader is ordered after the sort it reads).
func TestIndexConcurrentFirstTouch(t *testing.T) {
	recs := make([]fasta.Record, 150)
	var peps []Peptide
	for i := range recs {
		recs[i] = fasta.Record{ID: "r", Seq: randomProtein(uint64(i)*13+3, 300)}
		Digest(recs[i].Seq, int32(i), DefaultParams(), func(pep Peptide) { peps = append(peps, pep) })
	}
	ref := eagerOrder(peps)
	ix, err := NewIndex(recs, 0, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	const p = 4
	var wg sync.WaitGroup
	for g := 0; g < p; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine sweeps the mass range from its own offset, with
			// windows wide enough that neighbours reach the same buckets.
			hs, he := 0, 0
			for m := 400 + 17*float64(g); m < 5100; m += 23 {
				lo, hi := m-12, m+12
				hs, he = ix.WindowFrom(hs, he, lo, hi)
				if ws, we := eagerWindow(ref, lo, hi); hs != ws || he != we {
					t.Errorf("goroutine %d: WindowFrom(%g, %g) = [%d,%d), reference [%d,%d)", g, lo, hi, hs, he, ws, we)
					return
				}
				if i := sameAt(ix, ref, hs, he); i >= 0 {
					t.Errorf("goroutine %d: At(%d) = %+v, reference %+v", g, i, ix.At(i), ref[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestIndexProteinAndSitesEveryPosition holds the protein, which the index
// finds from a candidate's arena offset through its runs, and the sites of
// a modified candidate, found through its side column, to the peptides the
// digester emits, at every position: in blocks whose first and last
// records hold candidates, with empty records (first, last, and ones that
// share their arena start with the next), runs of equal gids, Algorithm B's
// non-monotone gids and Oxidation(M)+Phospho(STY); and in IndexFromFunc
// builds of alternating and repeated proteins, empty peptides among them;
// each built eagerly (fewer than wholeSortMax entries) and lazily. Two
// goroutines sweep each cold index at once before every position is read
// after SortAll.
func TestIndexProteinAndSitesEveryPosition(t *testing.T) {
	mods := DefaultParams()
	mods.Mods = []chem.Mod{chem.OxidationM, chem.PhosphoSTY}
	mods.MaxModsPerPeptide = 2
	seqs := func(n, maxLen int, seed uint64) [][]byte {
		out := make([][]byte, n)
		for i := range out {
			out[i] = randomProtein(seed+uint64(i)*29, maxLen)
		}
		return out
	}
	type layout struct {
		name string
		seqs [][]byte
		gids []int32
	}
	gids := func(m int, gid func(i int) int32) []int32 {
		g := make([]int32, m)
		for i := range g {
			g[i] = gid(i)
		}
		return g
	}
	ascending := func(i int) int32 { return 100 + int32(i) }
	layouts := func(n, maxLen int) []layout {
		edges := seqs(n, maxLen, 3)
		empties := seqs(n, maxLen, 5)
		empties[0], empties[n/2], empties[n-1] = nil, nil, nil
		empties = slices.Insert(empties, n/3, nil, nil)
		return []layout{
			{"edges", edges, gids(n, ascending)},
			{"empties", empties, gids(len(empties), ascending)},
			{"equal-gids", edges, gids(n, func(i int) int32 { return 100 + int32(i/3) })},
			{"scrambled", empties, gids(len(empties), func(i int) int32 { return int32((i*7919 + 13) % 10007) })},
		}
	}
	type build struct {
		name  string
		peps  []Peptide
		build func() (*Index, error)
	}
	var builds []build
	for _, size := range []struct {
		name      string
		n, maxLen int
	}{{"eager", 5, 100}, {"lazy", 45, 300}} {
		for _, pc := range []struct {
			name string
			p    Params
		}{{"plain", DefaultParams()}, {"mods", mods}} {
			for _, l := range layouts(size.n, size.maxLen) {
				recs := make([]fasta.Record, len(l.seqs))
				var peps []Peptide
				for i, seq := range l.seqs {
					recs[i] = fasta.Record{ID: "r", Seq: seq}
					Digest(seq, l.gids[i], pc.p, func(pep Peptide) { peps = append(peps, pep) })
				}
				if l.name == "edges" && (len(peps) == 0 || !slices.ContainsFunc(peps, func(pep Peptide) bool { return pep.Protein == l.gids[len(l.gids)-1] })) {
					t.Fatalf("%s: the first or last record has no candidates", l.name)
				}
				p := pc.p
				builds = append(builds, build{fmt.Sprintf("%s/%s/%s", size.name, pc.name, l.name), peps,
					func() (*Index, error) { return NewIndexIDs(recs, l.gids, p) }})
			}
		}
	}
	// Pre-digested peptides whose protein alternates, or repeats in runs of
	// three, from one position to the next; every seventh is empty.
	for _, b := range slices.Clone(builds) {
		if !strings.HasSuffix(b.name, "/edges") {
			continue
		}
		for _, shape := range []struct {
			name string
			gid  func(i int) int32
		}{{"alternating", func(i int) int32 { return int32(i % 2) }}, {"repeated", func(i int) int32 { return int32(i / 3) }}} {
			peps := slices.Clone(b.peps)
			for i := range peps {
				peps[i].Protein = shape.gid(i)
				if i%7 == 3 {
					peps[i].Seq = peps[i].Seq[:0]
				}
			}
			builds = append(builds, build{strings.TrimSuffix(b.name, "edges") + "from-func/" + shape.name, peps,
				func() (*Index, error) { return IndexFromFunc(len(peps), func(i int) Peptide { return peps[i] }, mods) }})
		}
	}
	for _, b := range builds {
		t.Run(b.name, func(t *testing.T) {
			ref := eagerOrder(b.peps)
			ix, err := b.build()
			if err != nil {
				t.Fatal(err)
			}
			if ix.Len() != len(ref) {
				t.Fatalf("Len = %d, reference %d", ix.Len(), len(ref))
			}
			if lazy := strings.HasPrefix(b.name, "lazy"); ix.Len() == 0 || lazy != (ix.lazy != nil) {
				t.Fatalf("%d entries: lazy = %v, want %v", ix.Len(), ix.lazy != nil, lazy)
			}
			var wg sync.WaitGroup
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					hs, he := 0, 0
					for m := 400 + 30*float64(g); m < 5100; m += 40 {
						hs, he = ix.WindowFrom(hs, he, m-25, m+25)
						if i := sameAt(ix, ref, hs, he); i >= 0 {
							t.Errorf("goroutine %d: At(%d) = %+v, Protein %d, reference %+v", g, i, ix.At(i), ix.Protein(i), ref[i])
							return
						}
					}
				}(g)
			}
			wg.Wait()
			ix.SortAll()
			if i := sameAt(ix, ref, 0, len(ref)); i >= 0 {
				t.Fatalf("At(%d) = %+v, Protein %d, reference %+v", i, ix.At(i), ix.Protein(i), ref[i])
			}
		})
	}
}
