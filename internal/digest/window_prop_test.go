package digest

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

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
