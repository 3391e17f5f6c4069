package digest_test

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"

	"pepscale/internal/chem"
	"pepscale/internal/digest"
	"pepscale/internal/fasta"
	"pepscale/internal/synth"
)

// benchDB is the benchmark's database shape (bench/workloads.go: microbial
// lengths with a third of the spread) at n sequences.
func benchDB(n int, seed uint64) []fasta.Record {
	spec := synth.SizedSpec(n)
	spec.LengthStdDev = 80
	spec.Seed = seed
	return synth.GenerateDB(spec)
}

// referenceDigest is the index build this package replaced, kept as the
// order's definition: every emitted peptide appended to one slice, ordered
// by sort.Slice under the (mass, residues, protein, site count) comparator.
func referenceDigest(recs []fasta.Record, gids []int32, p digest.Params) []digest.Peptide {
	var peps []digest.Peptide
	for i, rec := range recs {
		digest.Digest(rec.Seq, gids[i], p, func(pep digest.Peptide) { peps = append(peps, pep) })
	}
	sort.Slice(peps, func(i, j int) bool {
		a, b := peps[i], peps[j]
		if a.Mass != b.Mass {
			return a.Mass < b.Mass
		}
		if c := bytes.Compare(a.Seq, b.Seq); c != 0 {
			return c < 0
		}
		if a.Protein != b.Protein {
			return a.Protein < b.Protein
		}
		return len(a.Sites) < len(b.Sites)
	})
	return peps
}

func sitesLess(a, b []digest.ModSite) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i].Pos < b[i].Pos || a[i].Pos == b[i].Pos && a[i].Mod < b[i].Mod
		}
	}
	return false
}

// requireSameOrder checks At(i) against the reference field for field. The
// comparator leaves peptides equal in mass, residues, protein and site count
// in either order (they differ only in which sites are modified), so each
// such run is put in site order on both sides first.
func requireSameOrder(t *testing.T, ix *digest.Index, want []digest.Peptide) {
	t.Helper()
	if ix.Len() != len(want) {
		t.Fatalf("Len = %d, reference has %d", ix.Len(), len(want))
	}
	got := make([]digest.Peptide, ix.Len())
	for i := range got {
		got[i] = ix.At(i)
		if ix.SeqLen(i) != len(got[i].Seq) {
			t.Fatalf("SeqLen(%d) = %d, At has %d residues", i, ix.SeqLen(i), len(got[i].Seq))
		}
	}
	tied := func(a, b digest.Peptide) bool {
		return a.Mass == b.Mass && bytes.Equal(a.Seq, b.Seq) && a.Protein == b.Protein && len(a.Sites) == len(b.Sites)
	}
	for _, peps := range [][]digest.Peptide{got, want} {
		for i := 0; i < len(peps); {
			j := i + 1
			for j < len(peps) && tied(peps[i], peps[j]) {
				j++
			}
			run := peps[i:j]
			sort.SliceStable(run, func(a, b int) bool { return sitesLess(run[a].Sites, run[b].Sites) })
			i = j
		}
	}
	for i := range want {
		g, w := got[i], want[i]
		if math.Float64bits(g.Mass) != math.Float64bits(w.Mass) || !bytes.Equal(g.Seq, w.Seq) || g.Protein != w.Protein {
			t.Fatalf("At(%d) = {%s %d %v}, reference {%s %d %v}", i, g.Seq, g.Protein, g.Mass, w.Seq, w.Protein, w.Mass)
		}
		if (g.Sites == nil) != (w.Sites == nil) || len(g.Sites) != len(w.Sites) {
			t.Fatalf("At(%d) %s: sites %v, reference %v", i, g.Seq, g.Sites, w.Sites)
		}
		for s := range w.Sites {
			if g.Sites[s] != w.Sites[s] {
				t.Fatalf("At(%d) %s: sites %v, reference %v", i, g.Seq, g.Sites, w.Sites)
			}
		}
	}
}

// TestIndexMatchesReferenceOrder holds the flat index to the order and the
// bits of the build it replaced, on both sides of the radix threshold.
func TestIndexMatchesReferenceOrder(t *testing.T) {
	mods := func(p digest.Params) digest.Params {
		p.Mods = []chem.Mod{chem.OxidationM, chem.PhosphoSTY}
		p.MaxModsPerPeptide = 2
		return p
	}
	semi := func(p digest.Params) digest.Params {
		p.SemiTryptic = true
		return p
	}
	avg := func(p digest.Params) digest.Params {
		p.MassType = chem.Average
		return p
	}
	base := digest.DefaultParams()
	// Sequence counts per case: a semi-tryptic digest is about forty times
	// the size, so it crosses the threshold with three sequences.
	wide, narrow := []int{1, 3, 40, 120}, []int{1, 3, 8}
	params := []struct {
		name  string
		p     digest.Params
		sizes []int
	}{
		{"plain", base, wide}, {"mods", mods(base), wide}, {"average", avg(base), wide},
		{"semi", semi(base), narrow}, {"semi+mods", semi(mods(base)), narrow},
	}
	sawSmall, sawRadix := false, false
	for _, pc := range params {
		for _, n := range pc.sizes {
			for seed := uint64(1); seed <= 2; seed++ {
				recs := benchDB(n, seed)
				// Duplicated proteins: equal mass and residues, told apart by gid.
				recs = append(recs, recs[0], recs[len(recs)/2])
				// Non-standard residues poison the spans that contain them.
				recs = append(recs, fasta.Record{ID: "x", Seq: append([]byte("MKXAAAAAAK"), recs[0].Seq...)})
				for _, scrambled := range []bool{false, true} {
					gids := make([]int32, len(recs))
					for i := range gids {
						gids[i] = 1000 + int32(i)
						if scrambled {
							gids[i] = int32((i*7919 + 13) % 10007)
						}
					}
					name := fmt.Sprintf("%s/n=%d/seed=%d/scrambled=%v", pc.name, n, seed, scrambled)
					want := referenceDigest(recs, gids, pc.p)
					var ix *digest.Index
					var err error
					if scrambled {
						ix, err = digest.NewIndexIDs(recs, gids, pc.p)
					} else {
						ix, err = digest.NewIndex(recs, 1000, pc.p)
					}
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if ix.Len() < digest.RadixMinLen {
						sawSmall = true
					} else {
						sawRadix = true
					}
					t.Run(name, func(t *testing.T) { requireSameOrder(t, ix, want) })

					// The same peptides handed over pre-digested, in reverse.
					rev := make([]digest.Peptide, len(want))
					for i, pep := range want {
						rev[len(want)-1-i] = pep
					}
					fromPeps, err := digest.IndexFromPeptides(rev, pc.p)
					if err != nil {
						t.Fatalf("%s: IndexFromPeptides: %v", name, err)
					}
					t.Run(name+"/from-peptides", func(t *testing.T) { requireSameOrder(t, fromPeps, want) })
				}
			}
		}
	}
	if !sawSmall || !sawRadix {
		t.Errorf("sizes cover small=%v radix=%v sides of the %d-entry threshold, want both", sawSmall, sawRadix, digest.RadixMinLen)
	}
}

// indexShapes are the builds BenchmarkNewIndex times, with the allocation
// ceiling of one NewIndex call in bytes for n peptides where one is set: a
// 1,500-record block (batch_sparse's shape, radix path), a 2-record block
// (scale_wide's, which builds a thousand of them per search, so its fixed
// cost counts), and the whole-database build core.Serial does.
var indexShapes = []struct {
	name   string
	recs   int
	budget func(n int) float64
}{
	{"block=1500", 1500, func(n int) float64 { return 96 * float64(n) }},
	{"block=2", 2, func(n int) float64 { return 4096 + 64*float64(n) }},
	{"whole=12000", 12000, nil},
}

// buildAllocBytes returns the heap bytes one NewIndex call allocates.
func buildAllocBytes(tb testing.TB, recs []fasta.Record) (bytes uint64, ix *digest.Index) {
	tb.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ix, err := digest.NewIndex(recs, 0, digest.DefaultParams())
	runtime.ReadMemStats(&after)
	if err != nil {
		tb.Fatal(err)
	}
	return after.TotalAlloc - before.TotalAlloc, ix
}

func TestNewIndexAllocBudget(t *testing.T) {
	for _, c := range indexShapes {
		if c.budget == nil {
			continue
		}
		got, ix := buildAllocBytes(t, benchDB(c.recs, 7))
		if max := c.budget(ix.Len()); float64(got) > max {
			t.Errorf("%s: NewIndex allocated %d B for %d peptides (%.1f B/peptide), budget %.0f B",
				c.name, got, ix.Len(), float64(got)/float64(ix.Len()), max)
		}
	}
}

// BenchmarkNewIndex reports each shape's build rate and bytes per peptide,
// and fails above a budget.
func BenchmarkNewIndex(b *testing.B) {
	for _, c := range indexShapes {
		b.Run(c.name, func(b *testing.B) {
			recs := benchDB(c.recs, 7)
			var bytes uint64
			var peptides int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, ix := buildAllocBytes(b, recs)
				bytes += got
				peptides += ix.Len()
				if c.budget != nil && float64(got) > c.budget(ix.Len()) {
					b.Fatalf("NewIndex allocated %d B for %d peptides, budget %.0f B", got, ix.Len(), c.budget(ix.Len()))
				}
			}
			b.ReportMetric(float64(bytes)/float64(peptides), "B/peptide")
			b.ReportMetric(float64(peptides)/b.Elapsed().Seconds(), "peptides/s")
		})
	}
}
