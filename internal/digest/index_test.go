package digest_test

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"slices"
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
// by sort.Slice under (mass, residues, protein, site count, sites by
// (Pos, Mod)).
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
		if len(a.Sites) != len(b.Sites) {
			return len(a.Sites) < len(b.Sites)
		}
		for k := range a.Sites {
			if x, y := a.Sites[k], b.Sites[k]; x != y {
				return x.Pos < y.Pos || x.Pos == y.Pos && x.Mod < y.Mod
			}
		}
		return false
	})
	return peps
}

// requireSameOrder checks At(i) against the reference field for field.
func requireSameOrder(t *testing.T, ix *digest.Index, want []digest.Peptide) {
	t.Helper()
	ix.SortAll()
	if ix.Len() != len(want) {
		t.Fatalf("Len = %d, reference has %d", ix.Len(), len(want))
	}
	for i, w := range want {
		g := ix.At(i)
		if ix.SeqLen(i) != len(g.Seq) {
			t.Fatalf("SeqLen(%d) = %d, At has %d residues", i, ix.SeqLen(i), len(g.Seq))
		}
		if math.Float64bits(g.Mass) != math.Float64bits(w.Mass) || !bytes.Equal(g.Seq, w.Seq) || g.Protein != w.Protein {
			t.Fatalf("At(%d) = {%s %d %v}, reference {%s %d %v}", i, g.Seq, g.Protein, g.Mass, w.Seq, w.Protein, w.Mass)
		}
		if (g.Sites == nil) != (w.Sites == nil) || !slices.Equal(g.Sites, w.Sites) {
			t.Fatalf("At(%d) %s: sites %v, reference %v", i, g.Seq, g.Sites, w.Sites)
		}
	}
}

// TestIndexMatchesReferenceOrder holds the flat index to the order and the
// bits of the reference build, from one-record blocks to ones of a hundred
// thousand entries.
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
	// the size.
	wide, narrow := []int{1, 3, 40, 120}, []int{1, 3, 8}
	params := []struct {
		name  string
		p     digest.Params
		sizes []int
	}{
		{"plain", base, wide}, {"mods", mods(base), wide}, {"average", avg(base), wide},
		{"semi", semi(base), narrow}, {"semi+mods", semi(mods(base)), narrow},
	}
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
					t.Run(name, func(t *testing.T) { requireSameOrder(t, ix, want) })

					// The same peptides handed over pre-digested, in reverse.
					rev := make([]digest.Peptide, len(want))
					for i, pep := range want {
						rev[len(want)-1-i] = pep
					}
					fromPeps, err := digest.IndexFromFunc(len(rev), func(i int) digest.Peptide { return rev[i] }, pc.p)
					if err != nil {
						t.Fatalf("%s: IndexFromFunc: %v", name, err)
					}
					t.Run(name+"/from-peptides", func(t *testing.T) { requireSameOrder(t, fromPeps, want) })
				}
			}
		}
	}
}

// TestIndexSortsAnyMass: the in-place sort orders masses no digest emits
// (NaN, infinities, signed zeros, negatives) by their key, keeps every
// entry, and resolves runs of more than 32 equal keys and blocks deep
// enough to take several bucket levels.
func TestIndexSortsAnyMass(t *testing.T) {
	key := func(m float64) uint64 {
		if b := math.Float64bits(m); b>>63 != 0 {
			return ^b
		} else {
			return b | 1<<63
		}
	}
	odd := []float64{math.NaN(), math.Inf(-1), -1e300, -5, math.Copysign(0, -1), 0, 1e-300, 1e300, math.Inf(1), 1234.5}
	seq := []byte("PEPTIDEKR")
	state := uint64(7)
	var peps []digest.Peptide
	count := map[[3]uint64]int{}
	for i := 0; i < 20000; i++ {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		m := 500 + float64(state%4500000)/1000
		if i%4 == 0 {
			m = odd[state%uint64(len(odd))]
		}
		pep := digest.Peptide{Seq: seq[:1+state%9], Protein: int32(state % 5), Mass: m}
		peps = append(peps, pep)
		count[[3]uint64{math.Float64bits(m), uint64(len(pep.Seq)), uint64(pep.Protein)}]++
	}
	ix, err := digest.IndexFromFunc(len(peps), func(i int) digest.Peptide { return peps[i] }, digest.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	ix.SortAll()
	for i := 0; i < ix.Len(); i++ {
		g := ix.At(i)
		count[[3]uint64{math.Float64bits(g.Mass), uint64(len(g.Seq)), uint64(g.Protein)}]--
		if i == 0 {
			continue
		}
		p := ix.At(i - 1)
		if kp, kg := key(p.Mass), key(g.Mass); kp > kg || kp == kg && (len(p.Seq) > len(g.Seq) || len(p.Seq) == len(g.Seq) && p.Protein > g.Protein) {
			t.Fatalf("At(%d) = {%s %d %v} after {%s %d %v}", i, g.Seq, g.Protein, g.Mass, p.Seq, p.Protein, p.Mass)
		}
	}
	for k, n := range count {
		if n != 0 {
			t.Fatalf("entry %v: %d more in the input than in the index", k, n)
		}
	}
}

// indexShapes are the builds BenchmarkNewIndex times, with the allocation
// ceiling of one NewIndex call in bytes for n peptides: a 1,500-record
// block (batch_sparse's shape), a 2-record block (scale_wide's, which
// builds a thousand of them per search, so its fixed cost counts), the
// whole-database build core.Serial does, and 150-record blocks digested
// with Oxidation(M) and Phospho(STY) (two per peptide) and
// semi-tryptically, whose columns are sized by bounds that count
// modification variants and prefixes and suffixes. The unmodified budgets
// of 24 B per peptide are what a 24-byte entry alone would take, beside
// its share of the arena; the mods budget holds the side column of
// modified entries to its presized 8 B each.
var indexShapes = []struct {
	name   string
	recs   int
	p      digest.Params
	budget func(n int) float64
}{
	{"block=1500", 1500, digest.DefaultParams(), func(n int) float64 { return 24 * float64(n) }},
	{"block=2", 2, digest.DefaultParams(), func(n int) float64 { return 4096 + 24*float64(n) }},
	{"whole=12000", 12000, digest.DefaultParams(), func(n int) float64 { return 24 * float64(n) }},
	{"mods,block=150", 150, modParams(), func(n int) float64 { return 40 * float64(n) }},
	{"semi,block=150", 150, semiParams(), func(n int) float64 { return 24 * float64(n) }},
}

func modParams() digest.Params {
	p := digest.DefaultParams()
	p.Mods = []chem.Mod{chem.OxidationM, chem.PhosphoSTY}
	p.MaxModsPerPeptide = 2
	return p
}

func semiParams() digest.Params {
	p := digest.DefaultParams()
	p.SemiTryptic = true
	return p
}

// buildAllocBytes returns the heap bytes one NewIndex call allocates.
func buildAllocBytes(tb testing.TB, recs []fasta.Record, p digest.Params) (bytes uint64, ix *digest.Index) {
	tb.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ix, err := digest.NewIndex(recs, 0, p)
	runtime.ReadMemStats(&after)
	if err != nil {
		tb.Fatal(err)
	}
	return after.TotalAlloc - before.TotalAlloc, ix
}

func TestNewIndexAllocBudget(t *testing.T) {
	for _, c := range indexShapes {
		got, ix := buildAllocBytes(t, benchDB(c.recs, 7), c.p)
		if max := c.budget(ix.Len()); float64(got) > max {
			t.Errorf("%s: NewIndex allocated %d B for %d peptides (%.1f B/peptide), budget %.0f B",
				c.name, got, ix.Len(), float64(got)/float64(ix.Len()), max)
		}
	}
}

// BenchmarkNewIndex reports each shape's build rate and bytes per peptide,
// and fails above a budget. The bytes are measured on one build before the
// timer starts: runtime.ReadMemStats stops the world, and inside the loop
// it would dominate the small shapes' time.
func BenchmarkNewIndex(b *testing.B) {
	for _, c := range indexShapes {
		b.Run(c.name, func(b *testing.B) {
			recs := benchDB(c.recs, 7)
			bytes, ix := buildAllocBytes(b, recs, c.p)
			if float64(bytes) > c.budget(ix.Len()) {
				b.Fatalf("NewIndex allocated %d B for %d peptides, budget %.0f B", bytes, ix.Len(), c.budget(ix.Len()))
			}
			var peptides int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix, err := digest.NewIndex(recs, 0, c.p)
				if err != nil {
					b.Fatal(err)
				}
				peptides += ix.Len()
			}
			b.ReportMetric(float64(bytes)/float64(ix.Len()), "B/peptide")
			b.ReportMetric(float64(peptides)/b.Elapsed().Seconds(), "peptides/s")
		})
	}
}
