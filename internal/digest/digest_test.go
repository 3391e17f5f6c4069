package digest

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"pepscale/internal/chem"
	"pepscale/internal/fasta"
)

// openParams generates peptides with no length/mass restrictions.
func openParams() Params {
	return Params{MissedCleavages: 0, MinLength: 1, MaxLength: 1 << 20, MinMass: 0, MaxMass: 1e9}
}

func collect(seq string, p Params) []Peptide {
	var out []Peptide
	Digest([]byte(seq), 7, p, func(pep Peptide) { out = append(out, pep) })
	return out
}

func TestCleavageSites(t *testing.T) {
	cases := []struct {
		seq  string
		want []int
	}{
		{"MKVLR", []int{0, 2, 5}}, // after K
		{"MKPVLR", []int{0, 6}},   // K before P does not cleave
		{"RR", []int{0, 1, 2}},    // consecutive
		{"AAAA", []int{0, 4}},     // no sites
		{"", nil},                 // empty
		{"K", []int{0, 1}},        // terminal K
	}
	for _, c := range cases {
		got := CleavageSites([]byte(c.seq))
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("CleavageSites(%q) = %v, want %v", c.seq, got, c.want)
		}
	}
}

// TestDigestConcatenation: with zero missed cleavages and no filters, the
// tryptic peptides concatenate back to the protein.
func TestDigestConcatenation(t *testing.T) {
	f := func(seed uint64) bool {
		seq := randomProtein(seed, 120)
		peps := collect(string(seq), openParams())
		var buf bytes.Buffer
		for _, p := range peps {
			buf.Write(p.Seq)
		}
		return bytes.Equal(buf.Bytes(), seq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func randomProtein(seed uint64, maxLen int) []byte {
	state := seed | 1
	next := func(mod int) int {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return int(state % uint64(mod))
	}
	n := next(maxLen) + 5
	seq := make([]byte, n)
	for i := range seq {
		seq[i] = chem.Residues[next(20)]
	}
	return seq
}

func TestMissedCleavages(t *testing.T) {
	p := openParams()
	p.MissedCleavages = 2
	peps := collect("AKBKCKDK", Params{MissedCleavages: 2, MinLength: 1, MaxLength: 100, MinMass: 0, MaxMass: 1e9})
	_ = peps
	// Use a sequence of standard residues: "AK" "CK" "DK" "EK".
	peps = collect("AKCKDKEK", p)
	var got []string
	for _, pep := range peps {
		got = append(got, string(pep.Seq))
	}
	want := []string{
		"AK", "AKCK", "AKCKDK",
		"CK", "CKDK", "CKDKEK",
		"DK", "DKEK",
		"EK",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("missed cleavage expansion:\n got %v\nwant %v", got, want)
	}
}

func TestLengthAndMassFilters(t *testing.T) {
	p := openParams()
	p.MinLength = 3
	peps := collect("AKCKDKEK", p)
	for _, pep := range peps {
		if len(pep.Seq) < 3 {
			t.Errorf("peptide %q below MinLength", pep.Seq)
		}
	}
	p = openParams()
	p.MaxLength = 2
	for _, pep := range collect("AKCKDKEK", p) {
		if len(pep.Seq) > 2 {
			t.Errorf("peptide %q above MaxLength", pep.Seq)
		}
	}
	p = openParams()
	p.MinMass, p.MaxMass = 300, 400
	for _, pep := range collect("AKCKDKEK", p) {
		if pep.Mass < 300 || pep.Mass > 400 {
			t.Errorf("peptide %q mass %v outside window", pep.Seq, pep.Mass)
		}
	}
}

func TestMassMatchesChem(t *testing.T) {
	for _, pep := range collect("MKVLAGHWKCCCR", openParams()) {
		want, err := chem.PeptideMass(pep.Seq, chem.Mono)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(pep.Mass-want) > 1e-9 {
			t.Errorf("peptide %q mass %v, want %v", pep.Seq, pep.Mass, want)
		}
	}
}

func TestNonStandardResiduesSkipped(t *testing.T) {
	peps := collect("AXKGGK", openParams()) // X poisons the first peptide
	for _, pep := range peps {
		if bytes.ContainsAny(pep.Seq, "X") {
			t.Errorf("peptide %q contains non-standard residue", pep.Seq)
		}
	}
	if len(peps) != 1 || string(peps[0].Seq) != "GGK" {
		t.Errorf("peps = %v", peps)
	}
}

func TestSemiTryptic(t *testing.T) {
	p := openParams()
	p.MinLength = 2
	p.SemiTryptic = true
	peps := collect("MVLAGK", p)
	got := map[string]bool{}
	for _, pep := range peps {
		got[string(pep.Seq)] = true
	}
	// Full peptide plus every length>=2 prefix and suffix.
	for _, want := range []string{"MVLAGK", "MV", "MVL", "MVLA", "MVLAG", "GK", "AGK", "LAGK", "VLAGK"} {
		if !got[want] {
			t.Errorf("missing semi-tryptic form %q (have %v)", want, got)
		}
	}
}

func TestModExpansion(t *testing.T) {
	p := openParams()
	p.Mods = []chem.Mod{chem.OxidationM}
	p.MaxModsPerPeptide = 2
	peps := collect("MMK", p)
	// Unmodified + M1 + M2 + M1M2.
	if len(peps) != 4 {
		t.Fatalf("got %d forms: %v", len(peps), peps)
	}
	base := peps[0].Mass
	counts := map[int]int{}
	for _, pep := range peps {
		nmods := len(pep.Sites)
		counts[nmods]++
		want := base + float64(nmods)*chem.OxidationM.Delta
		if math.Abs(pep.Mass-want) > 1e-9 {
			t.Errorf("form %v mass %v, want %v", pep.Sites, pep.Mass, want)
		}
	}
	if counts[0] != 1 || counts[1] != 2 || counts[2] != 1 {
		t.Errorf("form counts: %v", counts)
	}
}

func TestModVariantCap(t *testing.T) {
	p := openParams()
	p.Mods = []chem.Mod{chem.PhosphoSTY}
	p.MaxModsPerPeptide = 5
	p.MaxVariantsPerPeptide = 3
	peps := collect("SSSSSSSSK", p)
	// 1 unmodified + at most 3 variants.
	if len(peps) > 4 {
		t.Errorf("cap exceeded: %d forms", len(peps))
	}
}

func TestAnnotatedAndDeltas(t *testing.T) {
	mods := []chem.Mod{chem.OxidationM}
	pep := Peptide{Seq: []byte("AMK"), Sites: []ModSite{{Pos: 1, Mod: 0}}}
	ann := pep.Annotated(mods)
	if !strings.Contains(ann, "M[+15.99]") {
		t.Errorf("Annotated = %q", ann)
	}
	d := pep.ModDeltas(mods)
	if d[0] != 0 || math.Abs(d[1]-chem.OxidationM.Delta) > 1e-12 || d[2] != 0 {
		t.Errorf("ModDeltas = %v", d)
	}
	plain := Peptide{Seq: []byte("AMK")}
	if plain.Annotated(mods) != "AMK" || plain.ModDeltas(mods) != nil {
		t.Error("unmodified peptide should render plainly")
	}
}

func TestIndexWindowMatchesBruteForce(t *testing.T) {
	recs := []fasta.Record{}
	for i := 0; i < 30; i++ {
		recs = append(recs, fasta.Record{ID: "r", Seq: randomProtein(uint64(i)+1, 200)})
	}
	p := DefaultParams()
	ix, err := NewIndex(recs, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() == 0 {
		t.Fatal("empty index")
	}
	// Sortedness.
	for i := 1; i < ix.Len(); i++ {
		if ix.At(i).Mass < ix.At(i-1).Mass {
			t.Fatal("index not sorted by mass")
		}
	}
	f := func(center uint32, width uint16) bool {
		lo := 500 + float64(center%3000)
		hi := lo + float64(width%100)/10
		s, e := ix.Window(lo, hi)
		// All inside the window, none immediately outside.
		for i := s; i < e; i++ {
			if ix.At(i).Mass < lo || ix.At(i).Mass > hi {
				return false
			}
		}
		if s > 0 && ix.At(s-1).Mass >= lo {
			return false
		}
		if e < ix.Len() && ix.At(e).Mass <= hi {
			return false
		}
		// Count agrees with brute force.
		brute := 0
		for i := 0; i < ix.Len(); i++ {
			if m := ix.At(i).Mass; m >= lo && m <= hi {
				brute++
			}
		}
		return brute == ix.CountInWindow(lo, hi)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestWindowFromMatchesWindow drives an ascending sweep of windows through
// WindowFrom and checks every result against the binary-search Window — the
// exact-equality contract the peptide-major scan relies on, including
// touching/overlapping/disjoint consecutive windows and windows beyond both
// ends of the index.
func TestWindowFromMatchesWindow(t *testing.T) {
	recs := []fasta.Record{}
	for i := 0; i < 20; i++ {
		recs = append(recs, fasta.Record{ID: "r", Seq: randomProtein(uint64(i)+5, 180)})
	}
	ix, err := NewIndex(recs, 0, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() == 0 {
		t.Fatal("empty index")
	}
	for _, step := range []float64{0.5, 3, 40, 500} {
		for _, width := range []float64{0, 0.1, 5, 120} {
			hs, he := 0, 0
			for center := 100.0; center < 6000; center += step {
				lo, hi := center-width, center+width
				ws, we := ix.Window(lo, hi)
				gs, ge := ix.WindowFrom(hs, he, lo, hi)
				if gs != ws || ge != we {
					t.Fatalf("step=%g width=%g center=%g: WindowFrom = [%d,%d), Window = [%d,%d)",
						step, width, center, gs, ge, ws, we)
				}
				hs, he = gs, ge
			}
		}
	}
}

func TestIndexDeterministicAcrossBlockSplit(t *testing.T) {
	// Digesting the whole set must equal digesting two halves with
	// adjusted protein bases (the distributed-engine invariant): the same
	// peptides, bit for bit, with and without modifications.
	recs := []fasta.Record{}
	for i := 0; i < 10; i++ {
		recs = append(recs, fasta.Record{ID: "r", Seq: randomProtein(uint64(i)+77, 150)})
	}
	modified := DefaultParams()
	modified.Mods = []chem.Mod{chem.OxidationM, chem.PhosphoSTY}
	modified.MaxModsPerPeptide = 2
	for name, p := range map[string]Params{"plain": DefaultParams(), "modified": modified} {
		whole, err := NewIndex(recs, 0, p)
		if err != nil {
			t.Fatal(err)
		}
		h1, err := NewIndex(recs[:5], 0, p)
		if err != nil {
			t.Fatal(err)
		}
		h2, err := NewIndex(recs[5:], 5, p)
		if err != nil {
			t.Fatal(err)
		}
		if whole.Len() != h1.Len()+h2.Len() {
			t.Fatalf("%s: split sizes: %d vs %d+%d", name, whole.Len(), h1.Len(), h2.Len())
		}
		// +1 per peptide of the whole, -1 per peptide of a half.
		count := map[string]int{}
		for ix, sign := range map[*Index]int{whole: 1, h1: -1, h2: -1} {
			for i := 0; i < ix.Len(); i++ {
				pep := ix.At(i)
				count[fmt.Sprintf("%x %s %d %v", math.Float64bits(pep.Mass), pep.Seq, pep.Protein, pep.Sites)] += sign
			}
		}
		for k, n := range count {
			if n != 0 {
				t.Errorf("%s: peptide %s: whole has %+d more than the halves", name, k, n)
			}
		}
	}
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{MissedCleavages: -1, MinLength: 1, MaxLength: 2, MaxMass: 1},
		{MinLength: 0, MaxLength: 2, MaxMass: 1},
		{MinLength: 3, MaxLength: 2, MaxMass: 1},
		{MinLength: 1, MaxLength: 2, MinMass: 5, MaxMass: 1},
		{MinLength: 1, MaxLength: 2, MaxMass: 1, MaxModsPerPeptide: -1},
		// ModSite.Pos and the index's length column are 16 bits wide.
		{MinLength: 1, MaxLength: math.MaxUint16 + 1, MaxMass: 1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	if err := DefaultParams().Validate(); err != nil {
		t.Errorf("DefaultParams invalid: %v", err)
	}
	if err := (Params{MinLength: 1, MaxLength: math.MaxUint16, MaxMass: 1}).Validate(); err != nil {
		t.Errorf("MaxLength %d rejected: %v", math.MaxUint16, err)
	}

	// Valid parameters, but a block or peptide beyond the index's column
	// widths: refused with the typed error before anything is allocated (the
	// records alias one buffer, so the test holds a megabyte, not 4 GiB).
	seq := make([]byte, 1<<20)
	recs := make([]fasta.Record, 1<<12+1)
	for i := range recs {
		recs[i].Seq = seq
	}
	longest := Peptide{Seq: seq[:math.MaxUint16]}
	tooLarge := []struct {
		what  string
		build func() (*Index, error)
	}{
		{"block residues", func() (*Index, error) { return NewIndex(recs, 0, DefaultParams()) }},
		{"block residues", func() (*Index, error) {
			return IndexFromFunc(1<<16+2, func(int) Peptide { return longest }, DefaultParams())
		}},
		{"peptide length", func() (*Index, error) {
			return IndexFromPeptides([]Peptide{{Seq: seq[:math.MaxUint16+1]}}, DefaultParams())
		}},
		{"peptide mod sites", func() (*Index, error) {
			return IndexFromPeptides([]Peptide{{Seq: seq[:8], Sites: make([]ModSite, math.MaxUint16+1)}}, DefaultParams())
		}},
	}
	for i, c := range tooLarge {
		_, err := c.build()
		var e *TooLargeError
		if !errors.As(err, &e) || e.What != c.what {
			t.Errorf("oversized case %d: err = %v, want TooLargeError for %s", i, err, c.what)
		}
	}
}

func TestNewIndexIDsLengthMismatch(t *testing.T) {
	_, err := NewIndexIDs([]fasta.Record{{Seq: []byte("MK")}}, nil, DefaultParams())
	if err == nil {
		t.Error("expected error for gid length mismatch")
	}
}

func TestIndexMinMaxMass(t *testing.T) {
	empty, err := NewIndex(nil, 0, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if empty.MinMass() != 0 || empty.MaxMass() != 0 {
		t.Error("empty index min/max should be 0")
	}
	recs := []fasta.Record{{ID: "r", Seq: randomProtein(5, 300)}}
	ix, err := NewIndex(recs, 0, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() > 0 && ix.MinMass() > ix.MaxMass() {
		t.Error("min > max")
	}
}
