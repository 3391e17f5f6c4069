package score

import "testing"

// TestScoreZeroAlloc pins the allocation-free guarantee of the scoring hot
// path: after one warming call (which grows the scratch buffers to the
// candidate's size), Score must not touch the heap. A regression here
// reintroduces per-candidate garbage into the tightest loop of every
// engine.
func TestScoreZeroAlloc(t *testing.T) {
	q := makeQuery(t, truePep, 7)
	pep := []byte(truePep)
	for _, name := range Names() {
		sc, err := New(name, DefaultConfig())
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		sc.Score(q, pep, nil) // warm: grows scratch, builds XCorr's lazy array
		if allocs := testing.AllocsPerRun(100, func() { sc.Score(q, pep, nil) }); allocs != 0 {
			t.Errorf("%s: %v allocs per warmed Score, want 0", name, allocs)
		}
	}
}

// TestScratchMatchesAllocatingShuffle verifies the in-place null-model
// shuffle produces exactly the permutation of the historical allocating
// form, mods included.
func TestScratchMatchesAllocatingShuffle(t *testing.T) {
	pep := []byte(truePep)
	deltas := make([]float64, len(pep))
	deltas[3] = 15.9949
	deltas[8] = 79.9663
	var sc scratch
	for salt := uint64(0); salt < 5; salt++ {
		wantPep, wantDel := shuffle(pep, deltas, salt)
		gotPep, gotDel := sc.shuffled(pep, deltas, salt)
		if string(gotPep) != string(wantPep) {
			t.Fatalf("salt %d: peptide %q, want %q", salt, gotPep, wantPep)
		}
		for i := range wantDel {
			if gotDel[i] != wantDel[i] {
				t.Fatalf("salt %d: delta[%d] = %v, want %v", salt, i, gotDel[i], wantDel[i])
			}
		}
	}
}
