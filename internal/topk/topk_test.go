package topk

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func mkHit(score float64, i int) Hit {
	return Hit{Peptide: fmt.Sprintf("PEP%04d", i), Protein: int32(i), Mass: 1000 + float64(i), Score: score}
}

// reference computes the expected top-k by full sort.
func reference(hits []Hit, k int) []Hit {
	cp := make([]Hit, len(hits))
	copy(cp, hits)
	sort.Slice(cp, func(i, j int) bool { return less(cp[j], cp[i]) })
	if len(cp) > k {
		cp = cp[:k]
	}
	return cp
}

func TestTopKMatchesSortReference(t *testing.T) {
	f := func(scores []float64, k8 uint8) bool {
		k := int(k8%20) + 1
		l := New(k)
		hits := make([]Hit, len(scores))
		for i, s := range scores {
			hits[i] = mkHit(s, i)
			l.Offer(hits[i])
		}
		return slices.Equal(l.AppendSorted(nil), reference(hits, k))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestOfferOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	hits := make([]Hit, 100)
	for i := range hits {
		hits[i] = mkHit(rng.NormFloat64(), i)
	}
	l1 := New(10)
	for _, h := range hits {
		l1.Offer(h)
	}
	perm := rng.Perm(len(hits))
	l2 := New(10)
	for _, i := range perm {
		l2.Offer(hits[i])
	}
	if !reflect.DeepEqual(l1.AppendSorted(nil), l2.AppendSorted(nil)) {
		t.Error("top-k depends on offer order")
	}
}

func TestTieBreakDeterministic(t *testing.T) {
	// All equal scores: ordering must fall back to peptide/protein.
	l := New(3)
	for i := 4; i >= 0; i-- {
		l.Offer(mkHit(1.0, i))
	}
	hits := l.AppendSorted(nil)
	if len(hits) != 3 {
		t.Fatalf("got %d hits", len(hits))
	}
	for i := 0; i < len(hits)-1; i++ {
		if hits[i].Peptide > hits[i+1].Peptide {
			t.Errorf("tie-break not by ascending peptide: %v before %v", hits[i].Peptide, hits[i+1].Peptide)
		}
	}
}

func TestThreshold(t *testing.T) {
	l := New(2)
	if _, full := l.Threshold(); full {
		t.Error("empty list reports full")
	}
	l.Offer(mkHit(5, 1))
	l.Offer(mkHit(3, 2))
	th, full := l.Threshold()
	if !full || th != 3 {
		t.Errorf("Threshold = %v, %v; want 3, true", th, full)
	}
	if l.Offer(mkHit(2, 3)) {
		t.Error("hit below threshold retained")
	}
	if !l.Offer(mkHit(4, 4)) {
		t.Error("hit above threshold rejected")
	}
	th, _ = l.Threshold()
	if th != 4 {
		t.Errorf("Threshold after eviction = %v, want 4", th)
	}
}

func TestZeroCapacity(t *testing.T) {
	for _, k := range []int{0, -3} {
		l := New(k)
		if l.Offer(mkHit(100, 1)) {
			t.Errorf("New(%d) retained a hit", k)
		}
		if l.Len() != 0 || len(l.AppendSorted(nil)) != 0 {
			t.Errorf("New(%d) non-empty", k)
		}
	}
}

func TestMerge(t *testing.T) {
	a, b := New(5), New(5)
	var all []Hit
	for i := 0; i < 20; i++ {
		h := mkHit(float64(i*7%13), i)
		all = append(all, h)
		if i%2 == 0 {
			a.Offer(h)
		} else {
			b.Offer(h)
		}
	}
	a.Merge(b)
	if !reflect.DeepEqual(a.AppendSorted(nil), reference(all, 5)) {
		t.Error("merge result differs from global top-k")
	}
	if b.Len() != 5 {
		t.Error("merge modified the source list")
	}
}

func TestHitsDoesNotMutate(t *testing.T) {
	l := New(4)
	for i := 0; i < 10; i++ {
		l.Offer(mkHit(float64(i), i))
	}
	h1 := l.AppendSorted(nil)
	h2 := l.AppendSorted(nil)
	if !reflect.DeepEqual(h1, h2) {
		t.Error("repeated AppendSorted calls disagree")
	}
	h1[0].Score = -999
	if reflect.DeepEqual(l.AppendSorted(nil)[0], h1[0]) {
		t.Error("AppendSorted returned aliased storage")
	}
}

// TestAppendSortedAndDrainMatchReference: on random offers full of ties —
// scores from a handful of values, peptides and proteins repeating — both
// ways out of a list give the sort reference's top τ, AppendSorted keeps
// dst's prefix and the list, and Drain leaves the list empty and reusable.
// τ spans the first heap allocation's bound, so growth past it is covered.
func TestAppendSortedAndDrainMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, k := range []int{0, 1, 3, 50, firstCap, firstCap + 1, 200} {
		for trial := 0; trial < 20; trial++ {
			hits := make([]Hit, 1+rng.Intn(3*k+5))
			for i := range hits {
				hits[i] = Hit{
					Peptide: fmt.Sprintf("PEP%d", rng.Intn(4)),
					Protein: int32(rng.Intn(3)),
					Mass:    1000 + float64(rng.Intn(2)),
					Score:   float64(rng.Intn(5)),
				}
			}
			l := New(k)
			for _, h := range hits {
				l.Offer(h)
			}
			want := reference(hits, k)
			prefix := []Hit{mkHit(-1, 0)}
			got := l.AppendSorted(slices.Clip(prefix))
			if !slices.Equal(got[:1], prefix) || !slices.Equal(got[1:], want) {
				t.Fatalf("k=%d trial %d: AppendSorted = %v, want %v after the prefix", k, trial, got, want)
			}
			if l.Len() != len(want) {
				t.Fatalf("k=%d trial %d: AppendSorted changed the list's length", k, trial)
			}
			if drained := l.Drain(); !slices.Equal(drained, want) {
				t.Fatalf("k=%d trial %d: Drain = %v, want %v", k, trial, drained, want)
			}
			if l.Len() != 0 || l.Drain() != nil {
				t.Fatalf("k=%d trial %d: list not empty after Drain", k, trial)
			}
			if k > 0 && (!l.Offer(hits[0]) || l.Len() != 1) {
				t.Fatalf("k=%d trial %d: drained list does not accept a hit", k, trial)
			}
		}
	}
}

// TestHeapAllocatedOnce: a τ = 50 list offered three times τ hits allocates
// its heap exactly once, and a τ = 1e6 list offered a few hits holds no
// more than the first allocation's bound.
func TestHeapAllocatedOnce(t *testing.T) {
	const k, runs = 50, 20
	hits := make([]Hit, 3*k)
	for i := range hits {
		hits[i] = mkHit(float64(i%17), i)
	}
	lists := make([]*List, runs+1) // AllocsPerRun calls f once more to warm up
	for i := range lists {
		lists[i] = New(k)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		l := lists[next]
		next++
		for _, h := range hits {
			l.Offer(h)
		}
	})
	if allocs != 1 {
		t.Errorf("filling a τ=%d list allocates %v times, want 1", k, allocs)
	}
	big := New(1_000_000)
	for _, h := range hits[:10] {
		big.Offer(h)
	}
	if c := cap(big.h); c > firstCap {
		t.Errorf("a τ=1e6 list holding 10 hits has %d slots, want at most %d", c, firstCap)
	}
}

func TestNaNScoresDoNotCorruptHeap(t *testing.T) {
	// NaN comparisons are always false; the heap must stay size-bounded
	// and not panic.
	l := New(3)
	nan := func() float64 { var z float64; return z / z }()
	for i := 0; i < 10; i++ {
		s := float64(i)
		if i%3 == 0 {
			s = nan
		}
		l.Offer(mkHit(s, i))
	}
	if l.Len() > 3 {
		t.Errorf("heap grew past capacity: %d", l.Len())
	}
}
