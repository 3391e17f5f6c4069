// Package topk maintains bounded lists of the highest-scoring peptide hits
// for a query, as required by the peptide identification problem statement:
// "identify a list of at most τ top database hits for every input spectrum".
//
// The list is a size-bounded min-heap: offering a hit below the current
// threshold when the list is full is an O(1) rejection, so the amortized
// cost of maintaining the list during a database scan is O(r + τ log τ) for
// r offered candidates.
package topk

// Hit is a scored candidate peptide match for one query spectrum.
type Hit struct {
	// Peptide is the candidate sequence (with modification annotations, if
	// any, in bracket notation, e.g. "PEPM[+15.99]TIDE").
	Peptide string
	// Protein is the index of the database sequence the candidate came from.
	Protein int32
	// ProteinID is the source sequence's FASTA identifier (reporting only;
	// it does not participate in ordering).
	ProteinID string
	// Mass is the candidate's neutral parent mass.
	Mass float64
	// Score is the scoring-model value; larger is better.
	Score float64
}

// less orders hits for the heap and for final reporting. Ties on score are
// broken deterministically (peptide, then protein index, then mass) so that
// every execution — serial, master–worker, or either distributed algorithm —
// reports byte-identical hit lists.
func less(a, b Hit) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	if a.Peptide != b.Peptide {
		return a.Peptide > b.Peptide
	}
	if a.Protein != b.Protein {
		return a.Protein > b.Protein
	}
	return a.Mass > b.Mass
}

// List accumulates the top-K hits by score. The zero value is unusable; use
// New.
type List struct {
	k int
	h []Hit // min-heap ordered by less
}

// firstCap bounds a heap's first allocation: a list with τ ≤ firstCap sizes
// its heap once, a larger τ doubles toward τ, so few hits never cost τ slots.
const firstCap = 64

// New returns a list that retains at most k hits. k <= 0 yields a list that
// rejects everything (a legal degenerate configuration used in tests).
func New(k int) *List { return &List{k: max(k, 0)} }

// NewLists returns n lists of capacity k, allocated together.
func NewLists(n, k int) []*List {
	ls, out := make([]List, n), make([]*List, n)
	for i := range out {
		ls[i].k = max(k, 0)
		out[i] = &ls[i]
	}
	return out
}

// Len returns the number of hits currently retained.
func (l *List) Len() int { return len(l.h) }

// Threshold returns the minimum score a new hit must exceed to be retained,
// and false if the list is not yet full (every hit is retained).
func (l *List) Threshold() (float64, bool) {
	if len(l.h) < l.k || l.k == 0 {
		return 0, false
	}
	return l.h[0].Score, true
}

// Offer considers hit h for inclusion and reports whether it was retained.
//
//pepvet:hotpath
func (l *List) Offer(h Hit) bool {
	if l.k == 0 {
		return false
	}
	if len(l.h) < l.k {
		if len(l.h) == cap(l.h) {
			l.h = append(make([]Hit, 0, min(l.k, max(firstCap, 2*cap(l.h)))), l.h...)
		}
		l.h = append(l.h, h)
		up(l.h, len(l.h)-1)
		return true
	}
	if !less(l.h[0], h) {
		return false
	}
	l.h[0] = h
	down(l.h, 0)
	return true
}

// Merge offers every hit retained by other into l. other is unchanged.
func (l *List) Merge(other *List) {
	for _, h := range other.h {
		l.Offer(h)
	}
}

// AppendSorted appends the retained hits to dst, best first, and returns the
// extended slice; the list is unchanged.
func (l *List) AppendSorted(dst []Hit) []Hit {
	n := len(dst)
	dst = append(dst, l.h...)
	// Heap-sort the copy: each pass swaps the root, the worst hit left,
	// behind the shrinking heap.
	for h, last := dst[n:], len(dst)-n-1; last > 0; last-- {
		h[0], h[last] = h[last], h[0]
		down(h[:last], 0)
	}
	return dst
}

// Drain returns the retained hits best first, sorted in place in the list's
// own storage, which passes to the caller; the list is left empty.
func (l *List) Drain() []Hit {
	h := l.AppendSorted(l.h[:0])
	l.h = nil
	return h
}

func up(h []Hit, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !less(h[i], h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func down(h []Hit, i int) {
	n := len(h)
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && less(h[left], h[smallest]) {
			smallest = left
		}
		if right < n && less(h[right], h[smallest]) {
			smallest = right
		}
		if smallest == i {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}
