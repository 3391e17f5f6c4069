// Package a is the hotpath analyzer's seeded-violation corpus: one
// annotated function per rejected construct, the sanctioned scratch
// patterns left silent, and one //pepvet:allow suppression.
package a

import (
	"fmt"
	"sort"
)

type state struct{ buf []int }

func sink(v any) {}

// hot exercises the allocation-inducing constructs on an annotated path.
//
//pepvet:hotpath
func hot(s *state, vs []int, name string) string {
	msg := fmt.Sprintf("q=%s", name) // want "fmt.Sprintf allocates"
	msg = msg + name                 // want "string concatenation"
	msg += name                      // want "string concatenation"
	var tmp []int
	for _, v := range vs {
		tmp = append(tmp, v) // want "append grows tmp"
	}
	lit := []int{}
	lit = append(lit, vs...) // want "append grows lit"
	capless := make([]int, 0)
	capless = append(capless, vs...) // want "append grows capless"
	s.buf = append(s.buf, tmp...)    // field scratch: no finding
	hinted := make([]int, 0, len(vs))
	hinted = append(hinted, vs...) // capacity-hinted: no finding
	total := 0
	bump := func() { total++ } // want "closure captures total"
	bump()
	noCap := func(a, b int) int { return a + b } // capture-free closure: no finding
	total = noCap(total, 1)
	sink(total) // want "conversion of int to interface"
	_, _ = lit, capless
	return msg
}

// box exercises boxing through a return statement.
//
//pepvet:hotpath
func box(v [2]float64) any {
	return v // want "conversion of \[2\]float64 to interface"
}

// assignBox exercises boxing through plain assignment.
//
//pepvet:hotpath
func assignBox(vs []int) {
	var iface any
	iface = vs // want "conversion of \[\]int to interface"
	_ = iface
}

// walkRows is shaped like an inverted-index row walk done wrong: locating
// the window with a capturing sort.Search closure and collecting postings
// into an unhinted local. A walk done right advances per-row cursors and
// accumulates into field-backed scratch, so neither construct appears on
// its path.
//
//pepvet:hotpath
func walkRows(rowStart []int32, windows [][2]int32) []int32 {
	var hits []int32
	for _, w := range windows {
		i := sort.Search(len(rowStart), func(k int) bool { return rowStart[k] >= w[0] }) // want "closure captures"
		for ; i < len(rowStart) && rowStart[i] < w[1]; i++ {
			hits = append(hits, rowStart[i]) // want "append grows hits"
		}
	}
	return hits
}

// hotAllowed shows the escape hatch: the formatting happens once per scan
// teardown, not per candidate, and the justification is recorded.
//
//pepvet:hotpath
func hotAllowed(vs []int) string {
	//pepvet:allow hotpath formats once at scan teardown, off the per-candidate path
	return fmt.Sprintf("%d", len(vs))
}

// cold is unannotated: the analyzer must not look inside.
func cold(name string) string {
	return fmt.Sprintf("%s!", name)
}
