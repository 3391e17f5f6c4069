package topk_test

import (
	"fmt"

	"pepscale/internal/topk"
)

func ExampleList() {
	// Keep the τ=2 best hits out of a stream of scored candidates.
	l := topk.New(2)
	for _, h := range []topk.Hit{
		{Peptide: "AAK", Score: 4.2},
		{Peptide: "GGR", Score: 9.1},
		{Peptide: "MMK", Score: 1.0},
		{Peptide: "WWR", Score: 7.7},
	} {
		l.Offer(h)
	}
	for i, h := range l.AppendSorted(nil) {
		fmt.Printf("%d. %s %.1f\n", i+1, h.Peptide, h.Score)
	}
	// Output:
	// 1. GGR 9.1
	// 2. WWR 7.7
}
