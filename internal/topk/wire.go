package topk

import "pepscale/internal/wire"

// hitWireMin is the encoded size of a hit whose two strings are empty.
const hitWireMin = 4 + 4 + 4 + 8 + 8

// HitsWireSize is the encoded size of the list: len(AppendHits(nil, hits)).
func HitsWireSize(hits []Hit) int {
	n := 4
	for i := range hits {
		n += hitWireMin + len(hits[i].Peptide) + len(hits[i].ProteinID)
	}
	return n
}

// AppendHits appends the list in the one wire form checkpoints, result
// gathers and PRES frames share: a u32 count, then per hit the peptide
// (str), protein index (u32), protein id (str), mass and score (f64).
func AppendHits(b []byte, hits []Hit) []byte {
	b = wire.U32(b, uint32(len(hits)))
	for i := range hits {
		h := &hits[i]
		b = wire.Str(b, h.Peptide)
		b = wire.U32(b, uint32(h.Protein))
		b = wire.Str(b, h.ProteinID)
		b = wire.F64(b, h.Mass)
		b = wire.F64(b, h.Score)
	}
	return b
}

// ReadHits reads a list written by AppendHits; the empty list reads as nil.
// A failure is left in r for the caller's Finish.
func ReadHits(r *wire.Reader) []Hit {
	n := r.Count(hitWireMin)
	if n == 0 {
		return nil
	}
	hits := make([]Hit, n)
	for i := range hits {
		hits[i] = Hit{
			Peptide:   r.Str(),
			Protein:   int32(r.U32()),
			ProteinID: r.Str(),
			Mass:      r.F64(),
			Score:     r.F64(),
		}
	}
	return hits
}
