package core

import (
	"errors"

	"pepscale/internal/spectrum"
	"pepscale/internal/topk"
	"pepscale/internal/wire"
)

// This file holds the two headerless formats the engines ship between ranks
// under the repository's codec rules (DESIGN.md, "Blob codec"): per-rank hit
// lists gathered to rank 0 and the master–worker / sort-path query batches.
// A blob's length is a pure function of the encoded values, and the tracer
// records it as event payload bytes.

// errWire reports a blob of one of the engines' formats (results, batches,
// candidate blocks, admission payloads) that fails structural validation.
var errWire = errors.New("core: corrupt wire blob")

// resultWireMin is the encoded size of a QueryResult with an empty
// identifier and no hits: index, identifier length, parent mass, hit count.
const resultWireMin = 4 + 4 + 8 + 4

// encodeResults serializes per-query hit lists for the gather to rank 0.
func encodeResults(rs []QueryResult) []byte {
	n := 4
	for i := range rs {
		n += 4 + 4 + len(rs[i].ID) + 8 + topk.HitsWireSize(rs[i].Hits)
	}
	b := make([]byte, 0, n)
	b = wire.U32(b, uint32(len(rs)))
	for i := range rs {
		q := &rs[i]
		b = wire.U32(b, uint32(q.Index))
		b = wire.Str(b, q.ID)
		b = wire.F64(b, q.ParentMass)
		b = topk.AppendHits(b, q.Hits)
	}
	return b
}

// decodeResults parses a blob produced by encodeResults. A nil/empty blob
// decodes as an empty result set.
func decodeResults(b []byte) ([]QueryResult, error) {
	if len(b) == 0 {
		return nil, nil
	}
	d := wire.NewReader(b, errWire)
	rs := make([]QueryResult, d.Count(resultWireMin))
	for i := range rs {
		rs[i].Index = int(int32(d.U32()))
		rs[i].ID = d.Str()
		rs[i].ParentMass = d.F64()
		rs[i].Hits = topk.ReadHits(&d)
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return rs, nil
}

// encodeBatch serializes a routed query batch (indices plus raw spectra).
func encodeBatch(m batchMsg) []byte {
	n := 4 + 4*len(m.Indices) + 4
	for _, s := range m.Specs {
		n += s.WireSize()
	}
	b := make([]byte, 0, n)
	b = wire.Ints(b, m.Indices)
	b = wire.U32(b, uint32(len(m.Specs)))
	for _, s := range m.Specs {
		b = s.AppendWire(b)
	}
	return b
}

// decodeBatch parses a blob produced by encodeBatch.
func decodeBatch(b []byte) (batchMsg, error) {
	var m batchMsg
	if len(b) == 0 {
		return m, nil
	}
	d := wire.NewReader(b, errWire)
	m.Indices = d.Ints()
	if n := d.Count(spectrum.WireMin); n > 0 {
		m.Specs = make([]*spectrum.Spectrum, n)
		for i := range m.Specs {
			m.Specs[i] = spectrum.ReadWire(&d)
		}
	}
	if err := d.Finish(); err != nil {
		return batchMsg{}, err
	}
	return m, nil
}
