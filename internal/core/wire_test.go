package core

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"

	"pepscale/internal/spectrum"
	"pepscale/internal/topk"
	"pepscale/internal/wire/wiretest"
)

func wireSampleResults() []QueryResult {
	return []QueryResult{
		{Index: 4, ID: "scan=4", ParentMass: 1042.55, Hits: []topk.Hit{
			{Peptide: "PEPTIDEK", Protein: 1, ProteinID: "sp|P1", Mass: 904.47, Score: 37.5},
			{Peptide: "M[+15.99]K", Protein: 0, ProteinID: "sp|P0", Mass: 293.11, Score: 2.25},
		}},
		{Index: 0, ID: "", ParentMass: math.SmallestNonzeroFloat64, Hits: nil},
	}
}

func wireSampleBatch() batchMsg {
	return batchMsg{
		Indices: []int{7, 0, 12},
		Specs: []*spectrum.Spectrum{
			{ID: "q7", PrecursorMZ: 521.3, Charge: 2, Peaks: []spectrum.Peak{{MZ: 101.1, Intensity: 3}, {MZ: 250.2, Intensity: 1.5}}},
			{ID: "", PrecursorMZ: 0, Charge: 1, Peaks: nil},
			{ID: "q12", PrecursorMZ: 930.4, Charge: 3, Peaks: []spectrum.Peak{{MZ: 88.04, Intensity: 0.25}}},
		},
	}
}

// TestWireResultsRoundTrip: the deterministic result codec is lossless and
// its blobs are a pure function of the values (re-encoding compares equal).
func TestWireResultsRoundTrip(t *testing.T) {
	rs := wireSampleResults()
	b := encodeResults(rs)
	back, err := decodeResults(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rs, back) {
		t.Fatalf("round trip changed results:\n%+v\n%+v", rs, back)
	}
	if !bytes.Equal(b, encodeResults(back)) {
		t.Fatal("re-encoding decoded results changed the bytes")
	}
	if got, err := decodeResults(nil); err != nil || got != nil {
		t.Fatalf("nil blob: %v, %v", got, err)
	}
	if _, err := decodeResults(b[:len(b)-2]); !errors.Is(err, errWire) {
		t.Fatalf("truncated blob error = %v, want errWire", err)
	}
	if _, err := decodeResults(append(append([]byte(nil), b...), 0)); !errors.Is(err, errWire) {
		t.Fatalf("trailing-bytes error = %v, want errWire", err)
	}
}

// TestWireBatchRoundTrip: same properties for the query-batch codec.
func TestWireBatchRoundTrip(t *testing.T) {
	m := wireSampleBatch()
	b := encodeBatch(m)
	back, err := decodeBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, back) {
		t.Fatalf("round trip changed batch:\n%+v\n%+v", m, back)
	}
	if !bytes.Equal(b, encodeBatch(back)) {
		t.Fatal("re-encoding decoded batch changed the bytes")
	}
	empty, err := decodeBatch(encodeBatch(batchMsg{}))
	if err != nil || empty.Indices != nil || empty.Specs != nil {
		t.Fatalf("empty batch round trip: %+v, %v", empty, err)
	}
	if _, err := decodeBatch(b[:5]); !errors.Is(err, errWire) {
		t.Fatalf("truncated blob error = %v, want errWire", err)
	}
}

// nonEmpty hides the empty blob from the canonical harness: the engines
// decode it as the empty value (a rank with nothing to send sends nothing;
// pinned by the round-trip tests above), and it is the one accepted input
// that is not an encoder's output.
func nonEmpty[T any](decode func([]byte) (T, error)) func([]byte) (T, error) {
	return func(b []byte) (T, error) {
		if len(b) == 0 {
			var zero T
			return zero, errWire
		}
		return decode(b)
	}
}

// FuzzDecodeResults: arbitrary blobs must never panic the result decoder,
// and accepted blobs must re-encode to the identical bytes (the property
// the tracer's byte counts rely on).
func FuzzDecodeResults(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeResults(wireSampleResults()))
	f.Add(encodeResults(nil))
	wiretest.Canonical(f, nonEmpty(decodeResults), encodeResults, errWire)
}

// FuzzDecodeBatch: same contract for the batch decoder.
func FuzzDecodeBatch(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeBatch(wireSampleBatch()))
	f.Add(encodeBatch(batchMsg{}))
	wiretest.Canonical(f, nonEmpty(decodeBatch), encodeBatch, errWire)
}

// TestWireHostileCounts: every count field of the four engine formats is
// checked against the bytes behind it before anything is allocated for it.
// Offsets index the golden values' encodings.
func TestWireHostileCounts(t *testing.T) {
	st, newMembers, p0 := goldenAdmissionState()
	for _, c := range []struct {
		name   string
		valid  []byte
		counts map[int]uint32 // offset of each u32 count field → its value
		decode func([]byte) error
	}{
		{"results", encodeResults(wireSampleResults()), map[int]uint32{0: 2, 26: 2}, // queries, hits of query 0
			func(b []byte) error { _, err := decodeResults(b); return err }},
		{"batch", encodeBatch(wireSampleBatch()), map[int]uint32{0: 3, 16: 3, 38: 2}, // indices, spectra, peaks of spectrum 0
			func(b []byte) error { _, err := decodeBatch(b); return err }},
		{"admission", encodeAdmission(st, newMembers, p0), map[int]uint32{8: 3, 24: 3, 64: 3, 80: 3}, // old and new members, block and group owners
			func(b []byte) error { _, err := decodeAdmission(b, p0); return err }},
	} {
		t.Run(c.name, func(t *testing.T) {
			wiretest.HostileCounts(t, c.valid, c.counts, c.decode, errWire)
		})
	}
}
