package serve

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"pepscale/internal/spectrum"
	"pepscale/internal/topk"
	"pepscale/internal/wire/wiretest"
)

// fuzzSeedSubmit is a fully-populated submission frame for round-trip and
// corpus seeding.
func fuzzSeedSubmit() *SubmitFrame {
	return &SubmitFrame{
		Tenant: "acme",
		Seq:    7,
		AtSec:  0.125,
		Spec: &spectrum.Spectrum{
			ID:          "scan=42",
			PrecursorMZ: 900.45,
			Charge:      2,
			Peaks:       []spectrum.Peak{{MZ: 101.07, Intensity: 1200}, {MZ: 175.12, Intensity: 800}},
		},
	}
}

// fuzzSeedResult is the matching result frame.
func fuzzSeedResult() *ResultFrame {
	return &ResultFrame{
		Tenant:    "acme",
		Seq:       7,
		Batch:     3,
		QueryID:   "scan=42",
		ArriveSec: 0.125,
		DoneSec:   0.375,
		Hits: []topk.Hit{
			{Peptide: "PEPTIDEK", Protein: 2, ProteinID: "sp|P1", Mass: 904.47, Score: 42.5},
			{Peptide: "MK", Protein: 0, ProteinID: "sp|P0", Mass: 277.12, Score: 1.25},
		},
	}
}

// TestWireRoundTrip: Encode∘Decode is the identity on both frame types,
// including empty-field edge cases.
func TestWireRoundTrip(t *testing.T) {
	subs := []*SubmitFrame{
		fuzzSeedSubmit(),
		{Tenant: "", Seq: 0, AtSec: 0, Spec: &spectrum.Spectrum{}},
	}
	for i, f := range subs {
		got, err := DecodeSubmit(f.Encode())
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if !reflect.DeepEqual(f, got) {
			t.Errorf("submit %d round trip: got %+v, want %+v", i, got, f)
		}
	}
	ress := []*ResultFrame{
		fuzzSeedResult(),
		{Tenant: "", QueryID: "", Hits: nil},
	}
	for i, f := range ress {
		got, err := DecodeResult(f.Encode())
		if err != nil {
			t.Fatalf("result %d: %v", i, err)
		}
		if !reflect.DeepEqual(f, got) {
			t.Errorf("result %d round trip: got %+v, want %+v", i, got, f)
		}
	}
}

// TestWireRejects pins the decoder's canonical-only contract: bad magic,
// bad version, truncation, trailing bytes, and count overruns all fail with
// errFrame, and the count overrun fails before allocating.
func TestWireRejects(t *testing.T) {
	valid := fuzzSeedSubmit().Encode()
	cases := map[string][]byte{
		"empty":     {},
		"badmagic":  append([]byte{0xff}, valid[1:]...),
		"badver":    append(append([]byte{}, valid[:4]...), append([]byte{9}, valid[5:]...)...),
		"truncated": valid[:len(valid)-3],
		"trailing":  append(append([]byte{}, valid...), 0),
	}
	// Peak-count overrun: a canonical header claiming 2^31 peaks with no
	// payload behind it.
	over := append([]byte{}, valid...)
	over = over[:len(over)-2*16] // strip the two peaks
	over[len(over)-4] = 0xff     // count field now absurd
	over[len(over)-3] = 0xff
	over[len(over)-2] = 0xff
	over[len(over)-1] = 0x7f
	cases["overrun"] = over
	for name, b := range cases {
		if _, err := DecodeSubmit(b); !errors.Is(err, errFrame) {
			t.Errorf("submit %s: error %v is not errFrame", name, err)
		}
	}
	rvalid := fuzzSeedResult().Encode()
	if _, err := DecodeResult(rvalid[:len(rvalid)-1]); !errors.Is(err, errFrame) {
		t.Error("truncated result frame accepted")
	}
	if _, err := DecodeResult(valid); !errors.Is(err, errFrame) {
		t.Error("submit frame accepted by the result decoder")
	}
}

// TestWireHostileCounts: a fictitious peak or hit count is rejected before
// anything is allocated for it.
func TestWireHostileCounts(t *testing.T) {
	wiretest.HostileCounts(t, fuzzSeedSubmit().Encode(), map[int]uint32{55: 2}, // peaks
		func(b []byte) error { _, err := DecodeSubmit(b); return err }, errFrame)
	wiretest.HostileCounts(t, fuzzSeedResult().Encode(), map[int]uint32{55: 2}, // hits
		func(b []byte) error { _, err := DecodeResult(b); return err }, errFrame)
}

// submitSeeds are FuzzDecodeSubmit's in-code seeds: the valid frame, a
// truncation, a bad magic, and the canonical frame that used to wedge pepd
// (AtSec = NaN: admitted, then never reached by the event loop).
func submitSeeds() [][]byte {
	valid := fuzzSeedSubmit().Encode()
	mutated := append([]byte(nil), valid...)
	mutated[0] ^= 0xff
	nanAt := fuzzSeedSubmit()
	nanAt.AtSec = math.NaN()
	return [][]byte{{}, valid, valid[:len(valid)-3], mutated, nanAt.Encode()}
}

// FuzzDecodeSubmit: the submit decoder never panics, rejects non-canonical
// blobs with errFrame, and every accepted blob re-encodes to its exact
// input bytes.
func FuzzDecodeSubmit(f *testing.F) {
	for _, b := range submitSeeds() {
		f.Add(b)
	}
	wiretest.Canonical(f, DecodeSubmit, (*SubmitFrame).Encode, errFrame)
}

// TestSubmitCorpusCannotWedge: whatever a corpus entry of FuzzDecodeSubmit
// holds, a fresh server given it as a frame answers and still closes (a hang
// is the test binary's timeout).
func TestSubmitCorpusCannotWedge(t *testing.T) {
	frames := submitSeeds()
	files, err := filepath.Glob("testdata/fuzz/FuzzDecodeSubmit/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed corpus: %v", err)
	}
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		// "go test fuzz v1\n[]byte(<quoted>)\n"
		_, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		b, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		frames = append(frames, []byte(b))
	}
	db, _ := testWorkload(t, 40, 1)
	for i, frame := range frames {
		s, err := New(steadyCfg(db))
		if err != nil {
			t.Fatal(err)
		}
		_ = s.SubmitFrame(frame) // admitted or refused, either is an answer
		if err := s.Close(); err != nil {
			t.Errorf("frame %d: Close: %v", i, err)
		}
	}
}

// FuzzDecodeResult is the result-frame counterpart of FuzzDecodeSubmit.
func FuzzDecodeResult(f *testing.F) {
	valid := fuzzSeedResult().Encode()
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	mutated := append([]byte(nil), valid...)
	mutated[0] ^= 0xff
	f.Add(mutated)
	wiretest.Canonical(f, DecodeResult, (*ResultFrame).Encode, errFrame)
}
