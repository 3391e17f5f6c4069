package spectrum_test

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"pepscale/internal/spectrum"
	"pepscale/internal/synth"
)

func checkedSpectra(specs []*spectrum.Spectrum) bool {
	for _, s := range specs {
		if s.Check() != nil {
			return false
		}
	}
	return true
}

// FuzzParseMGF: the parser never panics and rejects only with ErrMGF; what it
// accepts passes Spectrum.Check and survives WriteMGF → ParseMGF — the
// same spectra, titles, charges and peak counts, and, once the values have
// been through the writer's fixed precision, the same spectra exactly on
// every further trip.
func FuzzParseMGF(f *testing.F) {
	db := synth.GenerateDB(synth.SizedSpec(20))
	truths, err := synth.GenerateSpectra(db, synth.DefaultSpectraSpec(3))
	if err != nil {
		f.Fatal(err)
	}
	var seed bytes.Buffer
	if err := spectrum.WriteMGF(&seed, synth.Spectra(truths)); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	for _, s := range []string{
		"",
		"BEGIN IONS\nEND IONS", // no trailing newline, all defaults
		"BEGIN IONS\r\nTITLE=a b\r\nPEPMASS=500.25 1e4\r\nCHARGE=2+\r\n100 1\r\nEND IONS\r\n", // CRLF, PEPMASS with intensity
		"# comment\n\nBEGIN IONS\nSCANS=7\n200.00004 2\n200.00001 3\nEND IONS\n",              // unknown header, peaks that tie after rounding
		"BEGIN IONS\nBEGIN IONS\n",                   // nested
		"END IONS\n",                                 // END without BEGIN
		"BEGIN IONS\nCHARGE=0\nEND IONS\n",           // bad charge
		"BEGIN IONS\n100\nEND IONS\n",                // peak without intensity
		"BEGIN IONS\nPEPMASS=NaN\nInf 1\nEND IONS\n", // non-finite numbers
		"BEGIN IONS\n100 NaN\nEND IONS\n",            // non-finite intensity
		"BEGIN IONS\nTITLE=x",                        // unterminated
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		first, err := spectrum.ParseMGF(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, spectrum.ErrMGF) {
				t.Fatalf("ParseMGF error %v is not ErrMGF", err)
			}
			return
		}
		if !checkedSpectra(first) {
			t.Fatalf("ParseMGF accepted a spectrum Check refuses:\n%s", data)
		}
		trip := func(specs []*spectrum.Spectrum) []*spectrum.Spectrum {
			var buf bytes.Buffer
			if err := spectrum.WriteMGF(&buf, specs); err != nil {
				t.Fatal(err)
			}
			back, err := spectrum.ParseMGF(&buf)
			if err != nil {
				t.Fatalf("written MGF does not parse: %v\n%s", err, buf.Bytes())
			}
			return back
		}
		second := trip(first)
		if len(second) != len(first) {
			t.Fatalf("%d spectra written, %d read back", len(first), len(second))
		}
		for i, s := range first {
			if b := second[i]; b.ID != s.ID || b.Charge != s.Charge || len(b.Peaks) != len(s.Peaks) {
				t.Fatalf("spectrum %d changed on the first trip:\n%+v\n%+v", i, s, b)
			}
		}
		if third := trip(second); !reflect.DeepEqual(second, third) {
			t.Fatalf("a written spectrum changed on its next trip:\n%+v\n%+v", second, third)
		}
	})
}
