package spectrum

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
)

func TestMGFRoundTrip(t *testing.T) {
	specs := []*Spectrum{
		{ID: "scan=1", PrecursorMZ: 523.7761, Charge: 2, Peaks: []Peak{{147.1128, 20.5}, {263.0875, 99}}},
		{ID: "scan=2 with spaces", PrecursorMZ: 801.4, Charge: 3, Peaks: []Peak{{100.5, 1}}},
	}
	var buf bytes.Buffer
	if err := WriteMGF(&buf, specs); err != nil {
		t.Fatal(err)
	}
	back, err := ParseMGF(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("got %d spectra", len(back))
	}
	for i := range specs {
		if back[i].ID != specs[i].ID || back[i].Charge != specs[i].Charge {
			t.Errorf("spectrum %d header mismatch: %+v", i, back[i])
		}
		if math.Abs(back[i].PrecursorMZ-specs[i].PrecursorMZ) > 1e-4 {
			t.Errorf("spectrum %d pepmass: %v", i, back[i].PrecursorMZ)
		}
		if len(back[i].Peaks) != len(specs[i].Peaks) {
			t.Errorf("spectrum %d peaks: %d", i, len(back[i].Peaks))
		}
	}
}

func TestParseMGFTolerant(t *testing.T) {
	in := `
# a comment
BEGIN IONS
TITLE=q1
RTINSECONDS=123.4
PEPMASS=500.25 12345.6
CHARGE=2+
100.1 5
200.2 10
END IONS
`
	specs, err := ParseMGF(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 || len(specs[0].Peaks) != 2 || specs[0].PrecursorMZ != 500.25 {
		t.Fatalf("parse: %+v", specs)
	}
}

func TestParseMGFErrors(t *testing.T) {
	cases := []string{
		"BEGIN IONS\nTITLE=a\nBEGIN IONS\nEND IONS\n", // nested
		"END IONS\n",                          // end without begin
		"100.1 5\n",                           // peak outside block
		"BEGIN IONS\nPEPMASS=abc\nEND IONS\n", // bad pepmass
		"BEGIN IONS\nCHARGE=0+\nEND IONS\n",   // bad charge
		"BEGIN IONS\n100.1\nEND IONS\n",       // short peak line
		"BEGIN IONS\nTITLE=q\n100.1 5\n",      // unterminated
		"BEGIN IONS\nxyz zz\nEND IONS\n",      // bad peak floats
		"BEGIN IONS\nPEPMASS=NaN\nEND IONS\n", // non-finite pepmass
		"BEGIN IONS\nPEPMASS=+Inf\nEND IONS\n",
		"BEGIN IONS\nPEPMASS=-inf\nEND IONS\n",
		"BEGIN IONS\nNaN 5\nEND IONS\n", // non-finite peak
		"BEGIN IONS\n100.1 Inf\nEND IONS\n",
	}
	for _, in := range cases {
		if _, err := ParseMGF(strings.NewReader(in)); !errors.Is(err, ErrMGF) {
			t.Errorf("ParseMGF(%q) error = %v, want ErrMGF", in, err)
		}
	}
}

func TestParseMGFEmpty(t *testing.T) {
	specs, err := ParseMGF(strings.NewReader(""))
	if err != nil || len(specs) != 0 {
		t.Errorf("empty: %v %v", specs, err)
	}
}
