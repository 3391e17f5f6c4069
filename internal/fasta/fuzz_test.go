package fasta_test

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"pepscale/internal/fasta"
	"pepscale/internal/synth"
)

// FuzzParseFASTA holds the parser and the boundary-repair splitter to one
// another on arbitrary bytes: neither panics, every rejection is
// ErrMalformed, and for p in {1, 3, 8} the records of Ranges' partitions,
// parsed one by one and concatenated, are exactly the records of the whole
// image — a malformed image is rejected by some partition, never silently
// shortened.
func FuzzParseFASTA(f *testing.F) {
	db := synth.GenerateDB(synth.SizedSpec(12))
	f.Add(fasta.Marshal(db))
	var wrapped bytes.Buffer
	if err := fasta.Write(&wrapped, db[:4], 7); err != nil {
		f.Fatal(err)
	}
	f.Add(wrapped.Bytes())
	for _, s := range []string{
		"",
		">a\nACDE",                            // no trailing newline
		">a desc\r\nAC\r\nDE\r\n>b\r\nKK\r\n", // CRLF
		">a\n>b\nAC\n",                        // empty record
		">only",                               // header only
		">a\nAC>b\nDE\n",                      // '>' inside a sequence line
		"\n\n>a\nac*\n",                       // leading blank lines, lower case, stop codon
		"ACDE\n>a\nAC\n",                      // residues before the first header
		">\nAC\n",                             // empty identifier
		">a\nA C\tD\n\n>b x y\nK1\n",          // blanks in a sequence, then an invalid byte
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		whole, err := fasta.ParseBytes(data)
		if err != nil && !errors.Is(err, fasta.ErrMalformed) {
			t.Fatalf("ParseBytes error %v is not ErrMalformed", err)
		}
		for _, p := range []int{1, 3, 8} {
			var parts []fasta.Record
			var perr error
			for _, r := range fasta.Ranges(data, p) {
				recs, e := fasta.ParseRange(data, r)
				if e != nil {
					if !errors.Is(e, fasta.ErrMalformed) {
						t.Fatalf("p=%d: ParseRange error %v is not ErrMalformed", p, e)
					}
					perr = e
					break
				}
				parts = append(parts, recs...)
			}
			if (err == nil) != (perr == nil) {
				t.Fatalf("p=%d: whole image: %v, partitions: %v", p, err, perr)
			}
			if err == nil && !reflect.DeepEqual(whole, parts) {
				t.Fatalf("p=%d: partitions hold %d records, the whole image %d:\n%+v\n%+v", p, len(parts), len(whole), parts, whole)
			}
		}
	})
}
