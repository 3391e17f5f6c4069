package fasta_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pepscale/internal/fasta"
	"pepscale/internal/synth"
)

// referenceParse is the byte-at-a-time parser the table-driven one replaced,
// kept as its definition: the records whose header lines begin in
// data[start:end), each body running to the next header line or EOF.
func referenceParse(data []byte, start, end int) ([]fasta.Record, error) {
	var recs []fasta.Record
	i := start
	for i < end && (data[i] == '\n' || data[i] == '\r') {
		i++
	}
	if i < end && data[i] != '>' {
		return nil, fmt.Errorf("%w: expected '>' at byte %d, found %q", fasta.ErrMalformed, i, data[i])
	}
	for i < end {
		if data[i] != '>' {
			return nil, fmt.Errorf("%w: expected '>' at byte %d", fasta.ErrMalformed, i)
		}
		nl := bytes.IndexByte(data[i:], '\n')
		var header string
		var bodyStart int
		if nl < 0 {
			header = string(data[i+1:])
			bodyStart = len(data)
		} else {
			header = string(data[i+1 : i+nl])
			bodyStart = i + nl + 1
		}
		header = strings.TrimSpace(strings.TrimRight(header, "\r"))
		id, desc := header, ""
		if sp := strings.IndexAny(header, " \t"); sp >= 0 {
			id, desc = header[:sp], strings.TrimSpace(header[sp+1:])
		}
		if id == "" {
			return nil, fmt.Errorf("%w: empty header at byte %d", fasta.ErrMalformed, i)
		}
		if len(id) > fasta.MaxIDLen {
			return nil, &fasta.IDTooLongError{At: i, Len: len(id), Prefix: id[:32]}
		}
		bodyEnd := bodyStart
		for bodyEnd < len(data) {
			if data[bodyEnd] == '>' && (bodyEnd == 0 || data[bodyEnd-1] == '\n') {
				break
			}
			bodyEnd++
		}
		seq := make([]byte, 0, bodyEnd-bodyStart)
		for _, b := range data[bodyStart:bodyEnd] {
			switch {
			case b >= 'a' && b <= 'z':
				seq = append(seq, b-'a'+'A')
			case b >= 'A' && b <= 'Z', b == '*':
				if b != '*' {
					seq = append(seq, b)
				}
			case b == '\n', b == '\r', b == ' ', b == '\t':
			default:
				return nil, fmt.Errorf("%w: invalid sequence byte %q in record %s", fasta.ErrMalformed, b, id)
			}
		}
		recs = append(recs, fasta.Record{ID: id, Desc: desc, Seq: seq})
		i = bodyEnd
	}
	return recs, nil
}

// sameParse fails t unless two parses agree: equal records, or equal error
// text.
func sameParse(t *testing.T, what string, got []fasta.Record, gotErr error, want []fasta.Record, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%s: error %v, reference %v", what, gotErr, wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: records\n%+v\nreference\n%+v", what, got, want)
	}
}

// FuzzParseFASTA holds the parser to the reference parser and the
// boundary-repair splitter to the parser on arbitrary bytes: the whole image
// and every partition parse to the reference's records or its error text,
// nothing panics, every rejection is ErrMalformed, and for p in {1, 3, 8}
// the records of Ranges' partitions, parsed one by one and concatenated, are
// exactly the records of the whole image — a malformed image is rejected by
// some partition, never silently shortened.
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
		ref, refErr := referenceParse(data, 0, len(data))
		sameParse(t, "ParseBytes", whole, err, ref, refErr)
		if err != nil && !errors.Is(err, fasta.ErrMalformed) {
			t.Fatalf("ParseBytes error %v is not ErrMalformed", err)
		}
		for _, p := range []int{1, 3, 8} {
			var parts []fasta.Record
			var perr error
			for _, r := range fasta.Ranges(data, p) {
				recs, e := fasta.ParseRange(data, r)
				if r.Start < r.End {
					ref, refErr := referenceParse(data, r.Start, r.End)
					sameParse(t, fmt.Sprintf("p=%d: ParseRange(%v)", p, r), recs, e, ref, refErr)
				}
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

// BenchmarkParseBytes parses the FASTA image of a 12,000-sequence database
// of the benchmark's shape (microbial lengths with a third of the spread),
// one line per sequence as fasta.Marshal writes it.
func BenchmarkParseBytes(b *testing.B) {
	spec := synth.SizedSpec(12000)
	spec.LengthStdDev = 80
	spec.Seed = 7
	img := fasta.Marshal(synth.GenerateDB(spec))
	b.SetBytes(int64(len(img)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fasta.ParseBytes(img); err != nil {
			b.Fatal(err)
		}
	}
}
