package fasta

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseBasic(t *testing.T) {
	in := ">sp|P1|FIRST first protein\nMKVL\nAGH\n>P2\nacdef\n"
	recs, err := ParseBytes([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[0].ID != "sp|P1|FIRST" || recs[0].Desc != "first protein" {
		t.Errorf("header parse: %+v", recs[0])
	}
	if string(recs[0].Seq) != "MKVLAGH" {
		t.Errorf("seq join/wrap: %q", recs[0].Seq)
	}
	if string(recs[1].Seq) != "ACDEF" {
		t.Errorf("lower-case normalization: %q", recs[1].Seq)
	}
}

func TestParseTolerance(t *testing.T) {
	// CRLF, blank leading lines, stop codon, no trailing newline.
	in := "\r\n>A desc here\r\nMK*\r\n>B\nML"
	recs, err := ParseBytes([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || string(recs[0].Seq) != "MK" || string(recs[1].Seq) != "ML" {
		t.Fatalf("parse: %+v", recs)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"MKVL\n",          // no header
		">\nMK\n",         // empty header
		">A\nMK1L\n",      // invalid sequence byte
		"garbage>A\nMK\n", // leading junk
	}
	for _, in := range cases {
		if _, err := ParseBytes([]byte(in)); !errors.Is(err, ErrMalformed) {
			t.Errorf("ParseBytes(%q) error = %v, want ErrMalformed", in, err)
		}
	}
}

func TestParseEmpty(t *testing.T) {
	recs, err := ParseBytes(nil)
	if err != nil || len(recs) != 0 {
		t.Errorf("empty input: %v, %v", recs, err)
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	recs := []Record{
		{ID: "P1", Desc: "with description", Seq: []byte("MKVLAGHWWQR")},
		{ID: "P2", Seq: []byte("ACDEFGHIKLMNPQRSTVWY")},
		{ID: "P3", Seq: []byte("M")},
	}
	for _, width := range []int{0, 3, 10, 100} {
		var buf bytes.Buffer
		if err := Write(&buf, recs, width); err != nil {
			t.Fatal(err)
		}
		back, err := Parse(&buf)
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		if !reflect.DeepEqual(recs, back) {
			t.Errorf("width %d: round trip mismatch\n%+v\n%+v", width, recs, back)
		}
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	recs := []Record{{ID: "A", Desc: "d", Seq: []byte("MKR")}, {ID: "B", Seq: []byte("GG")}}
	back, err := ParseBytes(Marshal(recs))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs, back) {
		t.Errorf("marshal round trip: %+v vs %+v", recs, back)
	}
}

// genRecords builds a deterministic pseudo-random record set from a seed.
func genRecords(seed int64, n int) []Record {
	recs := make([]Record, n)
	state := uint64(seed)*2654435761 + 1
	next := func(mod int) int {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return int(state % uint64(mod))
	}
	const alphabet = "ACDEFGHIKLMNPQRSTVWY"
	for i := range recs {
		l := next(40) + 1
		seq := make([]byte, l)
		for j := range seq {
			seq[j] = alphabet[next(20)]
		}
		recs[i] = Record{ID: fmt.Sprintf("R%d", i), Seq: seq}
	}
	return recs
}

// TestRangesReconstruction is the paper's boundary-repair invariant: for
// any partition count, parsing the p ranges independently must reproduce
// exactly the full record set, each record exactly once, in order.
func TestRangesReconstruction(t *testing.T) {
	f := func(seed int64, n8, p8 uint8) bool {
		n := int(n8%50) + 1
		p := int(p8%12) + 1
		recs := genRecords(seed, n)
		data := Marshal(recs)
		ranges := Ranges(data, p)
		if len(ranges) != p {
			return false
		}
		var joined []Record
		for _, rg := range ranges {
			part, err := ParseRange(data, rg)
			if err != nil {
				t.Logf("ParseRange: %v", err)
				return false
			}
			joined = append(joined, part...)
		}
		return reflect.DeepEqual(recs, joined)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRangesProperties(t *testing.T) {
	recs := genRecords(42, 100)
	data := Marshal(recs)
	for _, p := range []int{1, 2, 3, 7, 50, 200} {
		ranges := Ranges(data, p)
		// Contiguity and coverage.
		if ranges[0].Start != 0 || ranges[len(ranges)-1].End != len(data) {
			t.Errorf("p=%d: ranges do not cover data", p)
		}
		for i := 1; i < len(ranges); i++ {
			if ranges[i].Start != ranges[i-1].End {
				t.Errorf("p=%d: gap between range %d and %d", p, i-1, i)
			}
			if ranges[i].Start < len(data) && ranges[i].Len() > 0 && data[ranges[i].Start] != '>' {
				t.Errorf("p=%d: range %d does not start at a record header", p, i)
			}
		}
	}
}

func TestRangesBalance(t *testing.T) {
	// With many similarly sized records, byte balance should be rough but
	// real: no range more than 3x the ideal share.
	recs := genRecords(7, 400)
	data := Marshal(recs)
	p := 8
	ideal := len(data) / p
	for i, rg := range Ranges(data, p) {
		if rg.Len() > 3*ideal {
			t.Errorf("range %d has %d bytes; ideal %d", i, rg.Len(), ideal)
		}
	}
}

func TestRangesMoreRanksThanRecords(t *testing.T) {
	recs := genRecords(3, 2)
	data := Marshal(recs)
	ranges := Ranges(data, 8)
	var total int
	for _, rg := range ranges {
		part, err := ParseRange(data, rg)
		if err != nil {
			t.Fatal(err)
		}
		total += len(part)
	}
	if total != 2 {
		t.Errorf("records parsed across empty-heavy partition = %d, want 2", total)
	}
}

func TestTotalResidues(t *testing.T) {
	recs := []Record{{Seq: []byte("AAA")}, {Seq: []byte("GGGG")}}
	if TotalResidues(recs) != 7 {
		t.Error("TotalResidues wrong")
	}
}

func TestHeaderWithTabs(t *testing.T) {
	recs, err := ParseBytes([]byte(">ID1\tsome desc\nMK\n"))
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].ID != "ID1" || !strings.Contains(recs[0].Desc, "some desc") {
		t.Errorf("tab header: %+v", recs[0])
	}
}

// TestParseRefusesLongID: an ID of MaxIDLen bytes parses; one byte more is
// refused with an IDTooLongError naming the record's offset and prefix.
func TestParseRefusesLongID(t *testing.T) {
	head := ">A\nMK\n"
	for _, n := range []int{MaxIDLen, MaxIDLen + 1, 70000} {
		in := head + ">" + strings.Repeat("Q", n) + " desc\nMKVL\n"
		recs, err := ParseBytes([]byte(in))
		if n <= MaxIDLen {
			if err != nil || len(recs) != 2 || len(recs[1].ID) != n {
				t.Errorf("ID of %d bytes: %d records, %v", n, len(recs), err)
			}
			continue
		}
		var long *IDTooLongError
		if !errors.As(err, &long) || !errors.Is(err, ErrMalformed) || long.At != len(head) || long.Len != n {
			t.Fatalf("ID of %d bytes: error %v, want an IDTooLongError at byte %d", n, err, len(head))
		}
		if msg := err.Error(); !strings.Contains(msg, `"`+strings.Repeat("Q", 32)+`"…`) || !strings.Contains(msg, fmt.Sprint(n)) {
			t.Errorf("error %q does not name the record", msg)
		}
	}
}
