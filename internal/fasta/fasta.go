// Package fasta reads and writes protein sequence databases in FASTA format
// and implements the block-partitioned parallel loading step of the paper
// (steps A1/B1): an input byte stream is divided into p nearly equal byte
// ranges whose boundaries are repaired to record boundaries, so that rank i
// parses roughly the i-th N/p-byte chunk and every sequence lands in exactly
// one rank.
package fasta

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Record is one FASTA entry.
type Record struct {
	// ID is the first whitespace-delimited token of the header line
	// (without the leading '>').
	ID string
	// Desc is the remainder of the header line, if any.
	Desc string
	// Seq holds the residues, upper-cased, with whitespace removed.
	Seq []byte
}

// ErrMalformed is wrapped by parse errors.
var ErrMalformed = errors.New("fasta: malformed input")

// MaxIDLen is the longest record ID the parser accepts: Algorithm B's
// sorted sequence image stores an ID's length in 16 bits.
const MaxIDLen = 1<<16 - 1

// IDTooLongError refuses a record, named by the offset of its '>' and the
// first bytes of its ID, whose ID is longer than MaxIDLen. It wraps
// ErrMalformed.
type IDTooLongError struct {
	At, Len int
	Prefix  string
}

func (e *IDTooLongError) Error() string {
	return fmt.Sprintf("%v: record at byte %d: ID %q… is %d bytes, above %d", ErrMalformed, e.At, e.Prefix, e.Len, MaxIDLen)
}

func (e *IDTooLongError) Unwrap() error { return ErrMalformed }

// Parse reads all records from r.
func Parse(r io.Reader) ([]Record, error) {
	data, err := io.ReadAll(bufio.NewReader(r))
	if err != nil {
		return nil, fmt.Errorf("fasta: read: %w", err)
	}
	return ParseBytes(data)
}

// ParseBytes parses an in-memory FASTA image.
func ParseBytes(data []byte) ([]Record, error) {
	return parseRange(data, 0, len(data))
}

// residueTab maps a sequence byte to the residue it stands for: letters
// upper-cased, 0 for a byte the body may hold but the sequence drops
// (whitespace, and '*' for a stop codon), invalidByte for anything else.
var residueTab = func() (t [256]byte) {
	for i := range t {
		t[i] = invalidByte
	}
	for b := byte('A'); b <= 'Z'; b++ {
		t[b], t[b-'A'+'a'] = b, b
	}
	for _, b := range []byte("*\n\r \t") {
		t[b] = 0
	}
	return t
}()

const invalidByte = 0xFF

// parseRange parses records whose header lines begin in data[start:end).
// A record's sequence may extend to the next header even past end; callers
// using Ranges never produce that case because boundaries are repaired.
func parseRange(data []byte, start, end int) ([]Record, error) {
	i := start
	// Skip leading blank lines.
	for i < end && (data[i] == '\n' || data[i] == '\r') {
		i++
	}
	if i < end && data[i] != '>' {
		return nil, fmt.Errorf("%w: expected '>' at byte %d, found %q", ErrMalformed, i, data[i])
	}
	// Every record opens with a '>' at i or after a newline, and a body
	// ends at the next such '>': count them to allocate recs once.
	var recs []Record
	if i < end {
		recs = make([]Record, 0, 1+bytes.Count(data[i+1:end], []byte("\n>")))
	}
	for i < end {
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
		header = strings.TrimRight(header, "\r")
		id, desc := splitHeader(header)
		if id == "" {
			return nil, fmt.Errorf("%w: empty header at byte %d", ErrMalformed, i)
		}
		if len(id) > MaxIDLen {
			return nil, &IDTooLongError{At: i, Len: len(id), Prefix: id[:32]}
		}
		// The sequence body runs until the next header line or EOF. The
		// byte before bodyStart is a newline, so a header may open it.
		bodyEnd := len(data)
		if bodyStart < len(data) && data[bodyStart] == '>' {
			bodyEnd = bodyStart
		} else if at := bytes.Index(data[bodyStart:], []byte("\n>")); at >= 0 {
			bodyEnd = bodyStart + at + 1
		}
		body := data[bodyStart:bodyEnd]
		seq := make([]byte, len(body))
		n := 0
		for _, b := range body {
			r := residueTab[b]
			if r == invalidByte {
				return nil, fmt.Errorf("%w: invalid sequence byte %q in record %s", ErrMalformed, b, id)
			}
			seq[n] = r
			if r != 0 {
				n++
			}
		}
		recs = append(recs, Record{ID: id, Desc: desc, Seq: seq[:n]})
		i = bodyEnd
	}
	return recs, nil
}

func splitHeader(h string) (id, desc string) {
	h = strings.TrimSpace(h)
	if sp := strings.IndexAny(h, " \t"); sp >= 0 {
		return h[:sp], strings.TrimSpace(h[sp+1:])
	}
	return h, ""
}

// Write emits records to w, wrapping sequence lines at width columns
// (width <= 0 means a single line per sequence).
func Write(w io.Writer, recs []Record, width int) error {
	bw := bufio.NewWriter(w)
	for _, rec := range recs {
		if _, err := bw.WriteString(">" + rec.ID); err != nil {
			return err
		}
		if rec.Desc != "" {
			if _, err := bw.WriteString(" " + rec.Desc); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
		seq := rec.Seq
		if width <= 0 {
			width = len(seq)
		}
		for len(seq) > 0 {
			n := width
			if n > len(seq) {
				n = len(seq)
			}
			if _, err := bw.Write(seq[:n]); err != nil {
				return err
			}
			if err := bw.WriteByte('\n'); err != nil {
				return err
			}
			seq = seq[n:]
		}
	}
	return bw.Flush()
}

// Range is a half-open byte interval [Start, End) of a FASTA image.
type Range struct{ Start, End int }

// Len returns the range length in bytes.
func (r Range) Len() int { return r.End - r.Start }

// Ranges splits a FASTA image into p record-aligned ranges of roughly equal
// byte length (the paper's balanced database partitioning: rank i receives
// "roughly the i-th N/p byte chunk of the file" with "care ... taken to
// ensure sequences at the boundaries are fully read"). Every range starts at
// a record header; ranges may be empty when p exceeds the record count.
func Ranges(data []byte, p int) []Range {
	if p < 1 {
		p = 1
	}
	cuts := make([]int, p+1)
	cuts[p] = len(data)
	for i := 1; i < p; i++ {
		cuts[i] = nextHeader(data, len(data)*i/p)
	}
	// A boundary repair can push a cut past the following one; restore
	// monotonicity so every record still lands in exactly one range.
	for i := 1; i < p; i++ {
		if cuts[i] < cuts[i-1] {
			cuts[i] = cuts[i-1]
		}
	}
	out := make([]Range, p)
	for i := 0; i < p; i++ {
		out[i] = Range{Start: cuts[i], End: cuts[i+1]}
	}
	return out
}

// nextHeader returns the offset of the first record header at or after pos,
// or len(data) if none exists.
func nextHeader(data []byte, pos int) int {
	for i := pos; i < len(data); i++ {
		if data[i] == '>' && (i == 0 || data[i-1] == '\n') {
			return i
		}
	}
	return len(data)
}

// ParseRange parses the records of one partition produced by Ranges.
func ParseRange(data []byte, r Range) ([]Record, error) {
	if r.Start >= r.End {
		return nil, nil
	}
	return parseRange(data, r.Start, r.End)
}

// Marshal renders records into a compact single-line-per-sequence FASTA
// image, the on-wire representation used when database blocks are
// transported between ranks.
func Marshal(recs []Record) []byte {
	var buf bytes.Buffer
	for _, rec := range recs {
		buf.WriteByte('>')
		buf.WriteString(rec.ID)
		if rec.Desc != "" {
			buf.WriteByte(' ')
			buf.WriteString(rec.Desc)
		}
		buf.WriteByte('\n')
		buf.Write(rec.Seq)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// TotalResidues returns the summed sequence length of recs (the paper's N).
func TotalResidues(recs []Record) int {
	var n int
	for _, r := range recs {
		n += len(r.Seq)
	}
	return n
}
