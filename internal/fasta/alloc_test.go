//go:build !race

// The race detector's bookkeeping distorts allocation sizes, so this file
// is left out of -race builds.

package fasta

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
)

// TestParseBytesAllocatesRecordsOnce: parsing 10,000 one-residue records
// allocates one []Record of the record count, plus the residues and header
// strings (a few bytes each), never the chain of growing slices an append
// loop leaves behind (about five []Records' worth).
func TestParseBytesAllocatesRecordsOnce(t *testing.T) {
	const n = 10000
	img := bytes.Repeat([]byte(">a\nK\n"), n)
	recs, err := ParseBytes(img) // warm: the first call may allocate lazily initialized state
	if err != nil || len(recs) != n {
		t.Fatalf("parsed %d records, err %v", len(recs), err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	recs, _ = ParseBytes(img)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(recs)
	slice := uint64(n) * uint64(reflect.TypeOf(Record{}).Size())
	const perRecord = 16 // a one-residue sequence and a one-byte ID, with slack
	if got, limit := after.TotalAlloc-before.TotalAlloc, slice+n*perRecord; got > limit {
		t.Errorf("ParseBytes of %d records allocated %d bytes, above one []Record (%d) plus %d per record", n, got, slice, perRecord)
	}
}
