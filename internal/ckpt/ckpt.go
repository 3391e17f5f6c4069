// Package ckpt implements the checkpoint codec and stable store backing the
// checkpointed group sweep (core.RunElastic and the pepd backend): a query
// group's recovery state — the block-step cursor s, the candidate counter,
// and every query's top-τ hit list — serialized to a PCKP blob under the
// repository's codec rules (DESIGN.md, "Blob codec"). The same state always
// produces the same bytes, which is what lets the chaos tests prove a
// recovered run identical to the failure-free one.
package ckpt

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"pepscale/internal/topk"
	"pepscale/internal/wire"
)

// Codec framing. HeaderSize is a blob's fixed part, up to its query count.
const (
	magic      = 0x50434b50 // "PCKP"
	version    = 1
	HeaderSize = 4 + 4 + 4 + 4 + 8 + 4
)

// ErrCorrupt reports a blob that fails structural validation.
var ErrCorrupt = errors.New("ckpt: corrupt checkpoint")

// ErrShape reports a well-formed blob that does not fit its restore.
var ErrShape = errors.New("ckpt: checkpoint shape mismatch")

// Query is one query's checkpointed state: its current top-τ hits in
// best-first order (topk.List.AppendSorted order).
type Query struct {
	Hits []topk.Hit
}

// Group is the checkpoint of one query group's scan: the group survives a
// rank failure by re-offering Hits into fresh top-τ lists and resuming the
// block sweep at Cursor.
type Group struct {
	// Group is the group index (stable across restarts).
	Group int32
	// Cursor is the next block step s to scan; steps < Cursor are fully
	// reflected in the hit lists and candidate counter.
	Cursor int32
	// Candidates counts candidates scored by steps < Cursor.
	Candidates int64
	// Queries holds per-query state, indexed as in the group's query slice.
	Queries []Query
}

// AppendHeader appends the fixed part of a blob with queries hit lists,
// which follow it in topk.AppendHits form.
func AppendHeader(b []byte, group, cursor int32, candidates int64, queries int) []byte {
	b = wire.U32(b, magic)
	b = wire.U32(b, version)
	b = wire.U32(b, uint32(group))
	b = wire.U32(b, uint32(cursor))
	b = wire.U64(b, uint64(candidates))
	return wire.U32(b, uint32(queries))
}

// Encode serializes the group deterministically.
func (g *Group) Encode() []byte {
	n := HeaderSize
	for i := range g.Queries {
		n += topk.HitsWireSize(g.Queries[i].Hits)
	}
	buf := AppendHeader(make([]byte, 0, n), g.Group, g.Cursor, g.Candidates, len(g.Queries))
	for i := range g.Queries {
		buf = topk.AppendHits(buf, g.Queries[i].Hits)
	}
	return buf
}

// Decode parses a blob produced by Encode.
func Decode(b []byte) (*Group, error) {
	d := wire.NewReader(b, ErrCorrupt)
	g, err := readHeader(&d)
	if err != nil {
		return nil, err
	}
	// A query is at least its hit count.
	g.Queries = make([]Query, d.Count(4))
	for i := range g.Queries {
		g.Queries[i].Hits = topk.ReadHits(&d)
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return &g, nil
}

// Restore is Decode for a restart: it offers query i's hits straight to
// lists[i] and returns the cursor and candidate count. A blob for another
// group, a cursor outside [0, steps], a negative count or other than
// len(lists) queries fail with ErrShape before any hit is offered.
func Restore(blob []byte, group int32, steps int, lists []*topk.List) (int, int64, error) {
	d := wire.NewReader(blob, ErrCorrupt)
	g, err := readHeader(&d)
	if err == nil && (g.Group != group || g.Cursor < 0 || int(g.Cursor) > steps || g.Candidates < 0 || d.Count(4) != len(lists)) {
		err = ErrShape
	}
	if err != nil {
		return 0, 0, err
	}
	for _, l := range lists {
		topk.OfferHits(&d, l)
	}
	return int(g.Cursor), g.Candidates, d.Finish()
}

// readHeader reads a blob's fixed part up to its query count.
func readHeader(d *wire.Reader) (Group, error) {
	if m := d.U32(); m != magic {
		return Group{}, fmt.Errorf("%w: bad magic %#x", ErrCorrupt, m)
	}
	if v := d.U32(); v != version {
		return Group{}, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	return Group{Group: int32(d.U32()), Cursor: int32(d.U32()), Candidates: int64(d.U64())}, nil
}

// Store is the stable checkpoint storage a restarted machine reads from —
// host-side state that survives rank failures, as a parallel filesystem
// would. Blobs are keyed by group; a Put replaces the group's previous
// checkpoint, copying into its storage (or a deleted group's), and a Delete
// drops it. Safe for concurrent use by rank goroutines.
type Store struct {
	mu    sync.Mutex
	blobs map[int32][]byte
	// spare is the last deleted blob's storage, for the next new group.
	spare  []byte
	writes int64
	bytes  int64
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{blobs: make(map[int32][]byte)}
}

// Put durably records the group's checkpoint (copying blob).
func (s *Store) Put(group int32, blob []byte) {
	s.mu.Lock()
	dst, ok := s.blobs[group]
	if !ok {
		dst, s.spare = s.spare, nil
	}
	s.blobs[group] = append(dst[:0], blob...)
	s.writes++
	s.bytes += int64(len(blob))
	s.mu.Unlock()
}

// Get returns a copy of the group's latest checkpoint, if any, taken under
// the lock: a Put rewrites the stored bytes in place.
func (s *Store) Get(group int32) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	blob, ok := s.blobs[group]
	return bytes.Clone(blob), ok
}

// Delete drops the group's checkpoint, if any; a later Get finds none.
func (s *Store) Delete(group int32) {
	s.mu.Lock()
	if blob, ok := s.blobs[group]; ok {
		delete(s.blobs, group)
		s.spare = blob
	}
	s.mu.Unlock()
}

// Writes returns the number of Put calls.
func (s *Store) Writes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writes
}

// Bytes returns the cumulative bytes written.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Len returns the number of groups with a checkpoint.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.blobs)
}
