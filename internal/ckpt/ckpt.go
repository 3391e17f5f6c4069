// Package ckpt implements the checkpoint codec and stable store backing the
// resilient transport loop (core.RunResilient): a query group's recovery
// state — the block-step cursor s, the candidate counter, and every query's
// top-τ hit list — serialized to a PCKP blob under the repository's codec
// rules (DESIGN.md, "Blob codec"). The same state always produces the same
// bytes, which is what lets the chaos tests prove a recovered run identical
// to the failure-free one.
package ckpt

import (
	"errors"
	"fmt"
	"sync"

	"pepscale/internal/topk"
	"pepscale/internal/wire"
)

// Codec framing.
const (
	magic   = 0x50434b50 // "PCKP"
	version = 1
)

// ErrCorrupt reports a blob that fails structural validation.
var ErrCorrupt = errors.New("ckpt: corrupt checkpoint")

// Query is one query's checkpointed state: its current top-τ hits in
// best-first order (topk.List.Hits order).
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

// Encode serializes the group deterministically.
func (g *Group) Encode() []byte {
	n := 4 + 4 + 4 + 4 + 8 + 4
	for i := range g.Queries {
		n += topk.HitsWireSize(g.Queries[i].Hits)
	}
	buf := make([]byte, 0, n)
	buf = wire.U32(buf, magic)
	buf = wire.U32(buf, version)
	buf = wire.U32(buf, uint32(g.Group))
	buf = wire.U32(buf, uint32(g.Cursor))
	buf = wire.U64(buf, uint64(g.Candidates))
	buf = wire.U32(buf, uint32(len(g.Queries)))
	for i := range g.Queries {
		buf = topk.AppendHits(buf, g.Queries[i].Hits)
	}
	return buf
}

// Decode parses a blob produced by Encode.
func Decode(b []byte) (*Group, error) {
	d := wire.NewReader(b, ErrCorrupt)
	if m := d.U32(); m != magic {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrCorrupt, m)
	}
	if v := d.U32(); v != version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	g := &Group{
		Group:      int32(d.U32()),
		Cursor:     int32(d.U32()),
		Candidates: int64(d.U64()),
	}
	// A query is at least its hit count.
	g.Queries = make([]Query, d.Count(4))
	for i := range g.Queries {
		g.Queries[i].Hits = topk.ReadHits(&d)
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return g, nil
}

// Store is the stable checkpoint storage a restarted machine reads from —
// host-side state that survives rank failures, as a parallel filesystem
// would. Blobs are keyed by group; a Put replaces the group's previous
// checkpoint. Safe for concurrent use by rank goroutines.
type Store struct {
	mu     sync.Mutex
	blobs  map[int32][]byte
	writes int64
	bytes  int64
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{blobs: make(map[int32][]byte)}
}

// Put durably records the group's checkpoint (copying blob).
func (s *Store) Put(group int32, blob []byte) {
	cp := make([]byte, len(blob))
	copy(cp, blob)
	s.mu.Lock()
	s.blobs[group] = cp
	s.writes++
	s.bytes += int64(len(blob))
	s.mu.Unlock()
}

// Get returns a copy of the group's latest checkpoint, if any.
func (s *Store) Get(group int32) ([]byte, bool) {
	s.mu.Lock()
	blob, ok := s.blobs[group]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	cp := make([]byte, len(blob))
	copy(cp, blob)
	return cp, true
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
