package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pepscale/internal/digest"
	"pepscale/internal/fasta"
	"pepscale/internal/fragidx"
	"pepscale/internal/sortmz"
)

// indexCache memoizes per-block derived data within one run. On a real
// cluster every rank parses and digests each transported block itself (and
// the virtual clock still charges that work per rank); on the simulation
// host, p ranks rebuilding identical immutable structures would multiply
// wall-clock time AND resident memory by p for no fidelity gain, so the
// host builds each block's parse, digest and fragment index once, keyed by
// content. All cached values are immutable after construction (the fragment
// index after each tier's single build) and therefore safe to share across
// rank goroutines. The cache lives as long as the run: one Run, every
// attempt of one RunResilient/RunElastic, one Backend.
type indexCache struct {
	// mu guards m and every insertion into or growth of a dense table; dense
	// hits take no lock.
	mu sync.Mutex
	m  map[cacheKey]*cacheEntry
	// fragBuild lends scratch to every fragment-index tier build of the run
	// and counts them (one per tier built; see blockIndex).
	fragBuild *fragidx.BuildPool
	// dense is a per-kind table fast path for the dominant key shape:
	// block-index hashes (see blockKey), which are small integers. At p=1024
	// the transport loops perform 2.1 M cache lookups per search from every
	// host thread, so a hit reads an atomically published table and nothing
	// else: slots are set once under mu, growth copies the slots into a
	// larger table under mu and publishes it afterwards. Keys with large
	// hashes (content hashes) and size-mismatched slots fall back to the map.
	dense [kindCount]atomic.Pointer[[]atomic.Pointer[cacheEntry]]
}

// denseHashLimit bounds the dense fast path's memory: hashes at or above it
// (content hashes, which are effectively random uint64s) use the map.
const denseHashLimit = 1 << 16

// cacheEntry is a single-flight slot: the first requester builds, everyone
// else waits on the Once. Without this, p ranks hitting a cold key (every
// master-worker rank needs the same full-database index at the same
// instant) would run p concurrent digests and multiply peak memory by p.
type cacheEntry struct {
	once sync.Once
	v    interface{}
	err  error
	// size is the key's size, fixed at insertion: a dense slot serves only
	// keys of its size (guarding against implausible same-index
	// different-size keys).
	size int
}

// cacheKind namespaces the derived-data type within the cache.
type cacheKind uint8

const (
	kindIndex cacheKind = iota
	kindRecords
	kindSeqs
	kindCands
	kindCandIndex
	kindRanges

	kindCount = int(kindRanges) + 1
)

type cacheKey struct {
	hash uint64
	size int
	kind cacheKind
}

// blockKey identifies one transported block within a run. The cache lives
// for a single run, every rank partitions the database with the identical
// fasta.Ranges / counting-sort computation, and a block's wire image is a
// pure function of its block index (Algorithms A, SubGroup) or owner rank
// (Algorithm B, Candidate) — so the index alone is a collision-free key.
// Deriving it once per block replaces the old content re-hash, which
// re-FNVed every transported block's O(N/p) bytes on every iteration of
// every rank's transport loop (O(p²·N/p) = O(pN) hashed bytes per run).
func blockKey(block int, size int) cacheKey {
	return cacheKey{hash: uint64(block), size: size}
}

func newIndexCache() *indexCache {
	return &indexCache{m: make(map[cacheKey]*cacheEntry), fragBuild: fragidx.NewBuildPool()}
}

// getOrBuild returns the cached value for key, building it exactly once
// (single-flight); concurrent requesters block until the build completes.
func (c *indexCache) getOrBuild(key cacheKey, build func() (interface{}, error)) (interface{}, error) {
	if c == nil {
		return build()
	}
	e := c.denseHit(key)
	if e == nil {
		e = c.insert(key)
	}
	e.once.Do(func() {
		e.v, e.err = build()
	})
	return e.v, e.err
}

// denseHit is the lock-free lookup: key's entry if its dense slot is set
// and of key's size, else nil.
func (c *indexCache) denseHit(key cacheKey) *cacheEntry {
	if key.hash >= denseHashLimit {
		return nil
	}
	if t := c.dense[key.kind].Load(); t != nil && int(key.hash) < len(*t) {
		if e := (*t)[key.hash].Load(); e != nil && e.size == key.size {
			return e
		}
	}
	return nil
}

// insert returns key's entry, creating it if no requester has yet: in the
// dense table when the hash is small and the slot free or of key's size, in
// the map otherwise.
func (c *indexCache) insert(key cacheKey) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if key.hash < denseHashLimit {
		var d []atomic.Pointer[cacheEntry]
		if t := c.dense[key.kind].Load(); t != nil {
			d = *t
		}
		if int(key.hash) >= len(d) {
			nd := make([]atomic.Pointer[cacheEntry], max(int(key.hash)+1, 2*len(d)))
			for i := range d {
				nd[i].Store(d[i].Load())
			}
			c.dense[key.kind].Store(&nd)
			d = nd
		}
		e := d[key.hash].Load()
		if e == nil {
			e = &cacheEntry{size: key.size}
			d[key.hash].Store(e)
		}
		if e.size == key.size {
			return e
		}
	}
	e, ok := c.m[key]
	if !ok {
		e = &cacheEntry{size: key.size}
		c.m[key] = e
	}
	return e
}

// blockIndex is what the host derives from one block's peptides: the mass
// index, its memory footprint (the footprint walk is O(index) and the
// transport loops ask for it O(p) times per block), and — created by the
// first fragment-index scan of the block — the inverted fragment index.
// Every rank scanning the block shares all three; a scanState keeps only its
// own walk state.
//
//pepvet:shared
type blockIndex struct {
	ix   *digest.Index
	foot int64

	fragOnce sync.Once
	frag     *fragidx.Index
	// fragBuild is the owning cache's pool; nil for a block outside any
	// cache, whose fragment index then builds with a pool of its own.
	fragBuild *fragidx.BuildPool
}

// newBlockIndex wraps a block's mass index. fragBuild is nil for a block no
// run cache owns — the serial reference and tests, which scan one block with
// throwaway state.
func newBlockIndex(ix *digest.Index, fragBuild *fragidx.BuildPool) *blockIndex {
	return &blockIndex{ix: ix, foot: indexFootprintBytes(ix), fragBuild: fragBuild}
}

// fragIndex returns the block's fragment index, created on first use. It is
// a pure function of the block and the run's (constant) scoring and
// modification settings; its tiers are built on demand, each exactly once.
func (b *blockIndex) fragIndex(opt Options) *fragidx.Index {
	b.fragOnce.Do(func() {
		b.frag = fragidx.NewPooled(b.ix, opt.Digest.Mods, opt.Score, b.fragBuild)
	})
	return b.frag
}

// indexFor returns the derived indexes of a block whose proteins are numbered
// base, base+1, …, digesting on first use. key must identify both content and
// protein numbering; block-index keys do (the gid bases are a pure function of
// the block index).
func (c *indexCache) indexFor(key cacheKey, recs []fasta.Record, base int32, p digest.Params) (*blockIndex, error) {
	return c.blockFor(key, kindIndex, func() (*digest.Index, error) { return digest.NewIndex(recs, base, p) })
}

// blockFor single-flights the blockIndex of one block under (key, kind),
// building its mass index with build on first use.
func (c *indexCache) blockFor(key cacheKey, kind cacheKind, build func() (*digest.Index, error)) (*blockIndex, error) {
	key.kind = kind
	v, err := c.getOrBuild(key, func() (interface{}, error) {
		ix, err := build()
		if err != nil {
			return nil, err
		}
		var fragBuild *fragidx.BuildPool
		if c != nil {
			fragBuild = c.fragBuild
		}
		return newBlockIndex(ix, fragBuild), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*blockIndex), nil
}

// rangesFor memoizes the record-aligned blocks-way partition of the
// database image. Every rank computes the identical partition, and the scan
// is O(N); without memoization a p=4096 machine spends a third of its host
// time re-scanning the FASTA image p times during the load phase.
func (c *indexCache) rangesFor(data []byte, blocks int) []fasta.Range {
	if c == nil {
		return fasta.Ranges(data, blocks)
	}
	key := cacheKey{hash: uint64(blocks), kind: kindRanges}
	v, _ := c.getOrBuild(key, func() (interface{}, error) {
		return fasta.Ranges(data, blocks), nil
	})
	return v.([]fasta.Range)
}

// recsFor parses a raw FASTA block once per key.
func (c *indexCache) recsFor(key cacheKey, raw []byte) ([]fasta.Record, error) {
	key.kind = kindRecords
	v, err := c.getOrBuild(key, func() (interface{}, error) {
		return fasta.ParseBytes(raw)
	})
	if err != nil {
		return nil, fmt.Errorf("core: parse block: %w", err)
	}
	return v.([]fasta.Record), nil
}

// seqBlock is one Algorithm B sorted slice in the forms every visit reads:
// the records in slice order, the gid each carries (a sorted slice numbers
// its proteins by the gids it transports) and the gid→FASTA-ID lookup.
// Immutable once built and shared by every rank visiting the block.
type seqBlock struct {
	recs    []fasta.Record
	gids    []int32
	idByGID map[int32]string
}

func (b *seqBlock) idOf(gid int32) string {
	if id, ok := b.idByGID[gid]; ok {
		return id
	}
	return fmt.Sprintf("protein_%d", gid)
}

// seqsFor decodes an Algorithm B wire block once per key.
func (c *indexCache) seqsFor(key cacheKey, raw []byte) (*seqBlock, error) {
	key.kind = kindSeqs
	v, err := c.getOrBuild(key, func() (interface{}, error) {
		seqs, err := sortmz.UnmarshalSeqs(raw)
		if err != nil {
			return nil, err
		}
		b := &seqBlock{
			recs:    make([]fasta.Record, len(seqs)),
			gids:    make([]int32, len(seqs)),
			idByGID: make(map[int32]string, len(seqs)),
		}
		for i, s := range seqs {
			b.recs[i], b.gids[i] = s.Rec, s.GID
			b.idByGID[s.GID] = s.Rec.ID
		}
		return b, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*seqBlock), nil
}

// candsFor decodes a candidate-transport wire block once per key.
func (c *indexCache) candsFor(key cacheKey, raw []byte) ([]candEntry, error) {
	key.kind = kindCands
	v, err := c.getOrBuild(key, func() (interface{}, error) {
		return unmarshalCands(raw)
	})
	if err != nil {
		return nil, err
	}
	return v.([]candEntry), nil
}
