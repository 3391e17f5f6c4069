package fragidx

import (
	"runtime"
	"sync"

	"pepscale/internal/spectrum"
)

// buildScratch is the transient state of one buildTier call: the posting
// streams in enumeration order (before the counting sort scatters them into
// the tier), the per-row fill cursors, and the fragment-generation buffers.
// None of it is reachable from the finished tier.
type buildScratch struct {
	bins  []int32
	metas []Meta
	fill  []int32

	pm      marks
	frags   []spectrum.Fragment
	deltas  []float64
	nullPep []byte
	nullDel []float64
}

// BuildPool lends build scratch to the tier builds of the indexes created
// with it (NewPooled), so a build allocates only the tier it retains. It is a
// plain free list under a mutex, and it lives exactly as long as its owner —
// unlike a sync.Pool, which the collector empties between searches, making a
// run's allocation volume depend on GC timing.
//
// At most GOMAXPROCS scratch sets are ever out: a build beyond that waits for
// one to come back. Builds are pure computation, so more of them in flight
// than there are processors finishes no sooner — but at step 0 of Algorithm A
// all p ranks build p different blocks at once, and p scratch sets (each the
// size of a tier) would be the run's memory high-water mark.
type BuildPool struct {
	mu     sync.Mutex
	idle   *sync.Cond // signalled by put; L is &mu
	free   []*buildScratch
	spare  int // scratch sets not yet created
	builds int
}

// NewBuildPool returns an empty pool.
func NewBuildPool() *BuildPool {
	p := &BuildPool{spare: runtime.GOMAXPROCS(0)}
	p.idle = sync.NewCond(&p.mu)
	return p
}

func (p *BuildPool) get() *buildScratch {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.builds++
	for len(p.free) == 0 && p.spare == 0 {
		p.idle.Wait()
	}
	if n := len(p.free); n > 0 {
		bs := p.free[n-1]
		p.free = p.free[:n-1]
		return bs
	}
	p.spare--
	return new(buildScratch)
}

func (p *BuildPool) put(bs *buildScratch) {
	p.mu.Lock()
	p.free = append(p.free, bs)
	p.mu.Unlock()
	p.idle.Signal()
}

// Builds returns how many tier builds have drawn scratch from the pool — one
// per tier built by the pool's indexes.
func (p *BuildPool) Builds() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.builds
}

// emptied returns s with length 0 and room for n elements, allocating room
// elements (at least n) when s is too small.
func emptied[T any](s []T, n, room int) []T {
	if cap(s) < n {
		return make([]T, 0, max(n, room))
	}
	return s[:0]
}
