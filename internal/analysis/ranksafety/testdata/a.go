// Package a is the ranksafety analyzer's seeded-violation corpus: a
// //pepvet:perrank type escaping through each of the three forbidden routes,
// unmarked types left silent, and one //pepvet:allow ownership transfer;
// then a //pepvet:shared type shaped like a block-owned index —
// built in its constructor and under a sync.Once, read by every rank — with
// each way of writing to it after publish.
package a

import "sync"

// scratch is one rank's private scoring state.
//
//pepvet:perrank
type scratch struct{ buf []float64 }

var shared scratch // want "package-level variable shared holds per-rank type a.scratch"

var sharedPtrs []*scratch // want "package-level variable sharedPtrs holds per-rank type a.scratch"

var count int // unmarked type: no finding

func work(s *scratch) {}

func spawnArg(s *scratch) {
	go work(s) // want "per-rank value of type a.scratch handed to a new goroutine"
}

func spawnCapture() {
	local := scratch{}
	go func() { // want "goroutine closure captures local"
		local.buf = nil
	}()
	done := make(chan struct{})
	go func() { close(done) }() // captures only an unmarked chan: no finding
	<-done
}

func send(ch chan scratch, s scratch) {
	ch <- s // want "value of per-rank type a.scratch sent on a channel"
}

func sendUnmarked(ch chan int, v int) {
	ch <- v // unmarked element type: no finding
}

func transfer(s *scratch) {
	//pepvet:allow ranksafety deliberate hand-off: the spawned goroutine becomes the sole owner
	go work(s)
}

// tier is one lazily built part of index; immutable once built.
//
//pepvet:shared
type tier struct{ rows []int32 }

// index is shaped like a block-owned index: one instance per block, handed to
// every rank that scans the block.
//
//pepvet:shared
type index struct {
	lens []int32

	once sync.Once
	tier *tier

	mu   sync.Mutex
	wide map[int]*tier

	hits int // the "mutable field added later"
}

func newIndex(n int) *index {
	x := &index{wide: map[int]*tier{}}
	x.lens = make([]int32, n) // under construction: no finding
	for i := range x.lens {
		x.lens[i] = int32(i) // still unpublished: no finding
	}
	return x
}

func buildTier(n int) *tier {
	t := new(tier)
	t.rows = make([]int32, n) // new(T) local: no finding
	var u tier
	u.rows = t.rows // bare var local: no finding
	_ = u
	return t
}

func (x *index) get() *tier {
	x.once.Do(func() {
		x.tier = buildTier(len(x.lens)) // under the once: no finding
	})
	x.hits++ // want "field hits of shared type a.index written after publish"
	return x.tier
}

// poke is the shared index written after publish: any rank holding the
// pointer could be reading lens while this runs.
func poke(x *index) {
	x.lens[0] = 7              // want "field lens of shared type a.index written after publish"
	x.tier.rows[1] = 3         // want "field rows of shared type a.tier written after publish"
	clear(x.lens)              // want "field lens of shared type a.index written after publish"
	x.lens = append(x.lens, 1) // want "field lens of shared type a.index written after publish"
}

func (x *index) wideTier(z int) *tier {
	x.mu.Lock()
	defer x.mu.Unlock()
	t := x.wide[z]
	if t == nil {
		t = buildTier(z)
		//pepvet:allow ranksafety mu is held; the map only ever gains finished tiers
		x.wide[z] = t
	}
	return t
}

func readOnly(x *index) int32 { return x.lens[0] + x.tier.rows[0] } // reads: no finding

// holder contradicts its marker: every rank would reach one rank's scratch.
//
//pepvet:shared
type holder struct {
	s *scratch // want "shared type a.holder holds per-rank type a.scratch"
}
