package fragidx

import (
	"slices"
	"sync"
	"testing"

	"pepscale/internal/chem"
	"pepscale/internal/digest"
	"pepscale/internal/score"
)

// TestTierConcurrentSingleFlight is the shared-index contract under the race
// detector: many goroutines (the ranks scanning one block) ask one Index for
// a mix of tiers at once, including tiers beyond MaxFragmentCharge that are
// never built. Every caller of a key must get the same pointer, every tier
// must be built exactly once, and the result must equal a serially built
// index.
func TestTierConcurrentSingleFlight(t *testing.T) {
	params := digest.DefaultParams()
	params.Mods = []chem.Mod{chem.OxidationM}
	params.MaxModsPerPeptide = 1
	cfg := score.DefaultConfig()
	ix, _, _ := fragIdxFixture(t, 20, 1, params, cfg)

	type key struct {
		maxZ int
		kind Kind
	}
	keys := []key{
		{1, KindMatch}, {2, KindMatch}, {3, KindMatch},
		{1, KindPasses}, {2, KindPasses}, {3, KindPasses},
		// unsupported: nil for everyone, never built
		{maxPassCharge + 1, KindMatch}, {maxPassCharge + 1, KindPasses},
	}
	const buildable = 6

	pool := NewBuildPool()
	shared := NewPooled(ix, params.Mods, cfg, pool)
	const workers = 16
	got := make([][]*Tier, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = make([]*Tier, len(keys))
			<-start
			// Each worker starts at a different key so distinct tiers build
			// concurrently while others contend for the same one.
			for i := range keys {
				k := (i + w) % len(keys)
				got[w][k] = shared.Tier(keys[k].maxZ, keys[k].kind)
			}
		}(w)
	}
	close(start)
	wg.Wait()

	if n := pool.Builds(); n != buildable {
		t.Errorf("%d tier builds for %d distinct tiers", n, buildable)
	}
	serial := New(ix, params.Mods, cfg)
	for k, key := range keys {
		want := serial.Tier(key.maxZ, key.kind)
		for w := 0; w < workers; w++ {
			if got[w][k] != got[0][k] {
				t.Fatalf("tier %+v: worker %d got a different pointer than worker 0", key, w)
			}
		}
		if (got[0][k] == nil) != (want == nil) {
			t.Fatalf("tier %+v: nil mismatch with the serial build", key)
		}
		if want != nil && !tiersEqual(got[0][k], want) {
			t.Errorf("tier %+v: concurrently built tier differs from the serial build", key)
		}
		if again := shared.Tier(key.maxZ, key.kind); again != got[0][k] {
			t.Errorf("tier %+v: a later call returned a different pointer", key)
		}
	}
}

// tiersEqual is reflect.DeepEqual over two tiers, field by field: the generic
// walk is an order of magnitude slower on megabyte posting arrays, more so
// under the race detector.
func tiersEqual(a, b *Tier) bool {
	return a.kind == b.kind && a.maxZ == b.maxZ && a.minBin == b.minBin &&
		slices.Equal(a.rowStart, b.rowStart) &&
		slices.Equal(a.ords, b.ords) && slices.Equal(a.metas, b.metas) &&
		slices.Equal(a.keys, b.keys) &&
		slices.Equal(a.nFrags, b.nFrags) && slices.Equal(a.pred, b.pred) &&
		slices.Equal(a.lens, b.lens) &&
		slices.EqualFunc(a.terms, b.terms, func(x, y []float64) bool { return slices.Equal(x, y) })
}

// TestTierLookupZeroAlloc: once built, the per-query Tier lookup of the scan
// hot path is a slot index and an atomic load.
func TestTierLookupZeroAlloc(t *testing.T) {
	params := digest.DefaultParams()
	cfg := score.DefaultConfig()
	_, fx, _ := fragIdxFixture(t, 40, 1, params, cfg)
	fx.Tier(2, KindPasses)
	fx.Tier(1, KindMatch)
	if allocs := testing.AllocsPerRun(100, func() {
		if fx.Tier(2, KindPasses) == nil || fx.Tier(1, KindMatch) == nil {
			t.Fatal("built tier vanished")
		}
	}); allocs != 0 {
		t.Errorf("%v allocs per warmed Tier lookup, want 0", allocs)
	}
}
