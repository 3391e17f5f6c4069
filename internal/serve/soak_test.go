package serve

import (
	"runtime"
	"testing"
)

// TestServeLiveHeapBounded is the soak guard of a service in bounded
// memory: the steady and bursty load, 200 proteins, a 40-query pool, four
// ranks and a no-op Sink, served over an 8 s and a 32 s horizon (465 and
// 2,095 queries). After Close and two collections, with the server
// still reachable, the live heap of the longer run stays within 1 MiB of
// the shorter's: at most about 640 B per extra query served, where keeping
// each completion or each batch's checkpoint costs several KB. What still
// grows is the prepared-fragment tables, which stop at a bound per block.
func TestServeLiveHeapBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory distorts heap sizes")
	}
	db, pool := testWorkload(t, 200, 40)
	liveHeap := func(horizon float64) (uint64, int64) {
		spec := steadySpec()
		spec.HorizonSec = horizon
		cfg := steadyCfg(db)
		cfg.Sink = func(Completion) {}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Play(Schedule(spec, pool)); err != nil {
			t.Fatalf("Play: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		runtime.KeepAlive(s)
		return ms.HeapAlloc, s.Metrics().Completed
	}
	short, nShort := liveHeap(8)
	long, nLong := liveHeap(32)
	t.Logf("live heap %.2f MB after %d queries, %.2f MB after %d", float64(short)/1e6, nShort, float64(long)/1e6, nLong)
	if nLong < 3*nShort {
		t.Fatalf("the 32 s stream served %d queries against the 8 s stream's %d", nLong, nShort)
	}
	if long > short+1<<20 {
		t.Errorf("the live heap grew %.2f MB from %d to %d queries served: over the 1 MiB bound",
			float64(long-short)/1e6, nShort, nLong)
	}
}
