//go:build !race

// The race detector's bookkeeping distorts allocation sizes, so this file
// is left out of -race builds.

package sortmz

import (
	"runtime"
	"testing"

	"pepscale/internal/chem"
	"pepscale/internal/cluster"
)

// TestSortAllocBudget guards the sort's one-image transport: a p = 4 sort
// of 2,000 synthetic proteins allocates at most sortAllocImages times the
// bytes of the images it produces, plus the count arrays (each rank's and
// the reduced one). Each record is written into a send buffer and into the
// sorted image, and indexed by 20 bytes in between; a per-record copy,
// decode or copying collective on the way adds an image or more.
func TestSortAllocBudget(t *testing.T) {
	const p, sortAllocImages = 4, 2.5
	db := testDB(2000)
	m, err := cluster.New(cluster.Config{Ranks: p, Cost: cluster.GigabitCluster()})
	if err != nil {
		t.Fatal(err)
	}
	blocks := make([][]Seq, p)
	var maxKey int32
	for i, rec := range db {
		o := i * p / len(db)
		blocks[o] = append(blocks[o], Seq{GID: int32(i), Rec: rec})
		maxKey = max(maxKey, Key(rec.Seq, chem.Mono))
	}
	var images [p]int
	sortAll := func() {
		if err := m.Run(func(r *cluster.Rank) error {
			res, err := Sort(r, blocks[r.ID()], Params{MassType: chem.Mono, RingAllreduce: true})
			if err == nil {
				images[r.ID()] = len(res.Image)
			}
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	sortAll() // warm: the machine's first Run sets up its ranks
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sortAll()
	runtime.ReadMemStats(&after)
	var image int
	for _, n := range images {
		image += n
	}
	counts := (p + 1) * 8 * (int(maxKey) + 1)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("sort allocated %d bytes: %.2f images of %d bytes beside %d bytes of count arrays", got, float64(int(got)-counts)/float64(image), image, counts)
	if limit := uint64(sortAllocImages*float64(image)) + uint64(counts); got > limit {
		t.Errorf("sort allocated %d bytes, above %v images of %d bytes plus %d bytes of count arrays", got, sortAllocImages, image, counts)
	}
}
