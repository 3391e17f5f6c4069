package cluster

import (
	"fmt"
	"sort"
)

// Comm is a communicator: an ordered subset of the machine's ranks with
// its own collective context, the MPI_Comm equivalent. The world
// communicator spans all ranks; Split carves disjoint sub-communicators
// (the paper's "processors can divide themselves into smaller sub-groups").
//
// A Comm value is one rank's view of the group (it knows the caller's
// position); the underlying membership and rendezvous state are shared.
type Comm struct {
	r      *Rank
	shared *commShared
	myIdx  int
}

type commShared struct {
	ranks []int // global rank ids, ascending group order
	ph    *phaser
	// lv caches the membership's topology level structure for collective
	// costing — computed once per communicator (New, Reset, Split), not
	// per collective call.
	lv collLevels
}

// collSec prices a tree collective moving b bytes per round on this
// communicator under the machine's (possibly hierarchical) topology.
func (c *Comm) collSec(b int) float64 {
	return c.r.m.cfg.Cost.collectiveSecLevels(b, c.shared.lv)
}

// worldCollSec prices a machine-wide tree collective moving b bytes per
// round.
func (r *Rank) worldCollSec(b int) float64 {
	return r.m.cfg.Cost.collectiveSecLevels(b, r.m.world.lv)
}

// World returns the all-ranks communicator view for this rank.
func (r *Rank) World() *Comm {
	return &Comm{r: r, shared: r.m.world, myIdx: r.id}
}

// Size returns the communicator's rank count.
func (c *Comm) Size() int { return len(c.shared.ranks) }

// Index returns the caller's position within the communicator.
func (c *Comm) Index() int { return c.myIdx }

// GlobalRank translates a communicator position to a machine rank id.
func (c *Comm) GlobalRank(idx int) int { return c.shared.ranks[idx] }

// Split partitions the parent communicator by color: ranks passing the
// same color form a new communicator, ordered by (key, global rank). It is
// a collective over the parent — every member must call it. The returned
// view belongs to the calling rank.
func (c *Comm) Split(color, key int) *Comm {
	r := c.r
	type entry struct {
		color, key, rank int
	}
	in := entry{color: color, key: key, rank: r.id}
	res, maxClock := c.shared.ph.arrive(r, c.myIdx, in, func(inputs []interface{}) interface{} {
		groups := map[int][]entry{}
		for _, raw := range inputs {
			e := raw.(entry)
			groups[e.color] = append(groups[e.color], e)
		}
		out := map[int]*commShared{}
		//pepvet:allow determinism per-color groups are built independently and members are sorted; no iteration order escapes
		for color, members := range groups {
			sort.Slice(members, func(i, j int) bool {
				if members[i].key != members[j].key {
					return members[i].key < members[j].key
				}
				return members[i].rank < members[j].rank
			})
			ranks := make([]int, len(members))
			for i, e := range members {
				ranks[i] = e.rank
			}
			// The phaser id is derived from the (sorted) membership, so a
			// deterministic program yields deterministic trace identities.
			out[color] = &commShared{ranks: ranks, ph: newPhaser(ranks, fmt.Sprintf("split%v", ranks)), lv: r.m.cfg.Cost.levelsFor(ranks)}
		}
		return out
	})
	r.syncTo("split", maxClock, c.collSec(12))
	shared := res.(map[int]*commShared)[color]
	myIdx := -1
	for i, gr := range shared.ranks {
		if gr == r.id {
			myIdx = i
			break
		}
	}
	if myIdx < 0 {
		panic(fmt.Sprintf("cluster: rank %d missing from its own split group", r.id))
	}
	return &Comm{r: r, shared: shared, myIdx: myIdx}
}

// Barrier synchronizes the communicator's members.
func (c *Comm) Barrier() {
	_, maxClock := c.shared.ph.arrive(c.r, c.myIdx, nil, nil)
	c.r.syncTo("barrier", maxClock, c.collSec(0))
}

// AllreduceInt64 combines one int64 per member under op.
func (c *Comm) AllreduceInt64(op ReduceOp, v int64) int64 {
	res, maxClock := c.shared.ph.arrive(c.r, c.myIdx, v, func(inputs []interface{}) interface{} {
		acc := inputs[0].(int64)
		for _, in := range inputs[1:] {
			acc = reduceInt64(op, acc, in.(int64))
		}
		return acc
	})
	c.r.syncTo("allreduce-int64", maxClock, c.collSec(8))
	return res.(int64)
}

// AllreduceFloat64 combines one float64 per member under op — the epoch
// clock agreement of the elastic engine (OpMax over member virtual times).
func (c *Comm) AllreduceFloat64(op ReduceOp, v float64) float64 {
	res, maxClock := c.shared.ph.arrive(c.r, c.myIdx, v, func(inputs []interface{}) interface{} {
		acc := inputs[0].(float64)
		for _, in := range inputs[1:] {
			acc = reduceFloat64(op, acc, in.(float64))
		}
		return acc
	})
	c.r.syncTo("allreduce-float64", maxClock, c.collSec(8))
	return res.(float64)
}

// Bcast distributes the payload of the member at group index root to every
// member (root receives its own data back unchanged).
func (c *Comm) Bcast(root int, data []byte) []byte {
	res, maxClock := c.shared.ph.arrive(c.r, c.myIdx, data, func(inputs []interface{}) interface{} {
		d, _ := inputs[root].([]byte)
		return d
	})
	out, _ := res.([]byte)
	c.r.syncTo("bcast", maxClock, c.collSec(len(out)))
	if c.myIdx != root {
		cp := make([]byte, len(out))
		copy(cp, out)
		c.r.Stats.BytesReceived += int64(len(out))
		c.r.traceCollBytes(0, int64(len(out)))
		return cp
	}
	c.r.Stats.BytesSent += int64(len(out))
	c.r.traceCollBytes(int64(len(out)), 0)
	return out
}

// gathered is the rendezvous result of Gather and Allgather.
type gathered struct {
	bufs  [][]byte
	total int
}

// Gather collects one payload per member at the member with group index
// root, which receives the group-ordered slice; other members receive nil.
func (c *Comm) Gather(root int, payload []byte) [][]byte {
	res, maxClock := c.shared.ph.arrive(c.r, c.myIdx, payload, func(inputs []interface{}) interface{} {
		out := make([][]byte, len(inputs))
		var total int
		for i, in := range inputs {
			b, _ := in.([]byte)
			out[i] = b
			total += len(b)
		}
		return gathered{bufs: out, total: total}
	})
	g := res.(gathered)
	cost := c.r.Cost()
	if c.myIdx == root {
		c.r.syncTo("gather", maxClock, cost.gatherRootSecLevels(g.total, c.shared.lv))
		c.r.Stats.BytesReceived += int64(g.total)
		c.r.traceCollBytes(0, int64(g.total))
		return g.bufs
	}
	c.r.syncTo("gather", maxClock, cost.PathXferSec(len(payload), c.r.id, c.shared.ranks[root], c.r.Size()))
	c.r.Stats.BytesSent += int64(len(payload))
	c.r.traceCollBytes(int64(len(payload)), 0)
	return nil
}

// Allgather collects one payload per member; every member receives the
// group-ordered slice as private copies, cut from one backing array per
// caller and capacity-clipped so appending to one cannot reach the next.
func (c *Comm) Allgather(payload []byte) [][]byte {
	res, maxClock := c.shared.ph.arrive(c.r, c.myIdx, payload, func(inputs []interface{}) interface{} {
		out := make([][]byte, len(inputs))
		var total int
		for i, in := range inputs {
			b, _ := in.([]byte)
			out[i] = b
			total += len(b)
		}
		return gathered{bufs: out, total: total}
	})
	g := res.(gathered)
	c.r.syncTo("allgather", maxClock, c.collSec(g.total))
	out := make([][]byte, len(g.bufs))
	flat := make([]byte, 0, g.total)
	for i, b := range g.bufs {
		o := len(flat)
		flat = append(flat, b...)
		out[i] = flat[o:len(flat):len(flat)]
	}
	c.r.Stats.BytesSent += int64(len(payload))
	c.r.Stats.BytesReceived += int64(g.total)
	c.r.traceCollBytes(int64(len(payload)), int64(g.total))
	return out
}

// reduceFloat64 applies op to a pair.
func reduceFloat64(op ReduceOp, a, b float64) float64 {
	switch op {
	case OpSum:
		return a + b
	case OpMax:
		if b > a {
			return b
		}
		return a
	case OpMin:
		if b < a {
			return b
		}
		return a
	default:
		return a
	}
}

// reduceInt64 applies op to a pair.
func reduceInt64(op ReduceOp, a, b int64) int64 {
	switch op {
	case OpSum:
		return a + b
	case OpMax:
		if b > a {
			return b
		}
		return a
	case OpMin:
		if b < a {
			return b
		}
		return a
	default:
		return a
	}
}
