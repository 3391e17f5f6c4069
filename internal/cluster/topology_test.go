package cluster

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// degenerateFlat returns a cost model whose two-level topology is the exact
// degenerate image of the flat model: one rank per node (so no intra-node
// paths between distinct ranks and no NIC sharing), one rack, and every
// topology parameter left at its fall-back. Every Path* helper and
// collective formula must then reproduce the flat numbers bit-for-bit.
func degenerateFlat() (flat, topo CostModel) {
	flat = GigabitCluster()
	flat.RanksPerNode = 1
	topo = flat
	topo.Topo = Topology{Enabled: true, Hierarchical: true}
	return flat, topo
}

func TestPathHelpersDegenerateEqualFlat(t *testing.T) {
	flat, topo := degenerateFlat()
	for _, p := range []int{1, 2, 5, 64, 4096} {
		for _, b := range []int{0, 1, 999, 1 << 20} {
			pairs := [][2]int{{0, p - 1}, {p / 2, 0}, {p - 1, p / 2}}
			for _, pr := range pairs {
				from, to := pr[0], pr[1]
				if got, want := topo.PathXferSec(b, from, to, p), flat.XferSec(b, p); got != want {
					t.Fatalf("PathXferSec(b=%d,%d->%d,p=%d) = %v, flat %v", b, from, to, p, got, want)
				}
				if from == to {
					// Self-gets use the shared-memory path by design; the
					// flat RMA formula does not apply.
					continue
				}
				for _, blocking := range []bool{false, true} {
					got := topo.PathRMAXferSec(b, from, to, p, blocking)
					want := flat.RMAXferSec(b, p, blocking)
					if got != want {
						t.Fatalf("PathRMAXferSec(b=%d,%d<-%d,p=%d,blocking=%v) = %v, flat %v", b, from, to, p, blocking, got, want)
					}
				}
			}
		}
	}
}

func TestCollectiveLevelsDegenerateEqualFlat(t *testing.T) {
	flat, topo := degenerateFlat()
	for _, p := range []int{1, 2, 3, 7, 64, 1024} {
		members := make([]int, p)
		for i := range members {
			members[i] = i
		}
		lv := topo.levelsFor(members)
		if !lv.hier {
			t.Fatalf("p=%d: levelsFor not hierarchical under enabled topology", p)
		}
		for _, b := range []int{0, 8, 12, 4 << 10} {
			if got, want := topo.collectiveSecLevels(b, lv), flat.CollectiveSec(b, p); got != want {
				t.Fatalf("collectiveSecLevels(b=%d,p=%d) = %v, flat %v", b, p, got, want)
			}
			if got, want := topo.alltoallvSecLevels(b, 2*b, lv), flat.AlltoallvSec(b, 2*b, p); got != want {
				t.Fatalf("alltoallvSecLevels(b=%d,p=%d) = %v, flat %v", b, p, got, want)
			}
			flatGather := float64(TreeSteps(p))*flat.LatencySec + float64(b)/flat.effectiveBytesPerSec(p)
			if got := topo.gatherRootSecLevels(b, lv); got != flatGather {
				t.Fatalf("gatherRootSecLevels(b=%d,p=%d) = %v, flat %v", b, p, got, flatGather)
			}
		}
	}
}

// TestDegenerateTopologyTraceIdentical is the oracle form of the fallback
// guarantee: a degenerate two-level topology must leave the entire virtual
// execution — clocks, statistics, and the full event trace — bit-identical
// to the flat model, including under an injected crash. RMABytesPerSec and
// BlockingRMAFactor are neutralized so that the program's (possible)
// self-gets price identically on the shared-memory and flat paths.
func TestDegenerateTopologyTraceIdentical(t *testing.T) {
	flat, topo := degenerateFlat()
	flat.RMABytesPerSec = 0
	flat.BlockingRMAFactor = 0
	topo.RMABytesPerSec = 0
	topo.BlockingRMAFactor = 0

	type outcome struct {
		errs   string
		clocks []float64
		stats  []Stats
		events interface{}
	}
	run := func(cm CostModel, seed uint64, p int, plan *FaultPlan) outcome {
		m, err := New(Config{Ranks: p, Cost: cm, Trace: true, Fault: plan})
		if err != nil {
			t.Fatal(err)
		}
		rep := m.RunWithReport(randomProgram(seed, p))
		o := outcome{clocks: make([]float64, p), stats: make([]Stats, p)}
		if rep.Err != nil {
			o.errs = rep.Err.Error()
		}
		for i := 0; i < p; i++ {
			o.clocks[i] = m.Rank(i).Time()
			o.stats[i] = m.Rank(i).Stats
		}
		if att := m.Trace("cmp"); att != nil {
			o.events = att.Events
		}
		return o
	}

	for _, p := range []int{1, 2, 3, 7, 64} {
		for seed := uint64(1); seed <= 3; seed++ {
			var plan *FaultPlan
			if seed == 3 && p > 1 {
				plan = &FaultPlan{Seed: 11, CrashAtCall: map[int]int{1: 5}, DropProb: 0.2, DetectSec: 0.01}
			}
			a := run(flat, seed*77, p, plan)
			b := run(topo, seed*77, p, plan)
			if a.errs != b.errs {
				t.Fatalf("p=%d seed=%d: errors diverged: %q vs %q", p, seed, a.errs, b.errs)
			}
			if !reflect.DeepEqual(a.clocks, b.clocks) {
				t.Fatalf("p=%d seed=%d: clocks diverged\nflat %v\ntopo %v", p, seed, a.clocks, b.clocks)
			}
			if !reflect.DeepEqual(a.stats, b.stats) {
				t.Fatalf("p=%d seed=%d: stats diverged", p, seed)
			}
			if !reflect.DeepEqual(a.events, b.events) {
				t.Fatalf("p=%d seed=%d: traces diverged", p, seed)
			}
		}
	}
}

// collectiveResults runs a mixed collective program and returns every
// data-plane result each rank observed, plus the per-rank byte counters.
// Hierarchical costing must not perturb any of it: the data plane keeps the
// single canonical rank-order rendezvous.
func collectiveResults(t *testing.T, cm CostModel, p int) ([][]interface{}, []Stats, []float64) {
	t.Helper()
	m, err := New(Config{Ranks: p, Cost: cm})
	if err != nil {
		t.Fatal(err)
	}
	results := make([][]interface{}, p)
	err = m.Run(func(r *Rank) error {
		id := r.ID()
		var out []interface{}
		out = append(out, r.AllreduceInt64(OpSum, int64(id+1)))
		out = append(out, r.World().AllreduceFloat64(OpMax, float64(id)*1.5))
		out = append(out, r.AllreduceInt64Vec(OpMin, []int64{int64(id), int64(p - id)}))
		buf := []byte{byte(id), byte(id >> 8), 7}
		out = append(out, r.World().Gather(p-1, buf))
		out = append(out, r.Allgather([]byte{byte(id)}))
		out = append(out, r.Gather(0, []byte{byte(id), 1}))
		send := make([][]byte, p)
		for j := range send {
			send[j] = []byte{byte(id), byte(j)}
		}
		out = append(out, r.Alltoallv(send))
		sub := r.World().Split(id%2, id)
		out = append(out, sub.AllreduceInt64(OpSum, int64(id)))
		sub.Barrier()
		r.Barrier()
		results[id] = out
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := make([]Stats, p)
	clocks := make([]float64, p)
	for i := 0; i < p; i++ {
		stats[i] = m.Rank(i).Stats
		clocks[i] = m.Rank(i).Time()
	}
	return results, stats, clocks
}

// TestHierarchicalCollectivesBitIdenticalResults: switching the two-level
// model between flat and hierarchical collective costing changes virtual
// time only — every result every rank sees, and every byte counter, is
// bit-identical, and repeated hierarchical runs are deterministic.
func TestHierarchicalCollectivesBitIdenticalResults(t *testing.T) {
	ps := []int{1, 2, 3, 7, 64}
	if !testing.Short() {
		ps = append(ps, 1024)
	}
	for _, p := range ps {
		hier := TwoLevelCluster()
		fl := hier
		fl.Topo.Hierarchical = false
		rh, sh, ch := collectiveResults(t, hier, p)
		rf, sf, _ := collectiveResults(t, fl, p)
		if !reflect.DeepEqual(rh, rf) {
			t.Fatalf("p=%d: collective results differ between hierarchical and flat costing", p)
		}
		for i := 0; i < p; i++ {
			if sh[i].BytesSent != sf[i].BytesSent || sh[i].BytesReceived != sf[i].BytesReceived || sh[i].Messages != sf[i].Messages {
				t.Fatalf("p=%d rank %d: byte counters differ: hier {%d,%d,%d} flat {%d,%d,%d}",
					p, i, sh[i].BytesSent, sh[i].BytesReceived, sh[i].Messages,
					sf[i].BytesSent, sf[i].BytesReceived, sf[i].Messages)
			}
		}
		r2, s2, c2 := collectiveResults(t, hier, p)
		if !reflect.DeepEqual(rh, r2) || !reflect.DeepEqual(sh, s2) || !reflect.DeepEqual(ch, c2) {
			t.Fatalf("p=%d: hierarchical runs not deterministic", p)
		}
	}
}

// TestHierarchicalCollectivesTraceIdentical pins the stronger trace-level
// claim at a moderate size: the full event streams under hierarchical and
// flat costing agree on everything except durations, and byte deltas agree
// exactly.
func TestHierarchicalCollectivesTraceIdentical(t *testing.T) {
	p := 64
	run := func(hier bool) *Machine {
		cm := TwoLevelCluster()
		cm.Topo.Hierarchical = hier
		m, err := New(Config{Ranks: p, Cost: cm, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(exerciseAll); err != nil {
			t.Fatal(err)
		}
		return m
	}
	mh, mf := run(true), run(false)
	checkTraceMatchesStats(t, mh, mh.Trace("hier"))
	ah, af := mh.Trace("hier"), mf.Trace("flat")
	for i := 0; i < p; i++ {
		if len(ah.Events[i]) != len(af.Events[i]) {
			t.Fatalf("rank %d: event count %d (hier) vs %d (flat)", i, len(ah.Events[i]), len(af.Events[i]))
		}
		for j := range ah.Events[i] {
			eh, ef := ah.Events[i][j], af.Events[i][j]
			if eh.Kind != ef.Kind || eh.Name != ef.Name || eh.Peer != ef.Peer {
				t.Fatalf("rank %d event %d: identity differs: %+v vs %+v", i, j, eh, ef)
			}
			dh, df := eh.Delta, ef.Delta
			if dh.BytesSent != df.BytesSent || dh.BytesReceived != df.BytesReceived || dh.RMABytesReceived != df.RMABytesReceived || dh.Messages != df.Messages {
				t.Fatalf("rank %d event %d (%v %q): byte deltas differ", i, j, eh.Kind, eh.Name)
			}
		}
	}
}

// TestHierarchicalReducesCommTime: at p ≥ 1024 on the two-level model, the
// node-leader hierarchy must beat the flat ⌈log₂p⌉ tree on byte-carrying
// collectives — leaders do not share their NIC, so the bandwidth term stops
// paying the per-node sharing penalty.
func TestHierarchicalReducesCommTime(t *testing.T) {
	for _, p := range []int{1024, 4096} {
		run := func(hier bool) float64 {
			cm := TwoLevelCluster()
			cm.Topo.Hierarchical = hier
			m, err := New(Config{Ranks: p, Cost: cm})
			if err != nil {
				t.Fatal(err)
			}
			big := make([]byte, 64<<10) // read-only, shared by every rank
			err = m.Run(func(r *Rank) error {
				r.World().Gather(0, big)
				r.Allgather(make([]byte, 64))
				r.AllreduceInt64(OpSum, 1)
				r.Barrier()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			var total float64
			for i := 0; i < p; i++ {
				total += m.Rank(i).Stats.TotalCommSec
			}
			return total
		}
		hier, flat := run(true), run(false)
		if !(hier < flat) {
			t.Fatalf("p=%d: hierarchical comm time %v not below flat %v", p, hier, flat)
		}
		t.Logf("p=%d: total comm sec hier=%.3f flat=%.3f (%.1f%%)", p, hier, flat, 100*hier/flat)
	}
}

// TestTwoLevelPathClasses pins the three path classes' ordering and the
// NIC-sharing rule on the calibrated model.
func TestTwoLevelPathClasses(t *testing.T) {
	cm := TwoLevelCluster()
	p := 4096
	b := 1 << 20
	intra := cm.PathXferSec(b, 0, 1, p)    // same node
	rack := cm.PathXferSec(b, 0, 8, p)     // same rack, different node
	inter := cm.PathXferSec(b, 0, 8*32, p) // different rack
	if !(intra < rack && rack < inter) {
		t.Fatalf("path classes not ordered: intra=%v rack=%v inter=%v", intra, rack, inter)
	}
	// NIC sharing counts endpoint-node occupancy: a full node divides the
	// link 8 ways, while a 2-rank job on the same placement shares nothing
	// beyond its two resident ranks.
	small := cm.PathXferSec(b, 0, 8, 9) // 9 ranks: node 0 full (8), node 1 holds 1
	if !(small <= rack) {
		t.Fatalf("occupancy sharing: 9-rank transfer %v slower than 4096-rank %v", small, rack)
	}
	if got := cm.nodeOccupancy(0, 9); got != 8 {
		t.Fatalf("nodeOccupancy(0,9) = %d, want 8", got)
	}
	if got := cm.nodeOccupancy(1, 9); got != 1 {
		t.Fatalf("nodeOccupancy(1,9) = %d, want 1", got)
	}
	// Inter-rack bandwidth is the path bottleneck: the lower of the NIC and
	// the uplink (on the calibrated model the 10-gigabit uplink outruns the
	// gigabit NIC, so the NIC governs; a slower uplink would cap it).
	if bw := cm.interRackBW(); bw != cm.BytesPerSec {
		t.Fatalf("interRackBW = %v, want NIC %v", bw, cm.BytesPerSec)
	}
	slow := cm
	slow.Topo.InterRackBytesPerSec = 50e6
	if bw := slow.interRackBW(); bw != 50e6 {
		t.Fatalf("interRackBW under slow uplink = %v, want 5e7", bw)
	}
	// Unset bandwidths model a free network.
	var free CostModel
	free.Topo.Enabled = true
	if got := free.PathXferSec(1<<30, 0, 1, 2); got != 0 || math.IsNaN(got) {
		t.Fatalf("free network transfer = %v, want 0", got)
	}
}

// TestLevelsForSubgroups checks the level structure of split memberships:
// fan counts follow the occupied nodes and racks of the members actually
// present, not the whole machine.
func TestLevelsForSubgroups(t *testing.T) {
	cm := TwoLevelCluster() // 8 ranks/node, 32 nodes/rack
	cases := []struct {
		members  []int
		intraFan int
		rackFan  int
		racks    int
	}{
		{[]int{0, 1, 2, 3}, 4, 1, 1},
		{[]int{0, 8, 16, 24}, 1, 4, 1},
		{[]int{0, 256}, 1, 1, 2},
		{[]int{0, 1, 8, 256, 257, 258}, 3, 2, 2},
	}
	for _, tc := range cases {
		lv := cm.levelsFor(tc.members)
		if lv.intraFan != tc.intraFan || lv.rackFan != tc.rackFan || lv.racks != tc.racks {
			t.Errorf("levelsFor(%v) = {intra %d, rack %d, racks %d}, want {%d, %d, %d}",
				tc.members, lv.intraFan, lv.rackFan, lv.racks, tc.intraFan, tc.rackFan, tc.racks)
		}
		if lv.size != len(tc.members) {
			t.Errorf("levelsFor(%v).size = %d", tc.members, lv.size)
		}
	}
}

var _ = fmt.Sprintf // keep fmt for debug edits
