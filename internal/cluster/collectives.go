package cluster

import (
	"fmt"
	"slices"

	"pepscale/internal/trace"
)

// worldPhaserID names the machine-wide collective rendezvous in traces.
const worldPhaserID = "world"

// phaser is the machine's reusable rendezvous point for collectives. Every
// rank must invoke the same sequence of collective operations (the standard
// MPI ordering requirement); each operation is one phaser round. The id
// names the phaser in traces; together with the round sequence number it
// lets trace analysis match one rendezvous across rank timelines.
//
// A round resolves once every member has arrived or is gone (its body ended
// this Run, so it never arrives again). With no member gone it completes;
// otherwise every arrived member unwinds with the least cause among the gone
// ones. Which members arrive and which end is a fact of each member's own
// program order, so both the round's outcome and that cause are too.
type phaser struct {
	id     string
	n      int
	ranks  []int // global rank ids of the members, ascending group order
	sorted []int // the same ids ascending, for membership tests
	cur    *phRound
	mu     chMutex
	gone   int   // members that ended this Run
	least  cause // the least cause among them
}

// chMutex is a channel-based mutex so a blocked collective can also observe
// machine abort (a plain sync.Mutex would hang the test binary when a rank
// dies while others sit in a barrier).
type chMutex struct{ ch chan struct{} }

func newChMutex() chMutex {
	m := chMutex{ch: make(chan struct{}, 1)}
	m.ch <- struct{}{}
	return m
}

func (m *chMutex) lock(r *Rank) {
	select {
	case <-m.ch:
	case <-r.m.abort:
		r.interrupted()
	}
}

func (m *chMutex) unlock() { m.ch <- struct{}{} }

type phRound struct {
	seq      int64
	inputs   []interface{}
	clocks   []float64
	arrived  int
	done     chan struct{}
	result   interface{}
	maxClock float64
	// failed marks a round resolved with members gone; end is the least
	// cause among them.
	failed bool
	end    cause
}

func newPhaser(ranks []int, id string) *phaser {
	n := len(ranks)
	sorted := ranks
	if !slices.IsSorted(ranks) {
		sorted = slices.Clone(ranks)
		slices.Sort(sorted)
	}
	return &phaser{id: id, n: n, ranks: ranks, sorted: sorted, cur: newRound(n, 0), mu: newChMutex()}
}

// addPhaser creates a rendezvous that a rank's end reaches, with its
// members that have already ended this Run gone. Caller holds memberMu.
func (m *Machine) addPhaser(ranks []int, id string) *phaser {
	p := newPhaser(ranks, id)
	for _, g := range ranks {
		if m.ended(g) {
			p.markGone(m.endCause[g])
		}
	}
	m.phasers = append(m.phasers, p)
	return p
}

func newRound(n int, seq int64) *phRound {
	return &phRound{
		seq:    seq,
		inputs: make([]interface{}, n),
		clocks: make([]float64, n),
		done:   make(chan struct{}),
	}
}

// arrive deposits this rank's input and blocks until the round resolves;
// when every member arrived, the last arriver evaluates fn over the
// rank-indexed inputs. It returns fn's result and the maximum clock across
// participants. A round resolved with members gone unwinds the caller: name
// is the collective, for the error when no gone member failed.
func (p *phaser) arrive(r *Rank, name string, idx int, input interface{}, fn func(inputs []interface{}) interface{}) (interface{}, float64) {
	r.faultPoint()
	p.mu.lock(r)
	rd := p.cur
	r.lastCollPh, r.lastCollSeq = p.id, rd.seq
	rd.inputs[idx] = input
	rd.clocks[idx] = r.clock
	rd.arrived++
	last := rd.arrived+p.gone == p.n
	if last {
		p.resolve(rd, fn)
	}
	p.mu.unlock()
	if !last {
		r.awaitRound(rd)
	}
	if rd.failed {
		r.peerEnded(rd.end, fmt.Sprintf("%s: rank %d finished without arriving", name, rd.end.rank))
	}
	return rd.result, rd.maxClock
}

// resolve settles rd, at whose resolution every member has arrived or is
// gone. Caller holds p.mu.
func (p *phaser) resolve(rd *phRound, fn func(inputs []interface{}) interface{}) {
	if p.gone > 0 {
		rd.failed, rd.end = true, p.least
	} else {
		rd.maxClock = rd.clocks[0]
		for _, c := range rd.clocks[1:] {
			if c > rd.maxClock {
				rd.maxClock = c
			}
		}
		if fn != nil {
			rd.result = fn(rd.inputs)
		}
		p.cur = newRound(p.n, rd.seq+1)
	}
	close(rd.done)
}

// markGone counts one more member that ended by c.
func (p *phaser) markGone(c cause) {
	p.gone++
	if p.gone == 1 || c.before(p.least) {
		p.least = c
	}
}

// leave marks a member that ended by c gone, resolving the current round if
// it was the last one awaited. A fatal abort has unwound every member.
func (p *phaser) leave(m *Machine, c cause) {
	select {
	case <-p.mu.ch:
	case <-m.abort:
		return
	}
	p.markGone(c)
	// A round nobody waits in stays open: after a clean Run it is the one
	// the next Run starts from.
	if rd := p.cur; rd.arrived > 0 && rd.arrived+p.gone == p.n {
		p.resolve(rd, nil)
	}
	p.mu.unlock()
}

// awaitRound parks the rank until its collective round resolves or a fatal
// abort fires; nothing else wakes it, so a collective costs O(p) host
// wake-ups.
func (r *Rank) awaitRound(rd *phRound) {
	select {
	case <-rd.done:
		r.m.collWakes.Add(1)
	case <-r.m.abort:
		r.interrupted()
	}
}

// syncTo advances the rank clock to the collective's start time (recording
// the skew as synchronization wait) and then charges the collective's own
// communication cost and the payload bytes this rank sent and received. The
// name identifies the collective operation in the trace; the rendezvous
// identity stamped by arrive ties the event to its peers' events of the
// same round.
func (r *Rank) syncTo(name string, maxClock, cost float64, sent, recv int64) {
	at, wait := r.clock, 0.0
	if w := maxClock - r.clock; w > 0 {
		at, wait = maxClock, w
	}
	end := at + cost
	r.charge(end, trace.Event{Kind: trace.KindCollective, Name: name, Peer: -1, Bytes: sent + recv, PhID: r.lastCollPh, Seq: r.lastCollSeq, Start: r.clock, Dur: end - r.clock, Delta: trace.StatDelta{SyncWaitSec: wait, TotalCommSec: cost, ResidualCommSec: cost, BytesSent: sent, BytesReceived: recv}})
}

// The world collectives below are the Comm methods on the all-ranks
// communicator (comm.go): one rendezvous, one cost formula, one trace shape.

// Barrier blocks until all ranks arrive; clocks synchronize to the slowest
// rank plus a ⌈log₂p⌉-round latency cost.
func (r *Rank) Barrier() { r.World().Barrier() }

// ReduceOp selects the combining operation of an Allreduce.
type ReduceOp int

// Reduction operators.
const (
	OpSum ReduceOp = iota
	OpMax
	OpMin
)

// String implements fmt.Stringer.
func (op ReduceOp) String() string {
	switch op {
	case OpSum:
		return "sum"
	case OpMax:
		return "max"
	case OpMin:
		return "min"
	default:
		return fmt.Sprintf("ReduceOp(%d)", int(op))
	}
}

// AllreduceInt64 combines one int64 per rank under op; every rank receives
// the result.
func (r *Rank) AllreduceInt64(op ReduceOp, v int64) int64 { return r.World().AllreduceInt64(op, v) }

// AllreduceInt64Vec element-wise combines equal-length vectors (the global
// count array of the parallel counting sort). The last arriver combines
// them into a new vector, and every rank receives that same read-only
// result (a write would show in all views); a later write to one's own
// input shows in none.
func (r *Rank) AllreduceInt64Vec(op ReduceOp, vec []int64) []int64 {
	res, maxClock := r.m.coll.arrive(r, "allreduce-int64vec", r.id, vec, func(inputs []interface{}) interface{} {
		first := inputs[0].([]int64)
		acc := make([]int64, len(first))
		copy(acc, first)
		for _, in := range inputs[1:] {
			v := in.([]int64)
			if len(v) != len(acc) {
				panic(fmt.Sprintf("cluster: AllreduceInt64Vec length mismatch %d vs %d", len(v), len(acc)))
			}
			for i, x := range v {
				switch op {
				case OpSum:
					acc[i] += x
				case OpMax:
					if x > acc[i] {
						acc[i] = x
					}
				case OpMin:
					if x < acc[i] {
						acc[i] = x
					}
				}
			}
		}
		return acc
	})
	r.syncTo("allreduce-int64vec", maxClock, r.worldCollSec(8*len(vec)), 0, 0)
	return res.([]int64)
}

// Allgather collects one payload per rank; every rank receives the full
// rank-indexed slice, one read-only value shared by all (see Comm.Allgather).
func (r *Rank) Allgather(payload []byte) [][]byte { return r.World().Allgather(payload) }

// Gather collects one payload per rank at root. Root receives the
// rank-indexed slice; other ranks receive nil.
func (r *Rank) Gather(root int, payload []byte) [][]byte { return r.World().Gather(root, payload) }

// Alltoallv performs a personalized all-to-all exchange: send[j] goes to
// rank j, and the result's element j is what rank j sent to this rank. It
// is the redistribution primitive of the parallel counting sort.
//
// The buffers are handed over, not copied: the result's element j is rank
// j's send buffer itself, and the result is one read-only value shared with
// the machine. A receiver must not write to it, and a sender must not write
// to a send buffer once it has called Alltoallv. Each rank is still charged
// its full send and receive.
func (r *Rank) Alltoallv(send [][]byte) [][]byte {
	if len(send) != r.Size() {
		panic(fmt.Sprintf("cluster: Alltoallv needs %d buffers, got %d", r.Size(), len(send)))
	}
	res, maxClock := r.m.coll.arrive(r, "alltoallv", r.id, send, func(inputs []interface{}) interface{} {
		// recv[i][j] = what rank j sent to rank i, in one backing array.
		n := len(inputs)
		flat := make([][]byte, n*n)
		recv := make([][][]byte, n)
		for i := range recv {
			recv[i] = flat[i*n : (i+1)*n : (i+1)*n]
		}
		for j, in := range inputs {
			for i, b := range in.([][]byte) {
				recv[i][j] = b
			}
		}
		return recv
	})
	out := res.([][][]byte)[r.id]
	var sendTotal, recvTotal int
	for _, b := range send {
		sendTotal += len(b)
	}
	for _, b := range out {
		recvTotal += len(b)
	}
	r.syncTo("alltoallv", maxClock, r.m.cfg.Cost.alltoallvSecLevels(sendTotal, recvTotal, r.m.world.lv), int64(sendTotal), int64(recvTotal))
	return out
}
