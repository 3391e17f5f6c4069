package cluster

import (
	"fmt"

	"pepscale/internal/trace"
)

// worldPhaserID names the machine-wide collective rendezvous in traces.
const worldPhaserID = "world"

// phaser is the machine's reusable rendezvous point for collectives. Every
// rank must invoke the same sequence of collective operations (the standard
// MPI ordering requirement); each operation is one phaser round. The id
// names the phaser in traces; together with the round sequence number it
// lets trace analysis match one rendezvous across rank timelines.
type phaser struct {
	id    string
	n     int
	ranks []int // global rank ids of the members, ascending group order
	cur   *phRound
	mu    chMutex
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
}

func newPhaser(ranks []int, id string) *phaser {
	n := len(ranks)
	return &phaser{id: id, n: n, ranks: ranks, cur: newRound(n, 0), mu: newChMutex()}
}

func newRound(n int, seq int64) *phRound {
	return &phRound{
		seq:    seq,
		inputs: make([]interface{}, n),
		clocks: make([]float64, n),
		done:   make(chan struct{}),
	}
}

// arrive deposits this rank's input and blocks until all ranks of the round
// have arrived; the last arriver evaluates fn over the rank-indexed inputs.
// It returns fn's result and the maximum clock across participants.
func (p *phaser) arrive(r *Rank, idx int, input interface{}, fn func(inputs []interface{}) interface{}) (interface{}, float64) {
	r.faultPoint()
	p.mu.lock(r)
	rd := p.cur
	r.lastCollPh, r.lastCollSeq = p.id, rd.seq
	rd.inputs[idx] = input
	rd.clocks[idx] = r.clock
	rd.arrived++
	if rd.arrived == p.n {
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
		p.mu.unlock()
		close(rd.done)
	} else {
		p.mu.unlock()
		r.awaitRound(p, rd)
	}
	return rd.result, rd.maxClock
}

// awaitRound parks the rank until its collective round completes. Under a
// recoverable failure the rank unwinds (detection charge + failPanic) only
// once the stuck-rank analysis proves the rendezvous can never complete — a
// fact of the virtual execution, not of goroutine scheduling — so a faulted
// run's survivor timelines are deterministic. A fatal abort unwinds
// immediately.
func (r *Rank) awaitRound(p *phaser, rd *phRound) {
	defer r.m.clearBlocked(r.id)
	for {
		ch := r.m.notified()
		select {
		case <-rd.done:
			return
		default:
		}
		if r.m.hasFailure() {
			r.m.setBlocked(r.id, blockInfo{kind: blockColl, round: rd, members: p.ranks})
			if r.m.shouldUnwind(r.id) {
				r.interrupted()
			}
		}
		select {
		case <-rd.done:
		case <-ch:
		case <-r.m.abort:
			r.interrupted()
		}
	}
}

// syncTo advances the rank clock to the collective's start time (recording
// the skew as synchronization wait) and then charges the collective's own
// communication cost. The name identifies the collective operation in the
// trace; the rendezvous identity stamped by arrive ties the event to its
// peers' events of the same round.
func (r *Rank) syncTo(name string, maxClock, cost float64) {
	entry := r.clock
	var wait float64
	if w := maxClock - r.clock; w > 0 {
		wait = w
		r.Stats.SyncWaitSec += w
		r.clock = maxClock
	}
	r.clock += cost
	r.Stats.TotalCommSec += cost
	r.Stats.ResidualCommSec += cost
	if r.tl != nil {
		r.tl.Append(trace.Event{Kind: trace.KindCollective, Name: name, Peer: -1, PhID: r.lastCollPh, Seq: r.lastCollSeq, Start: entry, Dur: r.clock - entry, Delta: trace.StatDelta{SyncWaitSec: wait, TotalCommSec: cost, ResidualCommSec: cost}})
	}
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

// AllreduceFloat64 combines one float64 per rank under op.
func (r *Rank) AllreduceFloat64(op ReduceOp, v float64) float64 {
	return r.World().AllreduceFloat64(op, v)
}

// AllreduceInt64Vec element-wise combines equal-length vectors (the global
// count array of the parallel counting sort). Every rank receives a private
// copy of the result.
func (r *Rank) AllreduceInt64Vec(op ReduceOp, vec []int64) []int64 {
	res, maxClock := r.m.coll.arrive(r, r.id, vec, func(inputs []interface{}) interface{} {
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
	r.syncTo("allreduce-int64vec", maxClock, r.worldCollSec(8*len(vec)))
	shared := res.([]int64)
	out := make([]int64, len(shared))
	copy(out, shared)
	return out
}

// Bcast distributes root's payload to every rank (root receives its own
// data back unchanged).
func (r *Rank) Bcast(root int, data []byte) []byte { return r.World().Bcast(root, data) }

// Allgather collects one payload per rank; every rank receives the full
// rank-indexed slice (private copies).
func (r *Rank) Allgather(payload []byte) [][]byte { return r.World().Allgather(payload) }

// Gather collects one payload per rank at root. Root receives the
// rank-indexed slice; other ranks receive nil.
func (r *Rank) Gather(root int, payload []byte) [][]byte { return r.World().Gather(root, payload) }

// Alltoallv performs a personalized all-to-all exchange: send[j] goes to
// rank j, and the result's element j is what rank j sent to this rank. It
// is the redistribution primitive of the parallel counting sort.
func (r *Rank) Alltoallv(send [][]byte) [][]byte {
	if len(send) != r.Size() {
		panic(fmt.Sprintf("cluster: Alltoallv needs %d buffers, got %d", r.Size(), len(send)))
	}
	res, maxClock := r.m.coll.arrive(r, r.id, send, func(inputs []interface{}) interface{} {
		n := len(inputs)
		matrix := make([][][]byte, n)
		for i, in := range inputs {
			matrix[i] = in.([][]byte)
		}
		return matrix
	})
	matrix := res.([][][]byte)
	var sendTotal, recvTotal int
	for _, b := range send {
		sendTotal += len(b)
	}
	out := make([][]byte, r.Size())
	for j := 0; j < r.Size(); j++ {
		src := matrix[j][r.id]
		cp := make([]byte, len(src))
		copy(cp, src)
		out[j] = cp
		recvTotal += len(src)
	}
	r.syncTo("alltoallv", maxClock, r.m.cfg.Cost.alltoallvSecLevels(sendTotal, recvTotal, r.m.world.lv))
	r.Stats.BytesSent += int64(sendTotal)
	r.Stats.BytesReceived += int64(recvTotal)
	r.traceCollBytes(int64(sendTotal), int64(recvTotal))
	return out
}
