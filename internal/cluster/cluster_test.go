package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// freeNet is a cost model where communication is instantaneous, isolating
// data-movement correctness from clock modelling.
func freeNet() CostModel { return CostModel{} }

func newMachine(t *testing.T, p int, cm CostModel) *Machine {
	t.Helper()
	m, err := New(Config{Ranks: p, Cost: cm})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Ranks: 0}); err == nil {
		t.Error("expected error for 0 ranks")
	}
	if _, err := New(Config{Ranks: -2}); err == nil {
		t.Error("expected error for negative ranks")
	}
}

func TestComputeAdvancesClock(t *testing.T) {
	m := newMachine(t, 1, freeNet())
	err := m.Run(func(r *Rank) error {
		r.Compute(1.5)
		r.Compute(-3) // negative clamps to 0
		if r.Time() != 1.5 {
			return fmt.Errorf("clock = %v", r.Time())
		}
		if r.Stats.ComputeSec != 1.5 {
			return fmt.Errorf("compute stat = %v", r.Stats.ComputeSec)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.MaxTime() != 1.5 {
		t.Errorf("MaxTime = %v", m.MaxTime())
	}
}

func TestSendRecvDataAndTiming(t *testing.T) {
	cm := CostModel{LatencySec: 0.001, BytesPerSec: 1000}
	m := newMachine(t, 2, cm)
	err := m.Run(func(r *Rank) error {
		if r.ID() == 0 {
			r.Compute(1.0)
			r.Send(1, "data", []byte("hello"))
			return nil
		}
		tag, payload := r.Recv(0)
		if tag != "data" || string(payload) != "hello" {
			return fmt.Errorf("got %q %q", tag, payload)
		}
		// Arrival: sender clock (1.0 + send overhead 0) + λ + 5B/1000Bps.
		want := 1.0 + 0.001 + 0.005
		if math.Abs(r.Time()-want) > 1e-12 {
			return fmt.Errorf("receiver clock %v, want %v", r.Time(), want)
		}
		if r.Stats.BytesReceived != 5 {
			return fmt.Errorf("bytes received %d", r.Stats.BytesReceived)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rank(0).Stats.BytesSent != 5 {
		t.Error("sender byte accounting")
	}
}

func TestRecvDoesNotRewindClock(t *testing.T) {
	m := newMachine(t, 2, freeNet())
	err := m.Run(func(r *Rank) error {
		if r.ID() == 0 {
			r.Send(1, "x", []byte("a"))
			return nil
		}
		r.Compute(5)
		r.Recv(0)
		if r.Time() != 5 {
			return fmt.Errorf("clock rewound to %v", r.Time())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvFiltersBySender(t *testing.T) {
	m := newMachine(t, 3, freeNet())
	err := m.Run(func(r *Rank) error {
		switch r.ID() {
		case 0:
			r.Send(2, "from0", []byte("zero"))
		case 1:
			r.Send(2, "from1", []byte("one"))
		case 2:
			// Ask for rank 1's message first even if 0's arrives first.
			tag, payload := r.Recv(1)
			if tag != "from1" || string(payload) != "one" {
				return fmt.Errorf("Recv(1) got %q %q", tag, payload)
			}
			tag, _ = r.Recv(0)
			if tag != "from0" {
				return fmt.Errorf("Recv(0) got %q", tag)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvAny(t *testing.T) {
	m := newMachine(t, 4, freeNet())
	var got int32
	err := m.Run(func(r *Rank) error {
		if r.ID() == 0 {
			seen := map[int]bool{}
			for i := 0; i < 3; i++ {
				from, tag, _ := r.RecvAny()
				if tag != "w" {
					return fmt.Errorf("tag %q", tag)
				}
				if seen[from] {
					return fmt.Errorf("duplicate sender %d", from)
				}
				seen[from] = true
				atomic.AddInt32(&got, 1)
			}
			return nil
		}
		r.Send(0, "w", []byte{byte(r.ID())})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Errorf("received %d messages", got)
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	m := newMachine(t, 4, freeNet())
	err := m.Run(func(r *Rank) error {
		r.Compute(float64(r.ID()))
		r.Barrier()
		if r.Time() < 3 {
			return fmt.Errorf("rank %d clock %v below barrier max", r.ID(), r.Time())
		}
		if r.ID() == 0 && r.Stats.SyncWaitSec < 2.999 {
			return fmt.Errorf("rank 0 sync wait %v", r.Stats.SyncWaitSec)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceScalars(t *testing.T) {
	m := newMachine(t, 5, freeNet())
	err := m.Run(func(r *Rank) error {
		v := int64(r.ID() + 1)
		if got := r.AllreduceInt64(OpSum, v); got != 15 {
			return fmt.Errorf("sum = %d", got)
		}
		if got := r.AllreduceInt64(OpMax, v); got != 5 {
			return fmt.Errorf("max = %d", got)
		}
		if got := r.AllreduceInt64(OpMin, v); got != 1 {
			return fmt.Errorf("min = %d", got)
		}
		f := float64(r.ID())
		if got := r.World().AllreduceFloat64(OpMax, f); got != 4 {
			return fmt.Errorf("fmax = %v", got)
		}
		if got := r.World().AllreduceFloat64(OpSum, f); got != 10 {
			return fmt.Errorf("fsum = %v", got)
		}
		if got := r.World().AllreduceFloat64(OpMin, f); got != 0 {
			return fmt.Errorf("fmin = %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceVec(t *testing.T) {
	const p = 4
	m := newMachine(t, p, freeNet())
	var backing [p]*int64 // &got[0] as rank i received it
	err := m.Run(func(r *Rank) error {
		vec := []int64{int64(r.ID()), 1, int64(-r.ID())}
		got := r.AllreduceInt64Vec(OpSum, vec)
		want := []int64{6, 4, -6}
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("vec sum = %v", got)
		}
		// The result is one read-only value shared by every member, new
		// storage rather than any member's input: writing to one's own
		// input afterwards changes nobody's view.
		backing[r.ID()] = &got[0]
		vec[0] = 999
		got2 := r.AllreduceInt64Vec(OpMax, vec)
		if !reflect.DeepEqual(got2, []int64{999, 1, 0}) {
			return fmt.Errorf("vec max = %v", got2)
		}
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("rank %d: vec sum changed after the inputs did: %v", r.ID(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range backing {
		if b != backing[0] {
			t.Errorf("rank %d's vec sum has its own backing array, want rank 0's", i)
		}
	}
}

// TestGatherAtNonZeroRoot: a gather to a root other than rank 0 lands every
// member's payload at that root in rank order, and nothing elsewhere.
func TestGatherAtNonZeroRoot(t *testing.T) {
	m := newMachine(t, 4, freeNet())
	err := m.Run(func(r *Rank) error {
		got := r.World().Gather(2, []byte{byte('a' + r.ID())})
		if r.ID() != 2 {
			if got != nil {
				return fmt.Errorf("non-root rank %d got %q", r.ID(), got)
			}
			return nil
		}
		if string(bytes.Join(got, nil)) != "abcd" || len(got) != 4 {
			return fmt.Errorf("root got %q", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGatherAndAllgather(t *testing.T) {
	m := newMachine(t, 3, freeNet())
	var backing [3]*byte // &all[i][0] as rank i received it
	err := m.Run(func(r *Rank) error {
		payload := bytes.Repeat([]byte{byte('a' + r.ID())}, r.ID()+1)
		got := r.Gather(0, payload)
		if r.ID() == 0 {
			if len(got) != 3 || string(got[1]) != "bb" || string(got[2]) != "ccc" {
				return fmt.Errorf("gather = %q", got)
			}
		} else if got != nil {
			return fmt.Errorf("non-root received %q", got)
		}
		all := r.Allgather(payload)
		if len(all) != 3 || string(all[0]) != "a" || string(all[2]) != "ccc" {
			return fmt.Errorf("allgather = %q", all)
		}
		// The result is one read-only value shared by every member: a copy
		// of the payloads taken at the call, so writing to one's own payload
		// afterwards changes nobody's view.
		backing[r.ID()] = &all[0][0]
		payload[0] = 'X'
		r.Barrier()
		if string(all[0]) != "a" || string(all[1]) != "bb" || string(all[2]) != "ccc" {
			return fmt.Errorf("rank %d: allgather result changed after the payloads did: %q", r.ID(), all)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range backing {
		if p != backing[0] {
			t.Errorf("rank %d's allgather result has its own backing array, want rank 0's", i)
		}
	}
}

func TestAlltoallv(t *testing.T) {
	const p = 4
	m := newMachine(t, p, freeNet())
	err := m.Run(func(r *Rank) error {
		send := make([][]byte, p)
		for j := 0; j < p; j++ {
			send[j] = []byte(fmt.Sprintf("%d->%d", r.ID(), j))
		}
		recv := r.Alltoallv(send)
		for j := 0; j < p; j++ {
			want := fmt.Sprintf("%d->%d", j, r.ID())
			if string(recv[j]) != want {
				return fmt.Errorf("recv[%d] = %q, want %q", j, recv[j], want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAlltoallvHandsBuffersOver pins Alltoallv's contract: a receiver reads
// the sender's buffer itself, not a copy (so a sender must not write to a
// send buffer once it has called Alltoallv), and each rank is still charged
// every byte it sends and receives.
func TestAlltoallvHandsBuffersOver(t *testing.T) {
	const p = 3
	m := newMachine(t, p, freeNet())
	var sent [p][p]*byte // &send[j][0] as rank i built it
	var got [p][p]*byte  // &recv[j][0] as rank i received it
	err := m.Run(func(r *Rank) error {
		send := make([][]byte, p)
		for j := range send {
			send[j] = bytes.Repeat([]byte{byte('a' + r.ID())}, 1+j)
			sent[r.ID()][j] = &send[j][0]
		}
		recv := r.Alltoallv(send)
		for j, b := range recv {
			if want := bytes.Repeat([]byte{byte('a' + j)}, 1+r.ID()); !bytes.Equal(b, want) {
				return fmt.Errorf("rank %d: recv[%d] = %q, want %q", r.ID(), j, b, want)
			}
			got[r.ID()][j] = &b[0]
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if got[i][j] != sent[j][i] {
				t.Errorf("rank %d received a copy of rank %d's buffer, not the buffer", i, j)
			}
		}
		// Rank i sends 1+2+3 bytes and receives p buffers of 1+i bytes.
		if st := m.Rank(i).Stats; st.BytesSent != 6 || st.BytesReceived != int64(p*(1+i)) {
			t.Errorf("rank %d: sent %d and received %d bytes, want 6 and %d", i, st.BytesSent, st.BytesReceived, p*(1+i))
		}
	}
}

// TestAlltoallvPermutation: the multiset of all payload bytes is preserved
// for random payload shapes.
func TestAlltoallvPermutation(t *testing.T) {
	f := func(seed uint8, p8 uint8) bool {
		p := int(p8%5) + 1
		m, err := New(Config{Ranks: p})
		if err != nil {
			return false
		}
		var sent, recvd [256]int64
		sentCh := make(chan [256]int64, p)
		recvCh := make(chan [256]int64, p)
		err = m.Run(func(r *Rank) error {
			send := make([][]byte, p)
			state := uint64(seed) + uint64(r.ID()*977) + 3
			for j := 0; j < p; j++ {
				n := int(state % 17)
				state = state*6364136223846793005 + 1
				buf := make([]byte, n)
				for k := range buf {
					buf[k] = byte(state >> 32)
					state = state*6364136223846793005 + 1
				}
				send[j] = buf
			}
			var localSent [256]int64
			for _, b := range send {
				for _, c := range b {
					localSent[c]++
				}
			}
			recv := r.Alltoallv(send)
			var localRecv [256]int64
			for _, b := range recv {
				for _, c := range b {
					localRecv[c]++
				}
			}
			sentCh <- localSent
			recvCh <- localRecv
			return nil
		})
		if err != nil {
			return false
		}
		for i := 0; i < p; i++ {
			s, r := <-sentCh, <-recvCh
			for c := 0; c < 256; c++ {
				sent[c] += s[c]
				recvd[c] += r[c]
			}
		}
		return sent == recvd
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestRMAGetData: Wait hands the reader the owner's bytes, capped, so an
// append to a result reallocates instead of writing into the window, and a
// result fetched before a re-exposure keeps its epoch's bytes. Under the race
// detector a write into a window, by a reader or by its owner, fails the Run
// and names the window.
func TestRMAGetData(t *testing.T) {
	m := newMachine(t, 3, freeNet())
	err := m.Run(func(r *Rank) error {
		r.Expose("blk", bytes.Repeat([]byte{byte(r.ID())}, 10))
		r.Barrier()
		next := (r.ID() + 1) % 3
		want := bytes.Repeat([]byte{byte(next)}, 10)
		got, err := r.Get(next, "blk").Wait()
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) || cap(got) != len(got) {
			return fmt.Errorf("rank %d got %v with capacity %d", r.ID(), got, cap(got))
		}
		_ = append(got, 99)
		again, err := r.Get(next, "blk").Wait()
		if err != nil {
			return err
		}
		if &again[0] != &got[0] || !bytes.Equal(again, want) {
			return fmt.Errorf("rank %d: a second get returned %v, not the owner's bytes", r.ID(), again)
		}

		// A re-exposure replaces the window; a result fetched before it
		// keeps its bytes, and a new get returns the new block.
		r.Barrier()
		r.Expose("blk", bytes.Repeat([]byte{byte(10 + r.ID())}, 6))
		r.Barrier()
		if !bytes.Equal(got, want) {
			return fmt.Errorf("re-exposure wrote through to an earlier result: %v", got)
		}
		if got, err = r.Get(next, "blk").Wait(); err != nil {
			return err
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{byte(10 + next)}, 6)) {
			return fmt.Errorf("rank %d got %v after the re-exposure", r.ID(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		body func(r *Rank) error
	}{
		{"a reader writes a result", func(r *Rank) error {
			r.Expose("blk", make([]byte, 4))
			r.Barrier()
			if r.ID() == 0 {
				got, err := r.Get(1, "blk").Wait()
				if err != nil {
					return err
				}
				got[2] = 1
			}
			return nil
		}},
		{"the owner writes before a re-exposure", func(r *Rank) error {
			if r.ID() == 1 {
				data := make([]byte, 4)
				r.Expose("blk", data)
				data[2] = 1
				r.Expose("blk", data)
			}
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if !checkWindows {
				t.Skip("the windows' read-only check runs under the race detector")
			}
			err := newMachine(t, 2, freeNet()).Run(tc.body)
			if err == nil || !strings.Contains(err.Error(), `rank 1's window "blk" was written`) {
				t.Fatalf("Run = %v, want a failure naming rank 1's window \"blk\"", err)
			}
		})
	}
}

// TestWaitAllocs is the transport step's allocation budget with tracing
// off: completing a get allocates nothing, and a whole Get+Wait step
// allocates the Pending and nothing else. Rank 1 is parked in the closing
// barrier while rank 0 measures.
func TestWaitAllocs(t *testing.T) {
	m := newMachine(t, 2, freeNet())
	err := m.Run(func(r *Rank) error {
		r.Expose("blk", make([]byte, 512))
		r.Barrier()
		if r.ID() == 0 {
			const runs = 100
			var werr error
			pend := make([]*Pending, runs+1) // AllocsPerRun warms up with one extra call
			for i := range pend {
				pend[i] = r.Get(1, "blk")
			}
			wait := testing.AllocsPerRun(runs, func() {
				p := pend[len(pend)-1]
				pend = pend[:len(pend)-1]
				if _, werr = p.Wait(); werr != nil {
					panic(werr)
				}
			})
			step := testing.AllocsPerRun(runs, func() {
				if _, werr = r.Get(1, "blk").Wait(); werr != nil {
					panic(werr)
				}
			})
			if wait != 0 || step > 1 {
				return fmt.Errorf("Wait %v allocs/op (want 0), Get+Wait %v (want ≤ 1)", wait, step)
			}
		}
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestResetDropsWindows: a window exposed before Reset is gone after it, for
// its owner and for every other rank.
func TestResetDropsWindows(t *testing.T) {
	m := newMachine(t, 2, freeNet())
	if err := m.Run(func(r *Rank) error {
		r.Expose("w", []byte{byte(r.ID())})
		r.Expose("only-first-run", []byte{7})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	m.Reset()
	err := m.Run(func(r *Rank) error {
		r.Expose("w", []byte{byte(10 + r.ID())})
		r.Barrier()
		if got, err := r.Get(1-r.ID(), "w").Wait(); err != nil || !bytes.Equal(got, []byte{byte(11 - r.ID())}) {
			return fmt.Errorf("rank %d read %v, %v after Reset and re-exposure", r.ID(), got, err)
		}
		// A stale window would hand back the first run's byte. Each rank asks
		// for its own; rank 0 also for rank 1's, which returns without
		// exposing it.
		for owner := r.ID(); owner < 2; owner++ {
			if got, err := r.Get(owner, "only-first-run").Wait(); !errors.Is(err, ErrNoWindow) {
				return fmt.Errorf("rank %d: stale window of rank %d survived Reset: %v, %v", r.ID(), owner, got, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRMAMasking(t *testing.T) {
	// Transfer takes 1s. With 2s of compute between Get and Wait, the
	// wait is fully masked; without compute the full second is residual.
	cm := CostModel{BytesPerSec: 10, LatencySec: 0}
	m := newMachine(t, 2, cm)
	err := m.Run(func(r *Rank) error {
		r.Expose("w", make([]byte, 10)) // 10 B / 10 Bps = 1 s (p=2 < RanksPerNode default 0→1)
		r.Barrier()
		other := 1 - r.ID()

		pend := r.Get(other, "w")
		r.Compute(2)
		before := r.Time()
		if _, err := pend.Wait(); err != nil {
			return err
		}
		if r.Time() != before {
			return fmt.Errorf("masked wait advanced clock by %v", r.Time()-before)
		}
		if r.Stats.ResidualCommSec != 0 {
			return fmt.Errorf("masked residual = %v", r.Stats.ResidualCommSec)
		}

		pend = r.Get(other, "w")
		before = r.Time()
		if _, err := pend.Wait(); err != nil {
			return err
		}
		if math.Abs(r.Time()-before-1) > 1e-9 {
			return fmt.Errorf("unmasked wait advanced %v, want 1", r.Time()-before)
		}
		if math.Abs(r.Stats.ResidualCommSec-1) > 1e-9 {
			return fmt.Errorf("unmasked residual = %v", r.Stats.ResidualCommSec)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRMABlockingFactor(t *testing.T) {
	cm := CostModel{BytesPerSec: 10, RMABytesPerSec: 10, BlockingRMAFactor: 3}
	m := newMachine(t, 2, cm)
	err := m.Run(func(r *Rank) error {
		r.Expose("w", make([]byte, 10))
		r.Barrier()
		t0 := r.Time()
		if _, err := r.Get(1-r.ID(), "w").Wait(); err != nil {
			return err
		}
		// Blocking get pays factor 3: 3 s instead of 1 s.
		if math.Abs(r.Time()-t0-3) > 1e-9 {
			return fmt.Errorf("blocking get took %v, want 3", r.Time()-t0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGetUnknownWindow(t *testing.T) {
	m := newMachine(t, 2, freeNet())
	err := m.Run(func(r *Rank) error {
		r.Barrier()
		if r.ID() == 0 {
			_, err := r.Get(1, "nope").Wait()
			if err == nil {
				return errors.New("expected error for unknown window")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWaitTwice(t *testing.T) {
	m := newMachine(t, 1, freeNet())
	err := m.Run(func(r *Rank) error {
		r.Expose("w", []byte{1})
		pend := r.Get(0, "w")
		if _, err := pend.Wait(); err != nil {
			return err
		}
		if _, err := pend.Wait(); err == nil {
			return errors.New("second Wait should fail")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	m := newMachine(t, 4, freeNet())
	err := m.Run(func(r *Rank) error {
		if r.ID() == 2 {
			return errors.New("boom")
		}
		r.Barrier() // would deadlock without abort handling
		return nil
	})
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("boom")) {
		t.Fatalf("err = %v", err)
	}
}

func TestRunRecoversPanics(t *testing.T) {
	m := newMachine(t, 3, freeNet())
	err := m.Run(func(r *Rank) error {
		if r.ID() == 0 {
			panic("kaboom")
		}
		r.Barrier()
		return nil
	})
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("kaboom")) {
		t.Fatalf("err = %v", err)
	}
}

func TestReset(t *testing.T) {
	m := newMachine(t, 2, freeNet())
	if err := m.Run(func(r *Rank) error {
		r.Compute(3)
		r.Expose("w", []byte{1})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	m.Reset()
	if m.MaxTime() != 0 {
		t.Error("clock survived Reset")
	}
	err := m.Run(func(r *Rank) error {
		r.Barrier()
		if r.ID() == 0 {
			if _, err := r.Get(1, "w").Wait(); err == nil {
				return errors.New("window survived Reset")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicClocks(t *testing.T) {
	// Same program → identical virtual times across repetitions,
	// regardless of goroutine scheduling.
	run := func() []float64 {
		m := newMachine(t, 8, GigabitCluster())
		err := m.Run(func(r *Rank) error {
			r.Compute(float64(r.ID()) * 0.001)
			r.Expose("w", make([]byte, 1000*(r.ID()+1)))
			r.Barrier()
			for s := 0; s < 8; s++ {
				pend := r.Get((r.ID()+s+1)%8, "w")
				r.Compute(0.002)
				if _, err := pend.Wait(); err != nil {
					return err
				}
			}
			r.AllreduceInt64(OpSum, 1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, 8)
		for i := range out {
			out[i] = m.Rank(i).Time()
		}
		return out
	}
	first := run()
	for trial := 0; trial < 5; trial++ {
		if got := run(); !reflect.DeepEqual(first, got) {
			t.Fatalf("clocks differ across runs:\n%v\n%v", first, got)
		}
	}
}

func TestNoteAllocHighWater(t *testing.T) {
	m := newMachine(t, 1, freeNet())
	err := m.Run(func(r *Rank) error {
		r.NoteAlloc(100)
		r.NoteAlloc(50)
		r.NoteFree(120)
		r.NoteAlloc(10)
		if r.Stats.MaxResidentBytes != 150 {
			return fmt.Errorf("high water = %d", r.Stats.MaxResidentBytes)
		}
		if r.Stats.ResidentBytes != 40 {
			return fmt.Errorf("resident = %d", r.Stats.ResidentBytes)
		}
		r.NoteFree(1000) // clamps at zero
		if r.Stats.ResidentBytes != 0 {
			return fmt.Errorf("resident after over-free = %d", r.Stats.ResidentBytes)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSingleRankCollectives(t *testing.T) {
	m := newMachine(t, 1, GigabitCluster())
	err := m.Run(func(r *Rank) error {
		r.Barrier()
		if got := r.AllreduceInt64(OpSum, 7); got != 7 {
			return fmt.Errorf("p=1 allreduce = %d", got)
		}
		out := r.Alltoallv([][]byte{[]byte("self")})
		if string(out[0]) != "self" {
			return fmt.Errorf("p=1 alltoallv = %q", out[0])
		}
		g := r.Gather(0, []byte("x"))
		if len(g) != 1 || string(g[0]) != "x" {
			return fmt.Errorf("p=1 gather = %q", g)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCostModelHelpers(t *testing.T) {
	cm := GigabitCluster()
	if TreeSteps(1) != 0 || TreeSteps(2) != 1 || TreeSteps(8) != 3 || TreeSteps(9) != 4 {
		t.Error("TreeSteps wrong")
	}
	// NIC sharing caps at RanksPerNode.
	if cm.XferSec(1e6, 8) != cm.XferSec(1e6, 128) {
		t.Error("sharing should saturate at RanksPerNode")
	}
	if cm.XferSec(1e6, 1) >= cm.XferSec(1e6, 8) {
		t.Error("more sharing must be slower")
	}
	if cm.IOSec(80e6) != 1 {
		t.Errorf("IOSec = %v", cm.IOSec(80e6))
	}
	free := CostModel{}
	if free.IOSec(100) != 0 {
		t.Error("zero model should have free IO")
	}
	if got := free.XferSec(100, 4); got != 0 {
		t.Errorf("free transfer = %v", got)
	}
}

func TestReduceOpString(t *testing.T) {
	if OpSum.String() != "sum" || OpMax.String() != "max" || OpMin.String() != "min" {
		t.Error("ReduceOp strings")
	}
	if ReduceOp(9).String() != "ReduceOp(9)" {
		t.Error("unknown ReduceOp string")
	}
}
