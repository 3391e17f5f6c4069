package cluster

import (
	"fmt"
	"testing"

	"pepscale/internal/trace"
)

// foldDeltas sums every event delta of one rank's timeline in program
// order — the reconstruction the trace layer guarantees reproduces Stats
// bit-for-bit.
func foldDeltas(att *trace.Attempt, rank int) trace.StatDelta {
	var d trace.StatDelta
	for i := range att.Events[rank] {
		d.Add(att.Events[rank][i].Delta)
	}
	return d
}

// checkTraceMatchesStats asserts the folded trace of every rank equals the
// machine's Stats exactly (same floats added in the same order).
func checkTraceMatchesStats(t *testing.T, m *Machine, att *trace.Attempt) {
	t.Helper()
	if att == nil {
		t.Fatal("nil attempt from traced machine")
	}
	for i := 0; i < m.Ranks(); i++ {
		st := m.Rank(i).Stats
		d := foldDeltas(att, i)
		if d.ComputeSec != st.ComputeSec {
			t.Errorf("rank %d: trace ComputeSec %v != stats %v", i, d.ComputeSec, st.ComputeSec)
		}
		if d.TotalCommSec != st.TotalCommSec {
			t.Errorf("rank %d: trace TotalCommSec %v != stats %v", i, d.TotalCommSec, st.TotalCommSec)
		}
		if d.ResidualCommSec != st.ResidualCommSec {
			t.Errorf("rank %d: trace ResidualCommSec %v != stats %v", i, d.ResidualCommSec, st.ResidualCommSec)
		}
		if d.SyncWaitSec != st.SyncWaitSec {
			t.Errorf("rank %d: trace SyncWaitSec %v != stats %v", i, d.SyncWaitSec, st.SyncWaitSec)
		}
		if d.BytesSent != st.BytesSent {
			t.Errorf("rank %d: trace BytesSent %d != stats %d", i, d.BytesSent, st.BytesSent)
		}
		if d.BytesReceived != st.BytesReceived {
			t.Errorf("rank %d: trace BytesReceived %d != stats %d", i, d.BytesReceived, st.BytesReceived)
		}
		if d.RMABytesReceived != st.RMABytesReceived {
			t.Errorf("rank %d: trace RMABytesReceived %d != stats %d", i, d.RMABytesReceived, st.RMABytesReceived)
		}
		if d.Messages != st.Messages {
			t.Errorf("rank %d: trace Messages %d != stats %d", i, d.Messages, st.Messages)
		}
		if d.RMARetries != st.RMARetries {
			t.Errorf("rank %d: trace RMARetries %d != stats %d", i, d.RMARetries, st.RMARetries)
		}
		if d.RMAFailures != st.RMAFailures {
			t.Errorf("rank %d: trace RMAFailures %d != stats %d", i, d.RMAFailures, st.RMAFailures)
		}
	}
}

// exerciseAll touches every traced primitive: compute, point-to-point,
// all collectives, communicator splits, and masked + blocking one-sided
// transfers.
func exerciseAll(r *Rank) error {
	p, id := r.Size(), r.ID()
	r.SetPhase("work")
	r.Compute(0.001 * float64(id+1))
	r.Send((id+1)%p, "ring", make([]byte, 64+16*id))
	r.Recv((id - 1 + p) % p)
	r.Barrier()
	r.AllreduceInt64(OpSum, int64(id))
	r.AllreduceFloat64(OpMax, float64(id))
	r.AllreduceInt64Vec(OpSum, []int64{int64(id), 1})
	r.Bcast(0, []byte("payload"))
	r.Allgather(make([]byte, 10+id))
	r.Gather(0, make([]byte, 20+id))
	send := make([][]byte, p)
	for j := range send {
		send[j] = make([]byte, 8*(id+j+1))
	}
	r.Alltoallv(send)
	sub := r.World().Split(id%2, id)
	sub.Barrier()
	sub.AllreduceInt64(OpSum, 1)
	sub.Allgather([]byte{byte(id)})

	r.SetStep(0)
	r.Expose("win", make([]byte, 256*(id+1)))
	r.Barrier()
	// Masked get: issue, overlap compute, complete.
	pend := r.Get((id+1)%p, "win")
	r.Compute(0.002)
	if _, err := pend.Wait(); err != nil {
		return err
	}
	// Blocking get: no masking compute.
	if _, err := r.Get((id+2)%p, "win").Wait(); err != nil {
		return err
	}
	r.SetStep(-1)
	if r.Tracing() {
		r.Mark("done", fmt.Sprintf("rank %d finished", id))
	}
	r.ChargeComm(0.0005)
	r.Barrier()
	return nil
}

func TestTraceMatchesStats(t *testing.T) {
	m, err := New(Config{Ranks: 4, Cost: GigabitCluster(), Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(exerciseAll); err != nil {
		t.Fatal(err)
	}
	checkTraceMatchesStats(t, m, m.Trace("exercise"))
}

func TestTraceMatchesStatsUnderFaults(t *testing.T) {
	cm := GigabitCluster()
	plan := &FaultPlan{
		Seed:        7,
		CrashAtCall: map[int]int{2: 10},
		DropProb:    0.3,
		DetectSec:   0.01,
		Straggler:   map[int]float64{1: 2.5},
	}
	m, err := New(Config{Ranks: 4, Cost: cm, Fault: plan, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	rep := m.RunWithReport(exerciseAll)
	if rep.Err == nil {
		t.Fatal("expected a failure under the crash plan")
	}
	att := m.Trace("faulted")
	checkTraceMatchesStats(t, m, att)

	var crashes, detects int
	for i := range att.Events {
		for j := range att.Events[i] {
			switch att.Events[i][j].Kind {
			case trace.KindCrash:
				crashes++
			case trace.KindDetect:
				detects++
			}
		}
	}
	if crashes != 1 {
		t.Errorf("crash events = %d, want 1", crashes)
	}
	if detects == 0 {
		t.Error("no detection events on survivors")
	}
}

func TestTraceMatchesStatsWithRetries(t *testing.T) {
	cm := GigabitCluster()
	plan := &FaultPlan{Seed: 3, DropProb: 0.4, MaxRetries: 8}
	m, err := New(Config{Ranks: 4, Cost: cm, Fault: plan, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(exerciseAll); err != nil {
		t.Fatal(err)
	}
	att := m.Trace("retries")
	checkTraceMatchesStats(t, m, att)
	var retries int64
	for i := range att.Events {
		d := foldDeltas(att, i)
		retries += d.RMARetries
	}
	if retries == 0 {
		t.Error("drop plan produced no retries; plan too weak to exercise the retry path")
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	m := newMachine(t, 2, freeNet())
	err := m.Run(func(r *Rank) error {
		if r.Tracing() {
			return fmt.Errorf("rank %d: Tracing() true on an untraced machine", r.ID())
		}
		r.SetPhase("x")
		r.SetStep(3)
		r.Mark("noop", "")
		r.Compute(0.001)
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Trace("any") != nil {
		t.Error("Trace() non-nil on an untraced machine")
	}
}

// TestTraceDisabledNoAlloc pins the zero-overhead-when-disabled guarantee:
// the instrumented primitives must not allocate when the tracer is off.
func TestTraceDisabledNoAlloc(t *testing.T) {
	m := newMachine(t, 1, freeNet())
	err := m.Run(func(r *Rank) error {
		allocs := testing.AllocsPerRun(100, func() {
			r.Compute(0.0001)
			r.ChargeComm(0.0001)
			r.SetPhase("p")
			r.SetStep(1)
		})
		if allocs != 0 {
			return fmt.Errorf("disabled tracer: %v allocs/op in compute path, want 0", allocs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTraceReset(t *testing.T) {
	m, err := New(Config{Ranks: 2, Cost: CostModel{}, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	body := func(r *Rank) error {
		r.Compute(0.001)
		r.Barrier()
		return nil
	}
	if err := m.Run(body); err != nil {
		t.Fatal(err)
	}
	first := m.Trace("one")
	if first == nil || len(first.Events[0]) == 0 {
		t.Fatal("first run produced no events")
	}
	m.Reset()
	if got := m.Trace("empty"); got != nil && len(got.Events[0]) != 0 {
		t.Errorf("Reset left %d events on rank 0", len(got.Events[0]))
	}
	if err := m.Run(body); err != nil {
		t.Fatal(err)
	}
	second := m.Trace("two")
	if len(second.Events[0]) != len(first.Events[0]) {
		t.Errorf("re-run after Reset: %d events, first run had %d", len(second.Events[0]), len(first.Events[0]))
	}
}

// BenchmarkComputeTraceDisabled measures the disabled-tracer fast path of
// the hottest instrumented primitive (compare with the enabled variant).
func BenchmarkComputeTraceDisabled(b *testing.B) {
	m, err := New(Config{Ranks: 1, Cost: CostModel{}})
	if err != nil {
		b.Fatal(err)
	}
	_ = m.Run(func(r *Rank) error {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Compute(1e-9)
		}
		return nil
	})
}

func BenchmarkComputeTraceEnabled(b *testing.B) {
	m, err := New(Config{Ranks: 1, Cost: CostModel{}, Trace: true})
	if err != nil {
		b.Fatal(err)
	}
	_ = m.Run(func(r *Rank) error {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Compute(1e-9)
		}
		return nil
	})
}
