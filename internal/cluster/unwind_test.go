package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"pepscale/internal/trace"
)

// detect is the detection timeout of every plan in this file. A variable,
// so expected clocks are summed in float64 exactly as the machine sums them.
var detect = 0.01

// unwindOutcome is everything a run must reproduce: clocks, Stats, trace
// bytes and each rank's outcome.
type unwindOutcome struct {
	clocks []float64
	stats  []Stats
	trace  []byte
	errs   map[int]error
	rep    *RunReport
}

func runUnwind(t *testing.T, cfg Config, body func(r *Rank) error) unwindOutcome {
	t.Helper()
	cfg.Trace = true
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := runWithin(t, m, body)
	o := unwindOutcome{errs: rep.RankErrs, rep: rep}
	for i := 0; i < cfg.Ranks; i++ {
		o.clocks = append(o.clocks, m.Rank(i).Time())
		o.stats = append(o.stats, m.Rank(i).Stats)
	}
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, &trace.Trace{Attempts: []*trace.Attempt{m.Trace("unwind")}}); err != nil {
		t.Fatal(err)
	}
	o.trace = buf.Bytes()
	return o
}

// runWithin runs body on m and fails the test if the run has not returned
// within ten seconds of host time.
func runWithin(t *testing.T, m *Machine, body func(r *Rank) error) *RunReport {
	t.Helper()
	done := make(chan *RunReport, 1)
	go func() { done <- m.RunWithReport(body) }()
	select {
	case rep := <-done:
		return rep
	case <-time.After(10 * time.Second):
		t.Fatal("run still parked after 10 s")
		return nil
	}
}

// TestUnwindByDependency holds each blocking primitive to its rule: it
// completes with its resource or fails once the rank or ranks it waits on
// have ended, with their (least) cause. Every row runs twice and must
// reproduce its clocks, Stats and trace bytes.
func TestUnwindByDependency(t *testing.T) {
	crash := func(ranks ...int) *FaultPlan {
		plan := &FaultPlan{CrashAtCall: map[int]int{}, DetectSec: detect}
		for _, r := range ranks {
			plan.CrashAtCall[r] = 1 // at the rank's first primitive
		}
		return plan
	}
	// survivor expects rank `rank` to end with ErrRankFailed naming
	// `failed` (-1: no error) at virtual time clock.
	type survivor struct {
		rank, failed int
		clock        float64
	}
	rows := []struct {
		name string
		cfg  Config
		body func(r *Rank) error
		want []survivor
	}{
		{"Recv from a dead rank", Config{Ranks: 2, Fault: crash(1)}, func(r *Rank) error {
			if r.ID() == 1 {
				r.Compute(0.5)
			}
			r.Recv(1 - r.ID())
			return nil
		}, []survivor{{0, 1, 0.5 + detect}}},

		{"Recv takes what a dead rank sent first", Config{Ranks: 2, Fault: &FaultPlan{CrashAtCall: map[int]int{1: 9}, DetectSec: detect}}, func(r *Rank) error {
			if r.ID() == 1 {
				r.Compute(0.2)
				for i := 0; i < 8; i++ {
					r.Send(0, "t", []byte{byte(i)})
				}
				r.Expose("w", nil) // call 9: the crash
				return nil
			}
			// The failed Wait orders rank 1's end before the receives.
			if _, err := r.Get(1, "w").Wait(); err == nil {
				return errors.New("wait on a crashed owner succeeded")
			}
			for i := 0; i < 8; i++ {
				if _, pay := r.Recv(1); pay[0] != byte(i) {
					return fmt.Errorf("message %d: got %d", i, pay[0])
				}
			}
			r.Recv(1)
			return nil
		}, []survivor{{0, 1, 0.2 + detect}}},

		{"RecvAny with every other rank ended", Config{Ranks: 3, Fault: crash(1, 2)}, func(r *Rank) error {
			switch r.ID() {
			case 0:
				r.RecvAny()
			case 1:
				r.Compute(0.3)
				r.Barrier()
			case 2:
				r.Compute(0.2)
				r.Barrier()
			}
			return nil
		}, []survivor{{0, 2, 0.2 + detect}}},

		{"AwaitAdmission with two dormant ranks", Config{Ranks: 3, Members: []int{0}, Fault: crash(0)}, func(r *Rank) error {
			if r.ID() == 0 {
				r.Compute(0.4)
				r.Send(1, "never", nil)
				return nil
			}
			r.AwaitAdmission()
			return nil
		}, []survivor{{1, 0, 0.4 + detect}, {2, 0, 0.4 + detect}}},

		{"AwaitAdmission whose admitter crashes at the admission", Config{Ranks: 4, Members: []int{0, 1}, Fault: &FaultPlan{CrashAtCall: map[int]int{0: 2}, DetectSec: detect}}, func(r *Rank) error {
			// An epoch boundary: the members agree, the lowest admits both
			// joiners and crashes at its first admission send (call 2), and
			// old and new members meet on their union.
			if r.ID() <= 1 {
				r.Compute(0.1 * float64(r.ID()+1))
				r.Group([]int{0, 1}).AllreduceFloat64(OpMax, 0)
				if r.ID() == 0 {
					r.Admit([]int{2, 3}, nil)
				}
			} else if _, ok := r.AwaitAdmission(); !ok {
				return nil
			}
			r.Group([]int{0, 1, 2, 3}).Barrier()
			return nil
		}, []survivor{{1, 0, 0.2 + detect}, {2, 0, 0.2 + detect}, {3, 0, 0.2 + detect}}},

		{"Wait on a dead owner", Config{Ranks: 2, Fault: crash(1)}, func(r *Rank) error {
			if r.ID() == 1 {
				r.Compute(0.25)
				r.Expose("w", []byte{1})
				return nil
			}
			_, err := r.Get(1, "w").Wait()
			return err
		}, []survivor{{0, 1, 0.25 + detect}}},

		{"Wait on an owner that unwound", Config{Ranks: 3, Fault: crash(2)}, func(r *Rank) error {
			switch r.ID() {
			case 0:
				_, err := r.Get(1, "w").Wait()
				return err
			case 1:
				r.Recv(2) // unwinds before it exposes
				r.Expose("w", []byte{1})
			case 2:
				r.Compute(0.1)
				r.Send(1, "never", nil)
			}
			return nil
		}, []survivor{{0, 2, 0.1 + detect}, {1, 2, 0.1 + detect}}},

		{"world collective with a gone member", Config{Ranks: 4, Fault: crash(3)}, func(r *Rank) error {
			r.Compute(0.05 * float64(r.ID()+1))
			r.Barrier()
			return nil
		}, []survivor{{0, 3, 0.2 + detect}, {1, 3, 0.2 + detect}, {2, 3, 0.2 + detect}}},

		{"Group collective created after its member ended", Config{Ranks: 3, Fault: crash(2)}, func(r *Rank) error {
			if r.ID() == 2 {
				r.Compute(0.15)
				r.Expose("w", []byte{2})
				return nil
			}
			// The failed Wait orders rank 2's end before the Group exists.
			if _, err := r.Get(2, "w").Wait(); err == nil {
				return errors.New("wait on a crashed owner succeeded")
			}
			r.Group([]int{0, 1, 2}).AllreduceInt64(OpSum, 1)
			return nil
		}, []survivor{{0, 2, 0.15 + detect}, {1, 2, 0.15 + detect}}},

		{"Send to a crashed receiver", Config{Ranks: 2, Fault: crash(1)}, func(r *Rank) error {
			if r.ID() == 1 {
				r.Compute(0.3)
				r.Recv(0)
				return nil
			}
			for i := 0; i < 3; i++ {
				r.Send(1, "t", []byte{byte(i)}) // never waits, ended receiver or not
			}
			return nil
		}, []survivor{{0, -1, 0}}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			a := runUnwind(t, row.cfg, row.body)
			b := runUnwind(t, row.cfg, row.body)
			if !reflect.DeepEqual(a.clocks, b.clocks) || !reflect.DeepEqual(a.stats, b.stats) || !bytes.Equal(a.trace, b.trace) {
				t.Fatalf("two runs differ:\nclocks %v vs %v", a.clocks, b.clocks)
			}
			if !a.rep.Recoverable() {
				t.Fatalf("report %+v, want a recoverable failure", a.rep)
			}
			for _, s := range row.want {
				err := a.errs[s.rank]
				var rf ErrRankFailed
				switch {
				case s.failed < 0 && err != nil:
					t.Errorf("rank %d: %v, want no error", s.rank, err)
				case s.failed >= 0 && (!errors.As(err, &rf) || rf.Rank != s.failed):
					t.Errorf("rank %d: %v, want ErrRankFailed{Rank: %d}", s.rank, err, s.failed)
				}
				if a.clocks[s.rank] != s.clock {
					t.Errorf("rank %d: clock %v, want %v", s.rank, a.clocks[s.rank], s.clock)
				}
			}
		})
	}
}

// TestTwoCrashesOneOutcome: rank 1 computes 1 s and crashes at its first
// primitive, rank 2 crashes at its first primitive at t = 0, and ranks 0 and
// 3 wait in a barrier. Whichever crash the host records first, the run
// reports the least failure (rank 2, t = 0), and the survivors' clocks
// carry its detection.
func TestTwoCrashesOneOutcome(t *testing.T) {
	plan := &FaultPlan{CrashAtCall: map[int]int{1: 1, 2: 1}, DetectSec: detect}
	outcomes := map[string]int{}
	for i := 0; i < 200; i++ {
		m, err := New(Config{Ranks: 4, Fault: plan})
		if err != nil {
			t.Fatal(err)
		}
		rep := runWithin(t, m, func(r *Rank) error {
			if r.ID() == 1 {
				r.Compute(1)
			}
			r.Barrier()
			return nil
		})
		outcomes[fmt.Sprintf("err=%v at=%v failed=%v clocks=%v %v", rep.Err, rep.FailureTimeSec, rep.FailedRanks, m.Rank(0).Time(), m.Rank(3).Time())]++
	}
	want := fmt.Sprintf("err=%v at=0 failed=[1 2] clocks=%v %v",
		ErrRankFailed{Rank: 2, Cause: errors.New("fault injection: crash at primitive call 1")}, detect, detect)
	if len(outcomes) != 1 || outcomes[want] != 200 {
		t.Fatalf("outcomes %v, want 200 × %q", outcomes, want)
	}
}

// TestPeerFinishedIsFatal: a receive or a collective whose peer completed
// without sending or arriving is a program error. It used to park forever;
// now the run ends with a fatal report naming the rank and the primitive.
func TestPeerFinishedIsFatal(t *testing.T) {
	for _, c := range []struct {
		name, want string
		body       func(r *Rank) error
	}{
		{"Recv", "rank 0: Recv(1): rank 1 finished without sending", func(r *Rank) error {
			if r.ID() == 0 {
				r.Recv(1)
			}
			return nil
		}},
		{"RecvAny", "rank 0: RecvAny: every other active rank finished without sending", func(r *Rank) error {
			if r.ID() == 0 {
				r.RecvAny()
			}
			return nil
		}},
		{"Barrier", "barrier: rank 1 finished without arriving", func(r *Rank) error {
			if r.ID() != 1 {
				r.Barrier()
			}
			return nil
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			rep := runWithin(t, newMachine(t, 3, freeNet()), c.body)
			if !rep.Fatal || !errors.Is(rep.Err, ErrPeerFinished) || !strings.Contains(rep.Err.Error(), c.want) {
				t.Fatalf("report %+v, want a fatal %q", rep, c.want)
			}
		})
	}
}
