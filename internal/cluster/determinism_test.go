package cluster

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
)

// randomProgram builds a deterministic pseudo-random rank program from a
// seed: a mix of compute, collectives, one-sided gets (masked and
// blocking), and point-to-point rounds. Every rank derives the same
// op schedule, so the program is collectively consistent.
func randomProgram(seed uint64, p int) func(r *Rank) error {
	type op struct {
		kind  int
		param int
	}
	state := seed | 1
	next := func(mod int) int {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return int(state % uint64(mod))
	}
	nops := next(12) + 3
	ops := make([]op, nops)
	for i := range ops {
		ops[i] = op{kind: next(6), param: next(900) + 10}
	}
	return func(r *Rank) error {
		r.Expose("w", make([]byte, 100*(r.ID()+1)))
		r.Barrier()
		for _, o := range ops {
			switch o.kind {
			case 0:
				r.Compute(float64(o.param) * 1e-5 * float64(r.ID()+1))
			case 1:
				r.AllreduceInt64(OpSum, int64(o.param+r.ID()))
			case 2: // masked get
				pend := r.Get((r.ID()+o.param)%r.Size(), "w")
				r.Compute(float64(o.param) * 1e-6)
				if _, err := pend.Wait(); err != nil {
					return err
				}
			case 3: // blocking get
				if _, err := r.Get((r.ID()+1)%r.Size(), "w").Wait(); err != nil {
					return err
				}
			case 4: // ring send/recv
				if r.Size() > 1 {
					r.Send((r.ID()+1)%r.Size(), "t", make([]byte, o.param))
					r.Recv((r.ID() + r.Size() - 1) % r.Size())
				}
			case 5:
				r.Allgather(make([]byte, o.param%64))
			}
		}
		r.Barrier()
		return nil
	}
}

// TestRandomProgramsDeterministic: arbitrary op schedules produce
// bit-identical per-rank virtual clocks and statistics across repeated
// real executions.
func TestRandomProgramsDeterministic(t *testing.T) {
	cm := GigabitCluster()
	f := func(seed uint64, p8 uint8) bool {
		p := int(p8%6) + 1
		prog := randomProgram(seed, p)
		run := func() ([]float64, []Stats) {
			m, err := New(Config{Ranks: p, Cost: cm})
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Run(prog); err != nil {
				t.Logf("run: %v", err)
				return nil, nil
			}
			clocks := make([]float64, p)
			stats := make([]Stats, p)
			for i := 0; i < p; i++ {
				clocks[i] = m.Rank(i).Time()
				stats[i] = m.Rank(i).Stats
			}
			return clocks, stats
		}
		c1, s1 := run()
		if c1 == nil {
			return false
		}
		for trial := 0; trial < 3; trial++ {
			c2, s2 := run()
			if !reflect.DeepEqual(c1, c2) {
				t.Logf("clocks diverged: seed=%d p=%d\n%v\n%v", seed, p, c1, c2)
				return false
			}
			if !reflect.DeepEqual(s1, s2) {
				t.Logf("stats diverged: seed=%d p=%d", seed, p)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if testing.Short() {
		cfg.MaxCount = 5
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestRandomProgramsMonotoneClocks: virtual clocks never decrease and all
// accounting stays non-negative under random schedules.
func TestRandomProgramsMonotoneClocks(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		p := int(seed%5) + 2
		m, err := New(Config{Ranks: p, Cost: GigabitCluster()})
		if err != nil {
			t.Fatal(err)
		}
		prog := randomProgram(seed*977, p)
		wrapped := func(r *Rank) error {
			last := r.Time()
			check := func() error {
				if r.Time() < last {
					return fmt.Errorf("clock went backwards: %v -> %v", last, r.Time())
				}
				last = r.Time()
				return nil
			}
			if err := prog(r); err != nil {
				return err
			}
			return check()
		}
		if err := m.Run(wrapped); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i := 0; i < p; i++ {
			st := m.Rank(i).Stats
			if st.ComputeSec < 0 || st.ResidualCommSec < 0 || st.SyncWaitSec < 0 || st.TotalCommSec < 0 {
				t.Errorf("seed %d rank %d: negative accounting %+v", seed, i, st)
			}
			if st.ResidualCommSec > st.TotalCommSec+1e-9 {
				t.Errorf("seed %d rank %d: residual %v exceeds total %v", seed, i, st.ResidualCommSec, st.TotalCommSec)
			}
		}
	}
}
