package cluster

import (
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
)

// scaleProgram is the microprogram used by the p=4096 scale tests and
// BenchmarkMachineScale: a mix of the machine's primitive families sized so
// a full run exercises the O(p) paths (rank ends, inboxes, collective
// rendezvous) without drowning in payload bytes.
func scaleProgram(r *Rank) error {
	p, id := r.Size(), r.ID()
	r.Expose("blk", make([]byte, 64))
	r.Barrier()
	r.Send((id+1)%p, "ring", make([]byte, 32))
	r.Recv((id - 1 + p) % p)
	r.AllreduceInt64(OpSum, int64(id))
	pend := r.Get((id+1)%p, "blk")
	r.Compute(1e-6 * float64(id%7+1))
	if _, err := pend.Wait(); err != nil {
		return err
	}
	r.Allgather([]byte{byte(id)})
	r.Barrier()
	return nil
}

// TestMachineScale4096 runs the machine at the target scale, clean and with
// an injected mid-program crash. The pre-refactor machine held p² transfer
// matrices and ran an O(p²) stuck-rank analysis per doomed query; at
// p=4096 that was ~270 MB and minutes of host time. Post-refactor both runs
// must complete comfortably inside the -short budget.
func TestMachineScale4096(t *testing.T) {
	const p = 4096
	m, err := New(Config{Ranks: p, Cost: TwoLevelCluster()})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(scaleProgram); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	sum := m.Rank(0).Stats
	if sum.BytesSent == 0 || sum.TotalCommSec <= 0 {
		t.Fatalf("rank 0 stats implausible: %+v", sum)
	}

	plan := &FaultPlan{Seed: 5, CrashAtCall: map[int]int{p / 2: 4}, DetectSec: 0.01}
	mf, err := New(Config{Ranks: p, Cost: TwoLevelCluster(), Fault: plan})
	if err != nil {
		t.Fatal(err)
	}
	rep := mf.RunWithReport(scaleProgram)
	if rep.Err == nil {
		t.Fatal("crash plan produced no failure")
	}
	if !rep.Recoverable() {
		t.Fatalf("crash not recoverable: %+v", rep.Err)
	}
	if !reflect.DeepEqual(rep.FailedRanks, []int{p / 2}) {
		t.Fatalf("failed ranks %v, want [%d]", rep.FailedRanks, p/2)
	}
}

// TestMachineScale4096NewAllocPerRank bounds what cluster.New allocates per
// rank at p=4096 (TotalAlloc delta): a per-rank structure sized by p, or a
// buffer preallocated for traffic that may never come, shows here first.
func TestMachineScale4096NewAllocPerRank(t *testing.T) {
	const p = 4096
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := New(Config{Ranks: p, Cost: TwoLevelCluster()})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(m)
	if perRank := float64(after.TotalAlloc-before.TotalAlloc) / p; perRank > 1024 {
		t.Fatalf("New allocates %.0f B per rank at p=%d, want ≤ 1 KiB", perRank, p)
	}
}

// TestMachineScaleDeterministic4096 pins run-to-run determinism of the
// survivor timelines at scale under a crash: each survivor unwinds from the
// primitive whose dependency ended, whatever order the host runs them in.
func TestMachineScaleDeterministic4096(t *testing.T) {
	if testing.Short() {
		t.Skip("second 4096-rank faulted pass; covered by TestMachineScale4096 in -short")
	}
	const p = 4096
	run := func() []float64 {
		plan := &FaultPlan{Seed: 5, CrashAtCall: map[int]int{p / 2: 4}, DetectSec: 0.01}
		m, err := New(Config{Ranks: p, Cost: TwoLevelCluster(), Fault: plan})
		if err != nil {
			t.Fatal(err)
		}
		if rep := m.RunWithReport(scaleProgram); rep.Err == nil {
			t.Fatal("no failure")
		}
		clocks := make([]float64, p)
		for i := 0; i < p; i++ {
			clocks[i] = m.Rank(i).Time()
		}
		return clocks
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatal("survivor clocks differ across runs at p=4096")
	}
}

// BenchmarkMachineScale measures one full machine run of the scale
// microprogram across the rank sweep, with and without fault-plan chaos
// (drops + a straggler, no crash, so every iteration completes).
func BenchmarkMachineScale(b *testing.B) {
	for _, p := range []int{256, 1024, 4096} {
		for _, chaos := range []bool{false, true} {
			name := "p=" + itoa(p) + "/chaos=" + map[bool]string{false: "off", true: "on"}[chaos]
			b.Run(name, func(b *testing.B) {
				var plan *FaultPlan
				if chaos {
					plan = &FaultPlan{Seed: 9, DropProb: 0.01, MaxRetries: 6, Straggler: map[int]float64{1: 1.5}}
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					m, err := New(Config{Ranks: p, Cost: TwoLevelCluster(), Fault: plan})
					if err != nil {
						b.Fatal(err)
					}
					if err := m.Run(scaleProgram); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTransportStep measures the steady-state step of the block-cycled
// transport at scale: per iteration every rank issues one Get to the next
// owner of its cycle and completes it, taking the window's bytes. It fails
// when a step costs more than one allocation (the Pending), so an O(p²)
// allocation cannot come back unnoticed; make scale-smoke runs it at
// -benchtime 1x.
//
// Only the steps are measured: ranks spin (never park, which could allocate)
// at a gate before and after them while the benchmark goroutine reads the
// allocation counter, and machine set-up and tear-down stay outside.
func BenchmarkTransportStep(b *testing.B) {
	const p = 1024
	b.Run("p=1024", func(b *testing.B) {
		m, err := New(Config{Ranks: p, Cost: TwoLevelCluster()})
		if err != nil {
			b.Fatal(err)
		}
		var warmed, stepped atomic.Int32
		var start, finish atomic.Bool
		spin := func(done func() bool) {
			for !done() {
				runtime.Gosched()
			}
		}
		runErr := make(chan error, 1)
		go func() {
			runErr <- m.Run(func(r *Rank) error {
				id := r.ID()
				r.Expose("blk", make([]byte, 680)) // scale_wide's mean block
				r.Barrier()
				_, err := r.Get((id+1)%p, "blk").Wait()
				warmed.Add(1)
				spin(start.Load)
				for i := 0; i < b.N && err == nil; i++ {
					_, err = r.Get((id+i+2)%p, "blk").Wait()
				}
				stepped.Add(1)
				spin(finish.Load)
				return err
			})
		}()
		spin(func() bool { return warmed.Load() == p })
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		start.Store(true)
		spin(func() bool { return stepped.Load() == p })
		b.StopTimer()
		runtime.ReadMemStats(&after)
		finish.Store(true)
		if err := <-runErr; err != nil {
			b.Fatal(err)
		}
		steps := float64(p) * float64(b.N)
		perStep := float64(after.Mallocs-before.Mallocs) / steps
		b.ReportMetric(perStep, "allocs/step")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/steps, "ns/step")
		if perStep > 1 {
			b.Fatalf("%.2f allocs per transport step, want ≤ 1 (the Pending)", perStep)
		}
	})
}

// itoa avoids pulling strconv into the benchmark name hot path. (Test-only.)
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
