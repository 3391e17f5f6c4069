package serve

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"pepscale/internal/cluster"
)

// The Sinks of this package's tests run on the delivery goroutine: they
// record into variables the test reads after Drain or Close, report with
// t.Errorf, and call neither t.Fatal nor a Server method.

// TestDeliveryOrder: a Sink receives exactly the completions, in exactly
// the order, that a Sink-less server returns from Completions on the same
// schedule, with the same counters — at the default quantum, at one-block
// quanta, and under a crash mid-stream.
func TestDeliveryOrder(t *testing.T) {
	db, pool := testWorkload(t, 60, 12)
	arrivals := Schedule(steadySpec(), pool)
	cases := []struct {
		name string
		set  func(*Config)
	}{
		{"default quantum", func(*Config) {}},
		{"one-block quanta", func(c *Config) { c.StepsPerQuantum = 1 }},
		{"crash", func(c *Config) {
			c.StepsPerQuantum = 1
			c.Faults = []*cluster.FaultPlan{{CrashAtCall: map[int]int{0: 6}}}
		}},
	}
	for _, tc := range cases {
		run := func(sink func(Completion)) (*Server, []Rejection) {
			cfg := steadyCfg(db)
			tc.set(&cfg)
			cfg.Sink = sink
			s, err := New(cfg)
			if err != nil {
				t.Fatalf("%s: New: %v", tc.name, err)
			}
			rejs, err := s.Play(arrivals)
			if err != nil {
				t.Fatalf("%s: Play: %v", tc.name, err)
			}
			if err := s.Close(); err != nil {
				t.Fatalf("%s: Close: %v", tc.name, err)
			}
			return s, rejs
		}
		ref, refRejs := run(nil)
		var sunk []Completion
		got, gotRejs := run(func(c Completion) { sunk = append(sunk, c) })
		if len(ref.Completions()) == 0 {
			t.Fatalf("%s: the reference emitted nothing", tc.name)
		}
		if !reflect.DeepEqual(sunk, ref.Completions()) {
			t.Errorf("%s: the Sink received %d completions that differ from the %d of Completions()",
				tc.name, len(sunk), len(ref.Completions()))
		}
		if ref.Metrics() != got.Metrics() || !reflect.DeepEqual(refRejs, gotRejs) || ref.NowSec() != got.NowSec() {
			t.Errorf("%s: a Sink changed the service: %+v at %v vs %+v at %v",
				tc.name, got.Metrics(), got.NowSec(), ref.Metrics(), ref.NowSec())
		}
		if tc.name == "crash" && got.Metrics().Crashes == 0 {
			t.Errorf("%s: the fault plan never fired", tc.name)
		}
	}
}

// TestDeliveryDrainBarrier: when Drain returns, every completion emitted so
// far has returned from a Sink that is slower than the scan, so the count
// the Sink kept equals Metrics().Completed — after each of several drains
// mid-stream and after Close. The count is a plain variable: without the
// barrier's ordering the race detector reports the read.
func TestDeliveryDrainBarrier(t *testing.T) {
	db, pool := testWorkload(t, 60, 12)
	arrivals := Schedule(steadySpec(), pool)
	cfg := steadyCfg(db)
	sunk := 0
	cfg.Sink = func(Completion) {
		time.Sleep(200 * time.Microsecond)
		sunk++
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(arrivals); lo += len(arrivals)/4 + 1 {
		hi := min(lo+len(arrivals)/4+1, len(arrivals))
		if _, err := s.Play(arrivals[lo:hi]); err != nil {
			t.Fatalf("Play: %v", err)
		}
		if err := s.Drain(); err != nil {
			t.Fatalf("Drain: %v", err)
		}
		if c := s.Metrics().Completed; int64(sunk) != c {
			t.Fatalf("after Drain the Sink has returned %d completions of %d emitted", sunk, c)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if st := s.Metrics(); sunk == 0 || int64(sunk) != st.Completed || st.Completed != st.Admitted {
		t.Fatalf("after Close the Sink has %d completions: %+v", sunk, st)
	}
}

// waitGoroutines fails the test unless the process is back to base
// goroutines within a few seconds: a goroutine that signalled its exit may
// still be running its last instructions.
func waitGoroutines(t *testing.T, label string, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, want %d: the delivery goroutine outlived its server",
				label, runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// TestDeliveryGoroutines: a Server with a Sink leaves no goroutine behind
// after Close, after a New that fails (before and after its machine
// boots), and after a fatal error, whether or not Close follows it.
func TestDeliveryGoroutines(t *testing.T) {
	db, pool := testWorkload(t, 40, 6)
	arrivals := Schedule(steadySpec(), pool)
	base := runtime.NumGoroutine()
	noop := func(Completion) {}

	cfg := steadyCfg(db)
	cfg.Sink = noop
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Play(arrivals); err != nil {
		t.Fatalf("Play: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	waitGoroutines(t, "Close", base)
	if err := s.Submit(s.NowSec(), "acme", pool[0]); !errors.Is(err, errClosed) {
		t.Errorf("Submit after Close: err = %v, want %v", err, errClosed)
	}
	if err := s.Drain(); err != nil {
		t.Errorf("Drain after Close: %v", err)
	}

	dup := steadyCfg(db)
	dup.Sink = noop
	dup.Tenants = append(dup.Tenants, dup.Tenants[0])
	if _, err := New(dup); err == nil {
		t.Fatal("New accepted a duplicate tenant")
	}
	waitGoroutines(t, "New refusing its config", base)

	// Two ranks, one recovery allowed, and a crash in each of the first two
	// machine incarnations: at call 1 the boot inside New gives up, at
	// call 8 the service does so mid-stream.
	crashing := func(call int) Config {
		cfg := steadyCfg(db)
		cfg.Ranks, cfg.MaxRecoveries = 2, 1
		cfg.Faults = []*cluster.FaultPlan{{CrashAtCall: map[int]int{0: call}}, {CrashAtCall: map[int]int{1: 2}}}
		return cfg
	}
	lost := crashing(1)
	lost.Sink = noop
	if _, err := New(lost); err == nil {
		t.Fatal("New booted past more crashes than MaxRecoveries allows")
	}
	waitGoroutines(t, "New giving up its boot", base)

	// The delivery goroutine ends with the fatal error, before any Close,
	// having handed the Sink every completion emitted before it.
	for _, closeAfter := range []bool{false, true} {
		cfg := crashing(8)
		sunk := 0
		cfg.Sink = func(Completion) { sunk++ }
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, err = s.Play(arrivals)
		if err == nil {
			err = s.Drain()
		}
		if err == nil {
			t.Fatal("the service survived more crashes than MaxRecoveries allows")
		}
		if c := s.Metrics().Completed; c == 0 || int64(sunk) != c {
			t.Errorf("after the fatal error the Sink has %d of %d completions emitted", sunk, c)
		}
		if closeAfter {
			if cerr := s.Close(); cerr != err {
				t.Errorf("Close after the fatal error: %v, want %v", cerr, err)
			}
		}
		waitGoroutines(t, "fatal error", base)
	}
}

// TestDeliverySinkPanic: a Sink that panics, or exits its goroutine with
// runtime.Goexit as t.Fatal does, on the delivery goroutine crashes
// nothing: the next Submit, SubmitFrame, Drain and Close return a
// *SinkPanicError, and no goroutine survives.
func TestDeliverySinkPanic(t *testing.T) {
	db, pool := testWorkload(t, 40, 6)
	arrivals := Schedule(steadySpec(), pool)
	base := runtime.NumGoroutine()
	for _, tc := range []struct {
		name  string
		exit  func()
		value any
	}{
		{"panic", func() { panic("sink boom") }, "sink boom"},
		{"Goexit", runtime.Goexit, nil},
	} {
		cfg := steadyCfg(db)
		n := 0
		cfg.Sink = func(Completion) {
			if n++; n == 3 {
				tc.exit()
			}
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, err = s.Play(arrivals)
		if err == nil {
			err = s.Drain()
		}
		var spe *SinkPanicError
		if !errors.As(err, &spe) {
			t.Fatalf("%s: err = %v, want a *SinkPanicError", tc.name, err)
		}
		if spe.Value != tc.value {
			t.Errorf("%s: Value = %v, want %v", tc.name, spe.Value, tc.value)
		}
		if tc.value != nil && len(spe.Stack) == 0 {
			t.Errorf("%s: no stack recorded", tc.name)
		}
		frame := (&SubmitFrame{Tenant: "acme", AtSec: s.NowSec(), Spec: pool[0]}).Encode()
		for name, again := range map[string]error{
			"Submit":      s.Submit(s.NowSec(), "acme", pool[0]),
			"SubmitFrame": s.SubmitFrame(frame),
			"Drain":       s.Drain(),
			"Close":       s.Close(),
		} {
			if again != err {
				t.Errorf("%s: %s returned %v, want the Sink's %v", tc.name, name, again, err)
			}
		}
		if n != 3 {
			t.Errorf("%s: the Sink was called %d times, want none after its failure", tc.name, n)
		}
		waitGoroutines(t, tc.name, base)
	}
}
