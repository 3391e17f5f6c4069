package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// sampleTrace builds a small two-attempt trace exercising every field the
// Chrome exporter serializes.
func sampleTrace() *Trace {
	a0 := &Attempt{Label: "attempt 0: algo-a p=3", Ranks: 3, Events: [][]Event{
		{
			{Kind: KindCompute, Name: "compute", Phase: "load", Step: -1, Peer: -1, Start: 0, Dur: 0.5, Delta: StatDelta{ComputeSec: 0.5}},
			{Kind: KindSend, Name: "ring", Phase: "scan", Step: 0, Peer: 1, Bytes: 64, Start: 0.5, Dur: 0.001, Delta: StatDelta{TotalCommSec: 0.001, BytesSent: 64, Messages: 1}},
			{Kind: KindCollective, Name: "barrier", Phase: "scan", Step: 0, Peer: -1, PhID: "world", Seq: 2, Start: 0.501, Dur: 0.3, Delta: StatDelta{SyncWaitSec: 0.29, TotalCommSec: 0.01, ResidualCommSec: 0.01}},
		},
		{
			{Kind: KindCompute, Name: "compute", Phase: "load", Step: -1, Peer: -1, Start: 0, Dur: 0.78, Delta: StatDelta{ComputeSec: 0.78}},
			{Kind: KindRecv, Name: "ring", Phase: "scan", Step: 0, Peer: 0, Bytes: 64, Start: 0.78, Dur: 0.002, Delta: StatDelta{TotalCommSec: 0.002, ResidualCommSec: 0.001, SyncWaitSec: 0.001, BytesReceived: 64}},
			{Kind: KindCollective, Name: "barrier", Phase: "scan", Step: 0, Peer: -1, PhID: "world", Seq: 2, Start: 0.782, Dur: 0.019, Delta: StatDelta{TotalCommSec: 0.01, ResidualCommSec: 0.01}},
		},
		{
			{Kind: KindGetIssue, Name: "win", Phase: "scan", Step: 1, Peer: 0, Start: 0.1, Delta: StatDelta{Messages: 1}},
			{Kind: KindGetWait, Name: "win", Phase: "scan", Step: 1, Peer: 0, Bytes: 4096, Note: "blocking", Start: 0.1, Dur: 0.4, Delta: StatDelta{TotalCommSec: 0.4, ResidualCommSec: 0.4, BytesReceived: 4096, RMABytesReceived: 4096}},
			{Kind: KindCollective, Name: "barrier", Phase: "scan", Step: 1, Peer: -1, PhID: "world", Seq: 2, Start: 0.5, Dur: 0.31, Delta: StatDelta{SyncWaitSec: 0.3, TotalCommSec: 0.01, ResidualCommSec: 0.01}},
		},
	}}
	a1 := &Attempt{Label: "attempt 1: retry", Ranks: 2, Events: [][]Event{
		{
			{Kind: KindCrash, Name: "crash", Step: -1, Peer: -1, Note: "fault injection: crash at primitive call 3", Start: 0.25},
		},
		{
			{Kind: KindDetect, Name: "fault-detect", Step: -1, Peer: 0, Start: 0.3, Dur: 0.05, Delta: StatDelta{SyncWaitSec: 0.05}},
			{Kind: KindMark, Name: "restore", Phase: "load", Step: -1, Peer: -1, Note: "group 1 resumes at step 2", Start: 0.4},
		},
	}}
	return &Trace{Attempts: []*Attempt{a0, a1}}
}

// exportedArgs writes tr and decodes the args payload of every event record
// of the export, in file order.
func exportedArgs(t *testing.T, tr *Trace) []eventArgs {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("export is not JSON: %v", err)
	}
	var out []eventArgs
	for _, ce := range file.TraceEvents {
		if ce.Ph == "M" {
			continue
		}
		var ea eventArgs
		if err := json.Unmarshal(ce.Args, &ea); err != nil {
			t.Fatal(err)
		}
		out = append(out, ea)
	}
	return out
}

// TestChromeRoundTrip: every event reaches the export, attempt by attempt
// and rank by rank, with all of its fields in its args.
func TestChromeRoundTrip(t *testing.T) {
	orig := sampleTrace()
	var want []eventArgs
	for _, a := range orig.Attempts {
		for _, evs := range a.Events {
			for _, ev := range evs {
				want = append(want, chromeArgs(ev))
			}
		}
	}
	if got := exportedArgs(t, orig); !reflect.DeepEqual(got, want) {
		t.Fatalf("exported args mismatch:\n got: %+v\nwant: %+v", got, want)
	}
}

func TestChromeDeterministicBytes(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteChrome(&a, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(&b, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two exports of the same trace differ")
	}
}

func TestChromeExactFloatRoundTrip(t *testing.T) {
	// Values with no short decimal representation must still round-trip
	// exactly (encoding/json uses shortest-form float formatting, which is
	// lossless for float64).
	vals := []float64{1.0 / 3.0, math.Pi, 1e-300, 4503599627370497, 0.1 + 0.2}
	tr := &Trace{Attempts: []*Attempt{{Label: "floats", Ranks: 1, Events: [][]Event{{}}}}}
	for _, v := range vals {
		tr.Attempts[0].Events[0] = append(tr.Attempts[0].Events[0],
			Event{Kind: KindCompute, Name: "c", Step: -1, Peer: -1, Start: v, Dur: v, Delta: StatDelta{ComputeSec: v}})
	}
	got := exportedArgs(t, tr)
	for i, v := range vals {
		ea := got[i]
		if ea.StartSec != v || ea.DurSec != v || ea.ComputeSec != v {
			t.Errorf("value %d: %v exported as (%v, %v, %v)", i, v, ea.StartSec, ea.DurSec, ea.ComputeSec)
		}
	}
}

func TestValidate(t *testing.T) {
	if err := Validate(sampleTrace()); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
	if err := Validate(nil); err == nil {
		t.Error("nil trace accepted")
	}
	bad := sampleTrace()
	bad.Attempts[0].Events[0][1].Peer = 17
	if err := Validate(bad); err == nil {
		t.Error("out-of-range peer accepted")
	}
	bad2 := sampleTrace()
	bad2.Attempts[0].Ranks = 1
	if err := Validate(bad2); err == nil {
		t.Error("more timelines than ranks accepted")
	}
	bad3 := sampleTrace()
	bad3.Attempts[0].Events[0][0].Dur = math.NaN()
	if err := Validate(bad3); err == nil {
		t.Error("NaN duration accepted")
	}
}

// TestKindStringRoundTrip: each kind's export name is its own, so the name
// identifies the kind.
func TestKindStringRoundTrip(t *testing.T) {
	seen := map[string]Kind{}
	for k := KindCompute; k <= KindIdle; k++ {
		s := k.String()
		if s == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
		if other, dup := seen[s]; dup {
			t.Errorf("kinds %d and %d share the name %q", other, k, s)
		}
		seen[s] = k
	}
	if Kind(200).String() != "unknown" {
		t.Error("out-of-range kind should stringify to unknown")
	}
}

func TestRecorderLifecycle(t *testing.T) {
	rec := NewRecorder(2)
	l := rec.Rank(0)
	l.SetPhase("load")
	l.Append(Event{Kind: KindCompute, Peer: -1, Dur: 1, Delta: StatDelta{ComputeSec: 1}})
	l.SetPhase("scan")
	l.SetStep(3)
	l.Append(Event{Kind: KindCollective, Name: "barrier", Peer: -1, Bytes: 42})
	if l.Len() != 2 {
		t.Fatalf("Len = %d", l.Len())
	}
	if first := l.events[0]; first.Phase != "load" || first.Step != -1 {
		t.Errorf("first event tags = %q/%d", first.Phase, first.Step)
	}
	if second := l.events[1]; second.Bytes != 42 || second.Phase != "scan" || second.Step != 3 {
		t.Errorf("second event = %+v", second)
	}

	att := rec.Snapshot("snap")
	if att.Label != "snap" || att.Ranks != 2 {
		t.Fatalf("attempt header = %q/%d", att.Label, att.Ranks)
	}
	if len(att.Events[0]) != 2 || att.Events[1] != nil {
		t.Fatalf("snapshot events = %d/%v", len(att.Events[0]), att.Events[1])
	}
	// The snapshot must be isolated from later appends.
	l.Append(Event{Kind: KindCompute, Peer: -1})
	if len(att.Events[0]) != 2 {
		t.Error("snapshot aliases the live log")
	}

	rec.Reset()
	if rec.Rank(0).Len() != 0 {
		t.Error("Reset left events")
	}
	if empty := rec.Rank(0); empty.phase != "" || empty.step != -1 {
		t.Errorf("Reset left tags %q/%d", empty.phase, empty.step)
	}
}

func TestStatDelta(t *testing.T) {
	var d StatDelta
	if !d.IsZero() {
		t.Error("zero delta not IsZero")
	}
	d.Add(StatDelta{ComputeSec: 1, BytesSent: 2})
	d.Add(StatDelta{ComputeSec: 0.5, Messages: 3, RMAFailures: 1})
	want := StatDelta{ComputeSec: 1.5, BytesSent: 2, Messages: 3, RMAFailures: 1}
	if d != want {
		t.Errorf("Add = %+v, want %+v", d, want)
	}
	if d.IsZero() {
		t.Error("non-zero delta IsZero")
	}
}

func TestAnalyzePasses(t *testing.T) {
	a := sampleTrace().Attempts[0]

	if got, want := a.Makespan(), 0.81; math.Abs(got-want) > 1e-12 {
		t.Errorf("Makespan = %v, want %v", got, want)
	}

	totals := a.RankTotals()
	if totals[0].ComputeSec != 0.5 || totals[0].BytesSent != 64 {
		t.Errorf("rank 0 totals = %+v", totals[0])
	}
	if totals[2].RMABytesReceived != 4096 || totals[2].Messages != 1 {
		t.Errorf("rank 2 totals = %+v", totals[2])
	}

	prs := a.PhaseRollups()
	if len(prs) != 2 || prs[0].Phase != "load" || prs[1].Phase != "scan" {
		t.Fatalf("phase order = %+v", prs)
	}
	if prs[0].Events != 2 || prs[0].Delta.ComputeSec != 0.5+0.78 {
		t.Errorf("load rollup = %+v", prs[0])
	}
	if prs[1].Events != 7 {
		t.Errorf("scan rollup events = %d", prs[1].Events)
	}

	steps := a.StepStats()
	if len(steps) != 2 || steps[0].Step != 0 || steps[1].Step != 1 {
		t.Fatalf("steps = %+v", steps)
	}
	if steps[0].Participants != 2 || steps[1].Participants != 1 {
		t.Errorf("participants = %d/%d", steps[0].Participants, steps[1].Participants)
	}
	// No compute in either step: skew degenerates to 1.
	if steps[0].Skew() != 1 {
		t.Errorf("skew = %v", steps[0].Skew())
	}

	skewed := StepStat{MaxComputeSec: 3, MeanComputeSec: 2}
	if skewed.Skew() != 1.5 {
		t.Errorf("Skew = %v", skewed.Skew())
	}
	onlyMax := StepStat{MaxComputeSec: 3}
	if !math.IsInf(onlyMax.Skew(), 1) {
		t.Errorf("Skew with zero mean = %v", onlyMax.Skew())
	}

	slow := a.SlowestRanks(2)
	if len(slow) != 2 || slow[0].Rank != 1 || slow[0].ComputeSec != 0.78 {
		t.Errorf("SlowestRanks = %+v", slow)
	}
	if all := a.SlowestRanks(-1); len(all) != 3 {
		t.Errorf("SlowestRanks(-1) = %d entries", len(all))
	}
}

func TestCriticalPath(t *testing.T) {
	a := sampleTrace().Attempts[0]
	path := a.CriticalPath()
	if len(path) == 0 {
		t.Fatal("empty critical path")
	}
	// The makespan event is rank 2's barrier (ends at 0.81). Its skew delta
	// jumps the walk to the round's last arriver (rank 1, zero sync wait);
	// rank 1's waiting receive then jumps to its sender, rank 0 — the path
	// must therefore cross three rank timelines.
	last := path[len(path)-1]
	if last.Rank != 2 || last.Ev.Kind != KindCollective {
		t.Errorf("path end = rank %d %v", last.Rank, last.Ev.Kind)
	}
	onPath := map[int]bool{}
	for _, seg := range path {
		onPath[seg.Rank] = true
	}
	if !onPath[0] || !onPath[1] || !onPath[2] {
		t.Errorf("critical path did not cross all rank timelines: %+v", path)
	}
	first := path[0]
	if first.Rank != 0 || first.Ev.Kind != KindCompute {
		t.Errorf("path start = rank %d %v, want rank 0 compute", first.Rank, first.Ev.Kind)
	}
	// Chronological ordering.
	for i := 1; i < len(path); i++ {
		if path[i].Ev.End() < path[i-1].Ev.Start {
			t.Errorf("path not chronological at %d", i)
		}
	}
	bd := PathBreakdown(path)
	if bd.ComputeSec == 0 {
		t.Error("path breakdown has no compute")
	}

	if got := (&Attempt{Ranks: 1, Events: [][]Event{nil}}).CriticalPath(); got != nil {
		t.Errorf("critical path of empty attempt = %+v", got)
	}
}

func TestWriteSummary(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSummary(&buf, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"attempt 0: algo-a p=3",
		"attempt 1: retry",
		"Per-phase rollup",
		"Per-step load imbalance",
		"Slowest ranks by compute:",
		"Critical path:",
		"load",
		"scan",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	if err := WriteSummary(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "empty") {
		t.Errorf("nil trace summary = %q", buf.String())
	}
}
