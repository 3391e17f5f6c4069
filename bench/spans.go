package main

import (
	"encoding/json"
	"io"
	"time"
)

// span is one timed interval of the traced pass. The benchmark drives the
// search from a single goroutine, so the span that caused a span is simply
// the innermost one still open when it began.
type span struct {
	Name   string
	Start  time.Duration // since the recorder's origin
	End    time.Duration
	Parent int // index into recorder.spans, -1 for a root
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is how the untraced searches run the same code path.
type recorder struct {
	workload string
	origin   time.Time
	spans    []span
	open     []int
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, origin: time.Now()}
}

// begin opens a span and returns its index for end.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Start: time.Since(r.origin), Parent: parent})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

// end closes the span begin returned; spans close innermost first.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = time.Since(r.origin)
	r.open = r.open[:len(r.open)-1]
}

// in runs f inside a span and returns the span's duration in seconds.
func (r *recorder) in(name string, f func()) float64 {
	id := r.begin(name)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	r.end(id)
	return d.Seconds()
}

// selfTimes returns, per span, its duration minus the part of that interval
// its direct children cover.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// chromeEvent is one complete ("X") event of the Chrome trace_event format,
// the form the repo's virtual-clock traces already use, so both open side
// by side in Perfetto. Times are host microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

func (r *recorder) writeChrome(w io.Writer) error {
	self := selfTimes(r.spans)
	events := make([]chromeEvent, len(r.spans))
	for i, s := range r.spans {
		events[i] = chromeEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]any{
				"workload": r.workload, "span": i, "parent": s.Parent,
				"self_us": float64(self[i].Nanoseconds()) / 1e3,
			},
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"displayTimeUnit": "ms", "traceEvents": events})
}
