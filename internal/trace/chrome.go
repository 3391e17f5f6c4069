// Chrome trace_event JSON export.
//
// WriteChrome emits the JSON-object flavour of the Chrome tracing format
// ({"traceEvents": [...]}) that Perfetto and chrome://tracing load directly:
// one process per attempt, one thread per rank, "X" complete-duration slices
// for intervals and "i" instants for zero-duration markers, with ts/dur in
// microseconds of virtual time. Viewers only need ts/dur, but those are
// lossy (µs scaling); the full-precision seconds, the Stats deltas, and all
// tags ride in each event's args, and the export is byte-for-byte
// deterministic for a deterministic run.
package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// chromeEvent is one entry of the traceEvents array.
type chromeEvent struct {
	Name string          `json:"name"`
	Cat  string          `json:"cat,omitempty"`
	Ph   string          `json:"ph"`
	TS   float64         `json:"ts"`
	Dur  float64         `json:"dur,omitempty"`
	PID  int             `json:"pid"`
	TID  int             `json:"tid"`
	Args json.RawMessage `json:"args,omitempty"`
}

// metaArgs is the args payload of "M" metadata records.
type metaArgs struct {
	Name string `json:"name"`
}

// eventArgs carries the lossless event payload: exact virtual-clock seconds
// and the full Stats delta. Field presence is fixed (no omitempty on
// numerics) so the encoding of an event is a pure function of its values.
type eventArgs struct {
	Kind             string  `json:"kind"`
	Phase            string  `json:"phase,omitempty"`
	Step             int     `json:"step"`
	Peer             int     `json:"peer"`
	Bytes            int64   `json:"bytes"`
	PhID             string  `json:"phid,omitempty"`
	Seq              int64   `json:"seq"`
	Note             string  `json:"note,omitempty"`
	StartSec         float64 `json:"startSec"`
	DurSec           float64 `json:"durSec"`
	ComputeSec       float64 `json:"dComputeSec"`
	TotalCommSec     float64 `json:"dTotalCommSec"`
	ResidualCommSec  float64 `json:"dResidualCommSec"`
	SyncWaitSec      float64 `json:"dSyncWaitSec"`
	BytesSent        int64   `json:"dBytesSent"`
	BytesReceived    int64   `json:"dBytesReceived"`
	RMABytesReceived int64   `json:"dRMABytesReceived"`
	Messages         int64   `json:"dMessages"`
	RMARetries       int64   `json:"dRMARetries"`
	RMAFailures      int64   `json:"dRMAFailures"`
}

// instantKinds maps the kinds exported as "i" (instant) records; everything
// else is an "X" (complete) slice.
func instantPh(k Kind) bool {
	switch k {
	case KindGetIssue, KindExpose, KindCrash, KindMark:
		return true
	}
	return false
}

// WriteChrome writes t in Chrome trace_event JSON-object format.
func WriteChrome(w io.Writer, t *Trace) error {
	var buf bytes.Buffer
	buf.WriteString("{\"traceEvents\":[")
	first := true
	emit := func(ce chromeEvent) error {
		b, err := json.Marshal(ce)
		if err != nil {
			return err
		}
		if !first {
			buf.WriteString(",\n")
		} else {
			buf.WriteString("\n")
			first = false
		}
		buf.Write(b)
		return nil
	}
	for pid, a := range t.Attempts {
		margs, err := json.Marshal(metaArgs{Name: a.Label})
		if err != nil {
			return err
		}
		if err := emit(chromeEvent{Name: "process_name", Ph: "M", PID: pid, Args: margs}); err != nil {
			return err
		}
		for tid := 0; tid < a.Ranks; tid++ {
			targs, err := json.Marshal(metaArgs{Name: fmt.Sprintf("rank %d", tid)})
			if err != nil {
				return err
			}
			if err := emit(chromeEvent{Name: "thread_name", Ph: "M", PID: pid, TID: tid, Args: targs}); err != nil {
				return err
			}
		}
		for tid, evs := range a.Events {
			for _, ev := range evs {
				args, err := json.Marshal(chromeArgs(ev))
				if err != nil {
					return err
				}
				ce := chromeEvent{
					Name: ev.Name,
					Cat:  ev.Kind.String(),
					Ph:   "X",
					TS:   ev.Start * 1e6,
					PID:  pid,
					TID:  tid,
					Args: args,
				}
				if instantPh(ev.Kind) {
					ce.Ph = "i"
				} else {
					ce.Dur = ev.Dur * 1e6
				}
				if err := emit(ce); err != nil {
					return err
				}
			}
		}
	}
	buf.WriteString("\n]}\n")
	_, err := w.Write(buf.Bytes())
	return err
}

// chromeArgs is ev's lossless args payload.
func chromeArgs(ev Event) eventArgs {
	return eventArgs{
		Kind:             ev.Kind.String(),
		Phase:            ev.Phase,
		Step:             ev.Step,
		Peer:             ev.Peer,
		Bytes:            ev.Bytes,
		PhID:             ev.PhID,
		Seq:              ev.Seq,
		Note:             ev.Note,
		StartSec:         ev.Start,
		DurSec:           ev.Dur,
		ComputeSec:       ev.Delta.ComputeSec,
		TotalCommSec:     ev.Delta.TotalCommSec,
		ResidualCommSec:  ev.Delta.ResidualCommSec,
		SyncWaitSec:      ev.Delta.SyncWaitSec,
		BytesSent:        ev.Delta.BytesSent,
		BytesReceived:    ev.Delta.BytesReceived,
		RMABytesReceived: ev.Delta.RMABytesReceived,
		Messages:         ev.Delta.Messages,
		RMARetries:       ev.Delta.RMARetries,
		RMAFailures:      ev.Delta.RMAFailures,
	}
}

// checkEvent validates one event's invariants.
func checkEvent(ev Event) error {
	for _, v := range []float64{ev.Start, ev.Dur, ev.Delta.ComputeSec, ev.Delta.TotalCommSec, ev.Delta.ResidualCommSec, ev.Delta.SyncWaitSec} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("non-finite time %v", v)
		}
	}
	if ev.Dur < 0 {
		return fmt.Errorf("negative duration %v", ev.Dur)
	}
	if ev.Step < -1 {
		return fmt.Errorf("step %d < -1", ev.Step)
	}
	if ev.Peer < -1 {
		return fmt.Errorf("peer %d < -1", ev.Peer)
	}
	return nil
}

// Validate checks the structural invariants WriteChrome guarantees: per
// attempt, Events has exactly Ranks timelines, every event passes
// checkEvent, and peers reference ranks of the attempt.
func Validate(t *Trace) error {
	if t == nil {
		return fmt.Errorf("trace: nil trace")
	}
	for ai, a := range t.Attempts {
		if len(a.Events) > a.Ranks {
			return fmt.Errorf("trace: attempt %d: %d timelines for %d ranks", ai, len(a.Events), a.Ranks)
		}
		for rank, evs := range a.Events {
			for i, ev := range evs {
				if err := checkEvent(ev); err != nil {
					return fmt.Errorf("trace: attempt %d rank %d event %d: %w", ai, rank, i, err)
				}
				if ev.Peer >= a.Ranks {
					return fmt.Errorf("trace: attempt %d rank %d event %d: peer %d outside machine of %d ranks", ai, rank, i, ev.Peer, a.Ranks)
				}
			}
		}
	}
	return nil
}
