// Event-tracing surface of the virtual machine.
//
// Every accounting site of the machine builds its charge as a typed interval
// event (see internal/trace) and applies it through Rank.charge, which adds
// the event's delta to Stats and, when Config.Trace is set, appends the event
// to the rank's timeline. The log and the counters are therefore one write,
// not two kept equal. Disabled tracing allocates nothing — the
// disabled-tracer AllocsPerRun guard in trace_test.go enforces it.
package cluster

import "pepscale/internal/trace"

// Tracing reports whether event tracing is enabled for this machine.
func (r *Rank) Tracing() bool { return r.tl != nil }

// SetPhase tags subsequently recorded events with an engine phase name
// ("load", "sort", "scan", "checkpoint", "report"). No-op when tracing is
// disabled.
func (r *Rank) SetPhase(phase string) {
	if r.tl != nil {
		r.tl.SetPhase(phase)
	}
}

// SetStep tags subsequently recorded events with a transport-loop step
// index; -1 clears the tag. No-op when tracing is disabled.
func (r *Rank) SetStep(step int) {
	if r.tl != nil {
		r.tl.SetStep(step)
	}
}

// Mark records an instantaneous engine annotation (checkpoint written,
// state restored) at the current virtual clock. No-op when tracing is
// disabled.
func (r *Rank) Mark(name, note string) {
	r.charge(r.clock, trace.Event{Kind: trace.KindMark, Name: name, Note: note, Peer: -1, Start: r.clock})
}

// Trace snapshots the events recorded since the machine was created (or
// last Reset) as one trace attempt. It returns nil when tracing is
// disabled, and must not be called concurrently with Run.
func (m *Machine) Trace(label string) *trace.Attempt {
	if m.rec == nil {
		return nil
	}
	return m.rec.Snapshot(label)
}
