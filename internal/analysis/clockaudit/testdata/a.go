// Package a is the clockaudit analyzer's corpus: miniature Rank/Stats/trace
// types (matching is by type name, so the corpus is self-contained). Every
// write of the clock, a Stats counter or the log outside Rank.charge carries
// a `// want` expectation; charge itself, zero resets, events built field by
// field, the residency gauge and an allowed write stay silent.
package a

// StatDelta is the counter block an event carries and Stats embeds.
type StatDelta struct {
	ComputeSec float64
	Messages   int64
}

// Add writes a StatDelta that is not reached through a Stats: silent.
func (d *StatDelta) Add(o StatDelta) {
	d.ComputeSec += o.ComputeSec
	d.Messages += o.Messages
}

// Event is one trace record.
type Event struct {
	Delta StatDelta
}

// RankLog is the per-rank trace log.
type RankLog struct{ events []Event }

// Append logs one event.
func (l *RankLog) Append(ev Event) { l.events = append(l.events, ev) }

// Stats embeds the counters plus one gauge the trace does not carry.
type Stats struct {
	StatDelta
	ResidentBytes int64
}

// Rank is the charged party.
type Rank struct {
	clock float64
	Stats Stats
	tl    *RankLog
}

// charge is the one writer: silent.
func (r *Rank) charge(end float64, ev Event) {
	r.clock = end
	r.Stats.StatDelta.Add(ev.Delta)
	if r.tl != nil {
		r.tl.Append(ev)
	}
}

// compute builds a local StatDelta and its event field by field and
// charges them: silent.
func (r *Rank) compute(d float64) {
	var sd StatDelta
	sd.ComputeSec = d
	ev := Event{Delta: sd}
	ev.Delta.Messages++
	r.charge(r.clock+d, ev)
}

// directClock moves the clock past charge.
func (r *Rank) directClock(d float64) {
	r.clock += d // want "Rank.clock is written outside Rank.charge"
}

// promoted writes counters Stats promotes from its StatDelta.
func (r *Rank) promoted(d float64) {
	r.Stats.ComputeSec += d // want "Stats.ComputeSec is written outside Rank.charge"
	r.Stats.Messages++      // want "Stats.Messages is written outside Rank.charge"
}

// explicit names the embedded StatDelta on the way to the counter.
func (r *Rank) explicit(n int64) {
	r.Stats.StatDelta.Messages += n            // want "Stats.StatDelta.Messages is written outside Rank.charge"
	r.Stats.StatDelta = StatDelta{Messages: n} // want "Stats.StatDelta is written outside Rank.charge"
}

// wholeStats overwrites every counter at once.
func (r *Rank) wholeStats(s Stats) {
	r.Stats = s // want "Rank.Stats is written outside Rank.charge"
}

// logDirect logs an event its counters never see.
func (r *Rank) logDirect(ev Event) {
	if r.tl != nil {
		r.tl.Append(ev) // want "RankLog.Append is called outside Rank.charge"
	}
}

// inClosure writes the clock from a function literal: still this function's
// write.
func (r *Rank) inClosure(d float64) func() {
	return func() {
		r.clock += d // want "Rank.clock is written outside Rank.charge"
	}
}

// other has a charge method, but it is not Rank's.
type other struct{ r *Rank }

func (o *other) charge(d float64) {
	o.r.clock += d // want "Rank.clock is written outside Rank.charge"
}

// reset rewinds without charging an interval: zero writes are exempt.
func (r *Rank) reset() {
	r.clock = 0
	r.Stats = Stats{}
	r.Stats.ComputeSec = 0
}

// gauge: ResidentBytes is outside StatDelta, so it is not audited.
func (r *Rank) gauge(n int64) {
	r.Stats.ResidentBytes += n
}

// allowed is justified: suppression works on the write's line.
func (r *Rank) allowed(d float64) {
	//pepvet:allow clockaudit the corpus proves the directive silences a write
	r.clock += d
}
