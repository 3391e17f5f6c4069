package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"pepscale/internal/cluster"
	"pepscale/internal/core"
	"pepscale/internal/fasta"
	"pepscale/internal/serve"
	"pepscale/internal/spectrum"
	"pepscale/internal/topk"
)

// outcome is what one search produced and what it cost on the host clock.
// Everything virtual in it is read from the engine's own accounting and
// repeats exactly for a fixed seed.
type outcome struct {
	HostSec    float64
	AllocBytes uint64
	Mallocs    uint64

	// Attempted and Failed count queries. A query fails when its hit list
	// differs from the oracle's, or it is lost, duplicated or (serve)
	// refused.
	Attempted, Failed int

	VirtualRunSec float64
	// Batch and elastic engines.
	Metrics  core.Metrics
	Recovery *core.Recovery
	// Serve.
	Sojourn   []float64 // arrive→done, virtual seconds, ascending
	Refused   int
	Stats     serve.ServiceStats
	CkptBytes int64
}

// search runs the timed operation once: from the FASTA and MGF images to
// rendered TSV rows on a discarding writer, the path a pepid user waits on.
// rec, when non-nil, records a span per stage. For serve, rate selects the
// arrival schedule and refusalsExpected says whether a refused submission
// counts as a failure (it does, except in the overload probe).
func search(w workload, in *inputs, rate float64, refusalsExpected bool, rec *recorder) (*outcome, error) {
	out := &outcome{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	root := rec.begin("search")

	var pool []*spectrum.Spectrum
	var err error
	rec.in("spectrum.ParseMGF", func() { pool, err = spectrum.ParseMGF(bytes.NewReader(in.MGF)) })
	if err != nil {
		return nil, err
	}
	// The validation pepscale.LoadDatabaseFile does before any engine runs.
	rec.in("fasta.ParseBytes", func() { _, err = fasta.ParseBytes(in.FASTA) })
	if err != nil {
		return nil, err
	}

	var res *core.Result
	var frames []*serve.ResultFrame
	var admitted map[string][]int
	switch w.Engine {
	case engineBatch:
		rec.in("core.Run", func() {
			res, err = core.Run(w.Algo, cluster.Config{Ranks: w.Ranks, Cost: w.Cost()},
				core.Input{DBData: in.FASTA, Queries: pool}, w.options())
		})
	case engineElastic:
		rec.in("core.RunElastic", func() { res, out.Recovery, err = runElastic(w, in, pool, in.Membership) })
	case engineServe:
		rec.in("serve", func() { frames, admitted, err = runServe(w, in, pool, rate, out) })
	}
	if err != nil {
		return nil, err
	}
	if res != nil {
		rec.in("render", func() { err = renderTSV(io.Discard, res.Queries) })
		if err != nil {
			return nil, err
		}
	}

	rec.end(root)
	out.HostSec = time.Since(t0).Seconds()
	runtime.ReadMemStats(&after)
	out.AllocBytes = after.TotalAlloc - before.TotalAlloc
	out.Mallocs = after.Mallocs - before.Mallocs

	// Checking is not part of the timed operation.
	if res != nil {
		out.Metrics = res.Metrics
		out.VirtualRunSec = res.Metrics.RunSec
		out.Attempted = len(in.Oracle.Queries)
		out.Failed = countWrong(in.Oracle.Queries, res.Queries)
	} else {
		checkServe(in, rate, refusalsExpected, frames, admitted, out)
	}
	return out, nil
}

// runElastic runs the elastic engine; a nil plan is the static membership
// over p0 + spares ranks with no events.
func runElastic(w workload, in *inputs, pool []*spectrum.Spectrum, mp *cluster.MembershipPlan) (*core.Result, *core.Recovery, error) {
	if mp == nil {
		mp = &cluster.MembershipPlan{Universe: w.Ranks + w.Spares, Initial: w.Ranks}
	}
	return core.RunElastic(cluster.Config{Cost: w.Cost()}, core.Input{DBData: in.FASTA, Queries: pool},
		w.options(), core.ElasticOptions{Membership: mp})
}

// renderTSV writes the hit rows pepid prints.
func renderTSV(w io.Writer, queries []core.QueryResult) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "query\trank\tpeptide\tprotein\tmass\tscore")
	for _, q := range queries {
		for i, h := range q.Hits {
			fmt.Fprintf(bw, "%s\t%d\t%s\t%s\t%.4f\t%.4f\n", q.ID, i+1, h.Peptide, h.ProteinID, h.Mass, h.Score)
		}
	}
	return bw.Flush()
}

// sameHits reports bit-for-bit equality of two ranked hit lists.
func sameHits(a, b []topk.Hit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// countWrong counts oracle queries the engine did not answer identically;
// a missing, extra or reordered result counts against the position it
// displaces.
func countWrong(want, got []core.QueryResult) int {
	wrong := 0
	for i, q := range want {
		if i >= len(got) || got[i].Index != q.Index || got[i].ID != q.ID || !sameHits(q.Hits, got[i].Hits) {
			wrong++
		}
	}
	if len(got) > len(want) {
		wrong += len(got) - len(want)
	}
	return wrong
}

// runServe replays one arrival schedule through pepd the way pepid -serve
// does: every query enters as an encoded submit frame, every completion
// leaves as an encoded result frame that the client side decodes and
// renders. It returns the decoded frames and, per tenant, the pool index of
// each admitted query in admission order (a completion's Seq indexes it).
func runServe(w workload, in *inputs, pool []*spectrum.Spectrum, rate float64, out *outcome) ([]*serve.ResultFrame, map[string][]int, error) {
	var frames []*serve.ResultFrame
	var sinkErr error
	bw := bufio.NewWriter(io.Discard)
	fmt.Fprintln(bw, "tenant\tseq\tquery\tarrive\tdone\tlatency\trank\tpeptide\tprotein\tmass\tscore")
	s, err := serve.New(serve.Config{
		DB: in.FASTA, Opt: w.options(), Ranks: w.Ranks, Cost: w.Cost(), Tenants: serveTenants,
		Sink: func(c serve.Completion) {
			rf, err := serve.DecodeResult(c.Frame().Encode())
			if err != nil {
				sinkErr = err
				return
			}
			frames = append(frames, rf)
			for i, h := range rf.Hits {
				fmt.Fprintf(bw, "%s\t%d\t%s\t%.4f\t%.4f\t%.4f\t%d\t%s\t%s\t%.4f\t%.4f\n",
					rf.Tenant, rf.Seq, rf.QueryID, rf.ArriveSec, rf.DoneSec, rf.DoneSec-rf.ArriveSec,
					i+1, h.Peptide, h.ProteinID, h.Mass, h.Score)
			}
		},
	})
	if err != nil {
		return nil, nil, err
	}
	admitted := map[string][]int{}
	for i, a := range in.Arrivals[rate] {
		frame := (&serve.SubmitFrame{Tenant: a.Tenant, Seq: uint64(i), AtSec: a.AtSec, Spec: pool[a.Query]}).Encode()
		if err := s.SubmitFrame(frame); err != nil {
			if _, ok := serve.IsRetryable(err); ok {
				out.Refused++
				continue
			}
			return nil, nil, err
		}
		admitted[a.Tenant] = append(admitted[a.Tenant], a.Query)
	}
	if err := s.Close(); err != nil {
		return nil, nil, err
	}
	if sinkErr != nil {
		return nil, nil, fmt.Errorf("result frame: %w", sinkErr)
	}
	if err := bw.Flush(); err != nil {
		return nil, nil, err
	}
	out.VirtualRunSec = s.NowSec()
	out.Stats = s.Metrics()
	out.CkptBytes = s.CheckpointBytes()
	return frames, admitted, nil
}

// checkServe checks that every admitted query completed exactly once with
// the oracle's hits, and collects the sojourn times.
func checkServe(in *inputs, rate float64, refusalsExpected bool, frames []*serve.ResultFrame, admitted map[string][]int, out *outcome) {
	type key struct {
		tenant string
		seq    uint64
	}
	seen := map[key]int{}
	for _, rf := range frames {
		k := key{rf.Tenant, rf.Seq}
		seen[k]++
		adm := admitted[rf.Tenant]
		if seen[k] > 1 || rf.Seq >= uint64(len(adm)) {
			out.Failed++ // duplicated, or a completion nobody submitted
			continue
		}
		want := in.Oracle.Queries[adm[rf.Seq]]
		if rf.QueryID != want.ID || !sameHits(want.Hits, rf.Hits) {
			out.Failed++
		}
		out.Sojourn = append(out.Sojourn, rf.DoneSec-rf.ArriveSec)
	}
	for tenant, adm := range admitted {
		for seq := range adm {
			if seen[key{tenant, uint64(seq)}] == 0 {
				out.Failed++ // lost
			}
		}
	}
	out.Attempted = len(in.Arrivals[rate])
	if refusalsExpected {
		out.Attempted -= out.Refused
	} else {
		out.Failed += out.Refused
	}
	sort.Float64s(out.Sojourn)
}
