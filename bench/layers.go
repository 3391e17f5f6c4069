package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"pepscale/internal/ckpt"
	"pepscale/internal/cluster"
	"pepscale/internal/core"
	"pepscale/internal/digest"
	"pepscale/internal/fasta"
	"pepscale/internal/fragidx"
	"pepscale/internal/placement"
	"pepscale/internal/score"
	"pepscale/internal/serve"
	"pepscale/internal/sortmz"
	"pepscale/internal/spectrum"
	"pepscale/internal/topk"
)

// ladder is the state of one traced pass: the per-layer values measured so
// far and the intermediate products later layers are replayed on.
type ladder struct {
	w   workload
	in  *inputs
	opt core.Options
	sp  *recorder
	rec *runRecord
	m   map[string]float64

	// From the alternating searches.
	one     *outcome // last untraced search at GOMAXPROCS=1
	oneSec  float64  // fastest 1-core search
	procSec float64  // fastest search at searchProcs()

	// Products of the layer replay, bottom up.
	pool      []*spectrum.Spectrum
	blockRecs [][]fasta.Record
	bases     []int32
	blockIx   []*digest.Index
	wholeIx   *digest.Index
	queries   []*score.Query

	wholeParseSec, wholeDigestSec, prepareSec float64
}

// runLayers is the traced pass of one workload. After a warm-up it
// alternates three searches — at searchProcs(), at one core, and at one
// core under the span recorder — for half the window, so machine drift hits
// all three alike; then it replays the same inputs through each layer's
// public functions standalone, at one core, in ladder order. Spans are
// recorded by the benchmark around those calls; nothing inside the program
// is instrumented.
func runLayers(w workload, seed uint64, seconds float64) (*runRecord, error) {
	procs := searchProcs()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	l := &ladder{w: w, opt: w.options(), sp: newRecorder(w.Name), m: map[string]float64{},
		rec: &runRecord{Workload: w.Name, Trace: 1, Seed: seed, Seconds: seconds, Metrics: map[string]sample{}}}
	var err error
	if l.in, err = setup(w, seed); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	l.rec.InputHash = fmt.Sprintf("%016x", l.in.Hash)
	if _, err := l.search(w, w.RefRate, false, nil); err != nil {
		return nil, fmt.Errorf("warm-up search: %w", err)
	}

	var multi, one, traced []float64
	deadline := time.Now().Add(time.Duration(seconds / 2 * float64(time.Second)))
	for len(multi) < 2 || time.Now().Before(deadline) {
		runtime.GOMAXPROCS(procs)
		o, err := l.search(w, w.RefRate, false, nil)
		if err != nil {
			return nil, err
		}
		multi = append(multi, o.HostSec)
		runtime.GOMAXPROCS(1)
		if l.one, err = l.search(w, w.RefRate, false, nil); err != nil {
			return nil, err
		}
		one = append(one, l.one.HostSec)
		if o, err = l.search(w, w.RefRate, false, l.sp); err != nil {
			return nil, err
		}
		traced = append(traced, o.HostSec)
	}
	l.oneSec, l.procSec = fastest(one, "s").Value, fastest(multi, "s").Value
	l.m["trace.overhead_share"] = (fastest(traced, "s").Value - l.oneSec) / l.oneSec

	root := l.sp.begin("replay")
	for _, layer := range []func() error{
		l.fasta, l.spectrum, l.digest, l.sortmz, l.fragidx, l.score, l.scan, l.topk,
		l.cluster, l.engine, l.ckpt, l.placement, l.elastic, l.serve,
	} {
		if err := layer(); err != nil {
			return nil, err
		}
	}
	l.sp.end(root)

	for name := range l.m {
		if _, ok := findMetric(perLayer, name); !ok {
			return nil, fmt.Errorf("layer replay produced undeclared metric %q", name)
		}
	}
	for _, d := range perLayer {
		l.rec.Metrics[d.Name] = single(l.m[d.Name], d.Unit)
	}
	l.rec.Correct = l.rec.Failed == 0

	path := filepath.Join(outDir, w.Name+".trace.json")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := l.sp.writeChrome(&buf); err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	return l.rec, nil
}

// search runs one checked search and folds its failures into the record.
func (l *ladder) search(w workload, rate float64, refusalsExpected bool, sp *recorder) (*outcome, error) {
	runtime.GC()
	o, err := search(w, l.in, rate, refusalsExpected, sp)
	if err != nil {
		return nil, err
	}
	l.rec.count(o)
	return o, nil
}

// allocDuring runs f and returns its duration and the heap bytes it
// allocated.
func (l *ladder) allocDuring(name string, f func()) (sec float64, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sec = l.sp.in(name, f)
	runtime.ReadMemStats(&after)
	return sec, after.TotalAlloc - before.TotalAlloc
}

// fasta replays what a search parses: the whole image once (validation),
// then each of the p record-aligned blocks (the engine's parallel load).
func (l *ladder) fasta() error {
	var err error
	sec := l.sp.in("fasta", func() {
		l.wholeParseSec = l.sp.in("fasta.ParseBytes", func() { _, err = fasta.ParseBytes(l.in.FASTA) })
		if err != nil {
			return
		}
		l.sp.in("fasta.Ranges+ParseRange", func() {
			var base int32
			for _, r := range fasta.Ranges(l.in.FASTA, l.w.Ranks) {
				var recs []fasta.Record
				if recs, err = fasta.ParseRange(l.in.FASTA, r); err != nil {
					return
				}
				l.blockRecs = append(l.blockRecs, recs)
				l.bases = append(l.bases, base)
				base += int32(len(recs))
			}
		})
	})
	l.m["fasta.parse_s"] = sec
	l.m["fasta.parse_mb_per_s"] = 2 * float64(len(l.in.FASTA)) / 1e6 / sec
	return err
}

func (l *ladder) spectrum() error {
	var err error
	sec := l.sp.in("spectrum.ParseMGF", func() { l.pool, err = spectrum.ParseMGF(bytes.NewReader(l.in.MGF)) })
	l.m["spectrum.mgf_parse_s"] = sec
	l.m["spectrum.mgf_mb_per_s"] = float64(len(l.in.MGF)) / 1e6 / sec
	return err
}

// digest builds the mass-sorted peptide index once per block, as the
// engines do (their block cache single-flights the build, so the cost of a
// search is about one build per block, not one per rank). The whole-database
// build that core.Serial does is timed separately, for scan.self_s.
func (l *ladder) digest() error {
	var err error
	peptides := 0
	sec, alloc := l.allocDuring("digest.NewIndex/blocks", func() {
		for b, recs := range l.blockRecs {
			var ix *digest.Index
			if ix, err = digest.NewIndex(recs, l.bases[b], l.opt.Digest); err != nil {
				return
			}
			l.blockIx = append(l.blockIx, ix)
			peptides += ix.Len()
		}
	})
	if err != nil {
		return err
	}
	l.m["digest.index_build_s"] = sec
	l.m["digest.peptides_per_s"] = float64(peptides) / sec
	l.m["digest.alloc_bytes_per_peptide"] = float64(alloc) / float64(max(peptides, 1))

	var recs []fasta.Record
	for _, b := range l.blockRecs {
		recs = append(recs, b...)
	}
	l.wholeDigestSec = l.sp.in("digest.NewIndex/whole", func() { l.wholeIx, err = digest.NewIndex(recs, 0, l.opt.Digest) })
	return err
}

// sortmz replays Algorithm B's parallel counting sort inside a machine of
// the workload's width, each rank sorting its own block.
func (l *ladder) sortmz() error {
	if l.w.Engine != engineBatch || l.w.Algo != core.AlgoB {
		return nil
	}
	mach, err := cluster.New(cluster.Config{Ranks: l.w.Ranks, Cost: l.w.Cost()})
	if err != nil {
		return err
	}
	l.m["sortmz.sort_host_s"] = l.sp.in("sortmz.Sort", func() {
		err = mach.Run(func(r *cluster.Rank) error {
			recs := l.blockRecs[r.ID()]
			seqs := make([]sortmz.Seq, len(recs))
			for i, rec := range recs {
				seqs[i] = sortmz.Seq{GID: l.bases[r.ID()] + int32(i), Rec: rec}
			}
			_, err := sortmz.Sort(r, seqs, sortmz.Params{MassType: l.opt.Digest.MassType, RingAllreduce: true})
			return err
		})
	})
	return err
}

// fragidx builds the inverted fragment index of each block with the tiers a
// likelihood scan of this query set demands. A search builds one per rank
// per block (the scan state owns it), so its cost there is about p times
// this; fragidx.e2e_vs_peptide_host_ratio re-runs the search peptide-major
// to show what the index costs end to end.
func (l *ladder) fragidx() error {
	if l.w.ScanMode != core.ScanModeFragIdx {
		return nil
	}
	// The distinct fragment-charge caps of the query set, ascending.
	var caps []int
	for _, s := range l.pool {
		if z := spectrum.EffectiveMaxFragmentCharge(l.opt.Score.Theoretical, s.Charge); !slices.Contains(caps, z) {
			caps = append(caps, z)
		}
	}
	sort.Ints(caps)
	var tiers []*fragidx.Tier
	var lens []int
	sec, alloc := l.allocDuring("fragidx.New+Tier", func() {
		for _, ix := range l.blockIx {
			x := fragidx.New(ix, l.opt.Digest.Mods, l.opt.Score)
			for _, z := range caps {
				if t := x.Tier(z, fragidx.KindPasses); t != nil {
					tiers = append(tiers, t)
					lens = append(lens, x.Len())
				}
			}
		}
	})
	var frags int64
	for i, t := range tiers {
		for ord := 0; ord < lens[i]; ord++ {
			frags += int64(t.NFrags(ord))
		}
	}
	l.m["fragidx.build_s"] = sec
	l.m["fragidx.build_alloc_mb"] = float64(alloc) / 1e6
	l.m["fragidx.frags_per_s"] = float64(frags) / sec

	peptideMajor := l.w
	peptideMajor.ScanMode = core.ScanModePeptideMajor
	id := l.sp.begin("search/peptide-major")
	o, err := l.search(peptideMajor, 0, false, nil)
	l.sp.end(id)
	if err != nil {
		return err
	}
	l.m["fragidx.e2e_vs_peptide_host_ratio"] = l.oneSec / o.HostSec
	return nil
}

// score prepares every query, then scores a sample of in-window
// (query, candidate) pairs one at a time.
func (l *ladder) score() error {
	l.prepareSec = l.sp.in("score.PrepareQuery", func() {
		for _, s := range l.pool {
			l.queries = append(l.queries, score.PrepareQuery(s, l.opt.Score))
		}
	})
	l.m["score.prepare_query_us"] = l.prepareSec * 1e6 / float64(len(l.pool))

	sc, err := score.New(l.opt.ScorerName, l.opt.Score)
	if err != nil {
		return err
	}
	const maxQueries, maxPerQuery = 64, 64
	pairs := 0
	step := max(len(l.queries)/maxQueries, 1)
	sec := l.sp.in("score.Score", func() {
		for qi := 0; qi < len(l.queries); qi += step {
			q := l.queries[qi]
			lo, hi := l.opt.Tol.Window(q.ParentMass)
			start, end := l.wholeIx.Window(lo, hi)
			for i := start; i < min(end, start+maxPerQuery); i++ {
				pep := l.wholeIx.At(i)
				sc.Score(q, pep.Seq, pep.ModDeltas(l.opt.Digest.Mods))
				pairs++
			}
		}
	})
	l.m["score.score_ns_per_cand"] = sec * 1e9 / float64(max(pairs, 1))
	return nil
}

// scan runs core.Serial in the workload's scan mode: parse, digest, prepare
// and scan on one core with no virtual machine. What is left after taking
// out the three layers below it is the scan kernel's own time.
func (l *ladder) scan() error {
	var res *core.Result
	var err error
	sec, alloc := l.allocDuring("core.Serial", func() {
		res, err = core.Serial(core.Input{DBData: l.in.FASTA, Queries: l.pool}, l.opt, l.w.Cost())
	})
	if err != nil {
		return err
	}
	l.rec.Attempted += len(l.in.Oracle.Queries)
	l.rec.Failed += countWrong(l.in.Oracle.Queries, res.Queries)
	cands := float64(max(res.Metrics.Candidates, 1))
	self := sec - l.wholeParseSec - l.wholeDigestSec - l.prepareSec
	l.m["scan.serial_host_s"] = sec
	l.m["scan.self_s"] = self
	l.m["scan.cand_per_host_s"] = cands / self
	l.m["scan.alloc_bytes_per_cand"] = float64(alloc) / cands
	l.m["scan.candidates"] = float64(res.Metrics.Candidates)
	return nil
}

// topk replays the oracle's hits through Offer (worst first, so every offer
// is kept) and through Merge (two half lists per query).
func (l *ladder) topk() error {
	const reps = 10
	offers, merged := 0, 0
	offerSec := l.sp.in("topk.Offer", func() {
		for r := 0; r < reps; r++ {
			for _, q := range l.in.Oracle.Queries {
				list := topk.New(l.opt.Tau)
				for i := len(q.Hits) - 1; i >= 0; i-- {
					list.Offer(q.Hits[i])
				}
				offers += len(q.Hits)
			}
		}
	})
	type pair struct{ a, b *topk.List }
	var pairs []pair
	for r := 0; r < reps; r++ {
		for _, q := range l.in.Oracle.Queries {
			p := pair{topk.New(l.opt.Tau), topk.New(l.opt.Tau)}
			for i, h := range q.Hits {
				if i%2 == 0 {
					p.a.Offer(h)
				} else {
					p.b.Offer(h)
				}
			}
			pairs = append(pairs, p)
			merged += len(q.Hits)
		}
	}
	mergeSec := l.sp.in("topk.Merge", func() {
		for _, p := range pairs {
			p.a.Merge(p.b)
		}
	})
	l.m["topk.offer_ns"] = offerSec * 1e9 / float64(max(offers, 1))
	l.m["topk.merge_ns_per_hit"] = mergeSec * 1e9 / float64(max(merged, 1))
	return nil
}

// cluster times the simulator's own primitives on a machine of the
// workload's width: k operations per rank, one primitive per Machine.Run,
// reported as host nanoseconds per operation per rank.
func (l *ladder) cluster() error {
	p := l.w.Ranks
	k := max(16384/p, 8)
	var mach *cluster.Machine
	var err error
	l.m["cluster.machine_new_s"] = l.sp.in("cluster.New", func() {
		mach, err = cluster.New(cluster.Config{Ranks: p, Cost: l.w.Cost()})
	})
	if err != nil {
		return err
	}
	payload := make([]byte, 64)
	repeat := func(op func(r *cluster.Rank) error) func(r *cluster.Rank) error {
		return func(r *cluster.Rank) error {
			for i := 0; i < k; i++ {
				if err := op(r); err != nil {
					return err
				}
			}
			return nil
		}
	}
	for _, prim := range []struct {
		metric, span string // no metric: set-up for the next primitive
		body         func(r *cluster.Rank) error
	}{
		{"cluster.send_recv_host_ns", "cluster.Send+Recv", repeat(func(r *cluster.Rank) error {
			r.Send((r.ID()+1)%p, "bench", payload)
			r.Recv((r.ID() + p - 1) % p)
			return nil
		})},
		{"", "cluster.Expose", func(r *cluster.Rank) error { r.Expose("bench", payload); r.Barrier(); return nil }},
		{"cluster.get_wait_host_ns", "cluster.Get+Wait", repeat(func(r *cluster.Rank) error {
			_, err := r.Get((r.ID()+1)%p, "bench").Wait()
			return err
		})},
		{"cluster.allreduce_host_ns", "cluster.AllreduceInt64", repeat(func(r *cluster.Rank) error {
			r.AllreduceInt64(cluster.OpSum, 1)
			return nil
		})},
		{"cluster.barrier_host_ns", "cluster.Barrier", repeat(func(r *cluster.Rank) error { r.Barrier(); return nil })},
	} {
		sec := l.sp.in(prim.span, func() { err = mach.Run(prim.body) })
		if err != nil {
			return err
		}
		if prim.metric != "" {
			l.m[prim.metric] = sec * 1e9 / float64(k*p)
		}
	}
	return nil
}

// engine derives the engine-level numbers from the alternating searches and
// the layers below, and reads the virtual accounting of the 1-core run.
func (l *ladder) engine() error {
	l.m["engine.run_host_1core_s"] = l.oneSec
	l.m["engine.host_parallel_speedup"] = l.oneSec / l.procSec
	l.m["engine.host_s_per_virtual_s"] = l.procSec / l.one.VirtualRunSec
	l.m["process.peak_rss_mb"] = peakRSSMB()
	if l.w.Engine == engineServe {
		return nil
	}
	l.m["engine.overhead_s"] = l.oneSec - l.m["scan.serial_host_s"]
	covered := l.m["spectrum.mgf_parse_s"] + l.m["fasta.parse_s"] + l.m["digest.index_build_s"] +
		l.m["sortmz.sort_host_s"] + l.m["fragidx.build_s"] + l.prepareSec + l.m["scan.self_s"]
	l.m["engine.unattributed_share"] = 1 - covered/l.oneSec

	met := l.one.Metrics
	l.m["engine.mallocs_per_cand"] = float64(l.one.Mallocs) / float64(max(met.Candidates, 1))
	var compute, ratio float64
	var messages int64
	for _, r := range met.PerRank {
		compute += r.ComputeSec
		messages += r.Messages
	}
	ratios := met.ResidualToComputeRatios()
	for _, x := range ratios {
		ratio += x / float64(len(ratios))
	}
	vol := core.MeasuredCommVolume(met)
	l.m["engine.virtual_compute_s"] = compute
	l.m["engine.virtual_residual_comm_ratio"] = ratio
	l.m["engine.virtual_sort_s"] = met.SortSec
	l.m["engine.virtual_max_resident_mb"] = float64(met.MaxResidentBytes()) / 1e6
	l.m["engine.comm_bytes"] = float64(vol.DeliveredBytes)
	l.m["engine.rma_bytes"] = float64(vol.RMABytes)
	l.m["engine.messages"] = float64(messages)
	return nil
}

// peakRSSMB reads the process's resident-set high-water mark (Linux).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1e3
		}
	}
	return 0
}

// ckpt encodes and decodes one group checkpoint holding the oracle's hit
// lists: the blob both the elastic engine and pepd's backend write after
// every step or quantum.
func (l *ladder) ckpt() error {
	if l.w.Engine == engineBatch {
		return nil
	}
	g := &ckpt.Group{Cursor: 1, Candidates: l.in.Oracle.Metrics.Candidates}
	for _, q := range l.in.Oracle.Queries {
		g.Queries = append(g.Queries, ckpt.Query{Hits: q.Hits})
	}
	const reps = 8
	var blob []byte
	enc := l.sp.in("ckpt.Encode", func() {
		for i := 0; i < reps; i++ {
			blob = g.Encode()
		}
	})
	var err error
	dec := l.sp.in("ckpt.Decode", func() {
		for i := 0; i < reps && err == nil; i++ {
			_, err = ckpt.Decode(blob)
		}
	})
	mb := float64(reps*len(blob)) / 1e6
	l.m["ckpt.encode_mb_per_s"] = mb / enc
	l.m["ckpt.decode_mb_per_s"] = mb / dec
	return err
}

// placement times the minimal-move successor plan after one spot eviction
// (one member leaves, one spare joins) at two universe sizes.
func (l *ladder) placement() error {
	if l.w.Engine != engineElastic {
		return nil
	}
	for _, universe := range []int{11, 1024} {
		p0 := universe - l.w.Spares
		members := make([]int, p0)
		for i := range members {
			members[i] = i
		}
		prev, err := placement.RoundRobin(p0, p0, members)
		if err != nil {
			return err
		}
		next := append(append([]int{}, members[1:]...), p0)
		const reps = 50
		sec := l.sp.in(fmt.Sprintf("placement.Next/u%d", universe), func() {
			for i := 0; i < reps && err == nil; i++ {
				_, err = placement.Next(prev, next)
			}
		})
		if err != nil {
			return err
		}
		l.m[fmt.Sprintf("placement.next_us.u%d", universe)] = sec * 1e6 / reps
	}
	return nil
}

// elastic runs the engine call alone, churned and static, back to back at
// one core: the ratio is what membership churn costs the host.
func (l *ladder) elastic() error {
	if l.w.Engine != engineElastic {
		return nil
	}
	var res *core.Result
	var err error
	engineCall := func(name string, mp *cluster.MembershipPlan) float64 {
		runtime.GC()
		sec := l.sp.in(name, func() { res, _, err = runElastic(l.w, l.in, l.pool, mp) })
		if err == nil {
			l.rec.Attempted += len(l.in.Oracle.Queries)
			l.rec.Failed += countWrong(l.in.Oracle.Queries, res.Queries)
		}
		return sec
	}
	churn := engineCall("core.RunElastic/churn", l.in.Membership)
	if err != nil {
		return err
	}
	static := engineCall("core.RunElastic/static", nil)
	if err != nil {
		return err
	}
	l.m["elastic.host_vs_static_ratio"] = churn / static
	l.m["elastic.migration_bytes"] = float64(core.MeasuredCommVolume(l.one.Metrics).MigrationBytes)
	l.m["elastic.ckpt_bytes"] = float64(l.one.Recovery.CheckpointBytes)
	l.m["elastic.attempts"] = float64(len(l.one.Recovery.Attempts))
	return nil
}

// serve times the wire codec alone, reads the event loop's counters from
// the 1-core search, and sweeps the fixed rates for the highest one inside
// the latency limit. Only at the last rate, past saturation, are refusals
// expected; anywhere else they count as failures.
func (l *ladder) serve() error {
	if l.w.Engine != engineServe {
		return nil
	}
	arrivals := l.in.Arrivals[l.w.RefRate]
	st := l.one.Stats
	l.m["serve.host_us_per_query"] = l.oneSec * 1e6 / float64(len(arrivals))
	l.m["serve.mean_batch_size"] = float64(st.Admitted) / float64(max(st.Batches, 1))
	l.m["serve.batches"] = float64(st.Batches)
	l.m["serve.quanta"] = float64(st.Quanta)
	l.m["serve.ckpt_bytes"] = float64(l.one.CkptBytes)

	var err error
	sec := l.sp.in("serve.SubmitFrame codec", func() {
		for i, a := range arrivals {
			frame := (&serve.SubmitFrame{Tenant: a.Tenant, Seq: uint64(i), AtSec: a.AtSec, Spec: l.pool[a.Query]}).Encode()
			if _, derr := serve.DecodeSubmit(frame); derr != nil {
				err = derr
			}
		}
	})
	if err != nil {
		return err
	}
	l.m["serve.wire_submit_ns"] = sec * 1e9 / float64(len(arrivals))
	sec = l.sp.in("serve.ResultFrame codec", func() {
		for _, q := range l.in.Oracle.Queries {
			frame := (&serve.ResultFrame{Tenant: "steady", QueryID: q.ID, Hits: q.Hits}).Encode()
			if _, derr := serve.DecodeResult(frame); derr != nil {
				err = derr
			}
		}
	})
	if err != nil {
		return err
	}
	l.m["serve.wire_result_ns"] = sec * 1e9 / float64(len(l.in.Oracle.Queries))

	inSLO := func(o *outcome, horizon, p95 float64) bool {
		return o.Refused == 0 && p95 <= l.w.SLOSec && o.VirtualRunSec-horizon <= l.w.SLOSec
	}
	best := 0.0
	if inSLO(l.one, l.w.HorizonSec, percentile(l.one.Sojourn, 0.95)) {
		best = l.w.RefRate
	}
	for i, rate := range l.w.SweepRates {
		last := i == len(l.w.SweepRates)-1
		id := l.sp.begin(fmt.Sprintf("search/%g q/s", rate))
		o, err := l.search(l.w, rate, last, nil)
		l.sp.end(id)
		if err != nil {
			return fmt.Errorf("sweep at %g q/s: %w", rate, err)
		}
		if err := requireTail(len(o.Sojourn), 0.95); err != nil {
			return fmt.Errorf("sweep at %g q/s: %w", rate, err)
		}
		p95 := percentile(o.Sojourn, 0.95)
		l.m[fmt.Sprintf("serve.sojourn_p95_virtual_s.r%g", rate)] = p95
		if last {
			l.m[fmt.Sprintf("serve.refused_share.r%g", rate)] = float64(o.Refused) / float64(len(l.in.Arrivals[rate]))
		}
		if inSLO(o, l.w.SweepHorizonSec, p95) {
			best = max(best, rate)
		}
	}
	l.m["serve.max_rate_in_slo_qps"] = best
	return nil
}
