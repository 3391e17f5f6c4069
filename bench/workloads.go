package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"pepscale/internal/cluster"
	"pepscale/internal/core"
	"pepscale/internal/fasta"
	"pepscale/internal/serve"
	"pepscale/internal/spectrum"
	"pepscale/internal/synth"
)

// engine names the entry point a workload's search calls.
type engine int

const (
	engineBatch   engine = iota // core.Run
	engineElastic               // core.RunElastic under a spot-churn membership plan
	engineServe                 // serve.New + SubmitFrame×n + Close
)

// workload is one set of inputs the benchmark runs. Sizes are chosen so a
// search takes a few hundred host milliseconds on two cores: a run's window
// then holds a dozen searches or more, and one of them is likely to run
// undisturbed.
type workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json
	// carries the same text).
	Why      string
	Engine   engine
	Algo     core.Algorithm
	Ranks    int
	Spares   int // elastic: dormant ranks the spot plan rotates in
	Seqs     int // database sequences
	Spectra  int // query spectra (serve: the query pool)
	ScanMode string
	Cost     func() cluster.CostModel

	// Serve only. The search replays the RefRate schedule over HorizonSec
	// virtual seconds. The traced pass adds the SweepRates, each over
	// SweepHorizonSec; the last of them is past saturation, so refusals are
	// expected there and only there. SLOSec is the limit on p95 sojourn.
	HorizonSec      float64
	RefRate         float64
	SweepHorizonSec float64
	SweepRates      []float64
	SLOSec          float64
}

// workloads returns the benchmark's workloads. quick shrinks every input so
// the package's tests finish in seconds; it keeps engines, rank counts and
// scan modes, so the same code paths run.
func workloads(quick bool) []workload {
	ws := []workload{
		{
			Name: "batch_sparse", Engine: engineBatch, Algo: core.AlgoB, Ranks: 8,
			Seqs: 12000, Spectra: 16, Cost: cluster.GigabitCluster,
			Why: "Algorithm B, p=8, large database against few spectra: FASTA parse, digest index build and the m/z counting sort do most of the work and the scan almost none",
		},
		{
			Name: "batch_dense", Engine: engineBatch, Algo: core.AlgoA, Ranks: 8,
			Seqs: 2000, Spectra: 600, Cost: cluster.GigabitCluster,
			Why: "Algorithm A, p=8, small database against many spectra: the peptide-major scan kernel and the likelihood scorer do most of the work; digest and cluster changes must not show here",
		},
		{
			Name: "batch_fragidx", Engine: engineBatch, Algo: core.AlgoA, Ranks: 4,
			Seqs: 400, Spectra: 600, ScanMode: core.ScanModeFragIdx, Cost: cluster.GigabitCluster,
			Why: "Algorithm A, p=4, fragment-index scan mode: per-rank, per-block index builds dominate, so it separates a kernel gain from one that costs the other scan mode",
		},
		{
			Name: "scale_wide", Engine: engineBatch, Algo: core.AlgoA, Ranks: 1024,
			Seqs: 2000, Spectra: 64, Cost: cluster.TwoLevelCluster,
			Why: "Algorithm A at p=1024 on a tiny input: host time is the simulator itself (cluster primitives, goroutine hand-offs, block cache, result gather), not the kernel",
		},
		{
			Name: "elastic_churn", Engine: engineElastic, Ranks: 8, Spares: 3,
			Seqs: 2500, Spectra: 250, Cost: cluster.GigabitCluster,
			Why: "RunElastic, p0=8 plus 3 spares under three spot-eviction cycles: checkpoint encode/restore, placement successor plans, admission and block migration",
		},
		{
			Name: "serve_stream", Engine: engineServe, Ranks: 4,
			Seqs: 1000, Spectra: 128, Cost: cluster.GigabitCluster,
			HorizonSec: 60, RefRate: 16, SweepHorizonSec: 30, SweepRates: []float64{32, 48, 64, 96}, SLOSec: 2,
			Why: "pepd open loop on virtual time: two tenants (70% Poisson, 30% bursty) through the wire codec, batching window, backend quanta and checkpoint carry-over that batch runs never touch",
		},
	}
	if quick {
		for i := range ws {
			w := &ws[i]
			w.Seqs = max(w.Seqs/20, 60)
			w.Spectra = max(w.Spectra/10, 8)
			if w.Ranks > 64 {
				w.Ranks = 64
			}
			if w.Engine == engineServe {
				w.HorizonSec, w.SweepHorizonSec = 15, 8
			}
		}
	}
	return ws
}

func findWorkload(ws []workload, name string) (workload, bool) {
	for _, w := range ws {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options returns the search options of a workload: the repo's defaults
// (τ=50, δ=3 Da, likelihood scoring, masking on) with the workload's scan
// mode.
func (w workload) options() core.Options {
	opt := core.DefaultOptions()
	opt.ScanMode = w.ScanMode
	return opt
}

// arrival is one scheduled serve submission, by pool index so that each
// search submits the spectra it parsed itself.
type arrival struct {
	AtSec  float64
	Tenant string
	Query  int
}

// The serve workload's two tenants.
var serveTenants = []serve.TenantConfig{
	{Name: "steady", QuotaPerSec: -1},
	{Name: "bursty", QuotaPerSec: -1},
}

// inputs is everything set-up hands to a search, plus the oracle the
// search's output is checked against.
type inputs struct {
	FASTA []byte
	MGF   []byte
	// Hash identifies the generated inputs (both images and the arrival
	// schedules): same seed, same hash.
	Hash uint64
	// Oracle is core.Serial over the parsed images, peptide-major.
	Oracle *core.Result

	// Elastic: the spot plan, sized to the static run's virtual horizon.
	Membership *cluster.MembershipPlan

	// Serve: one schedule per rate.
	Arrivals map[float64][]arrival
}

// subSeed derives the k-th independent generator seed from the run seed, so
// the database, spectra, schedule and membership streams never coincide.
func subSeed(seed, k uint64) uint64 { return synth.NewRNG(seed).Fork(k).Uint64() }

// schedule draws the two-tenant arrival schedule at a mean rate: 70% steady
// Poisson, 30% bursty. One draw's bursty count varies by a fifth, and host
// time and tail latency follow it, so schedule redraws (a deterministic walk
// over sub-seeds) until each tenant's count is within two percent of its
// rate × horizon: every seed then offers the same load.
func schedule(seed uint64, rate, horizon float64, pool []*spectrum.Spectrum) []serve.Arrival {
	loads := []serve.TenantLoad{
		{Tenant: serveTenants[0], Profile: serve.ProfileSteady, RatePerSec: rate * 0.7},
		{Tenant: serveTenants[1], Profile: serve.ProfileBursty, RatePerSec: rate * 0.3},
	}
	for try := uint64(0); ; try++ {
		arrivals := serve.Schedule(serve.LoadSpec{Seed: subSeed(seed, try), HorizonSec: horizon, Loads: loads}, pool)
		count := map[string]float64{}
		for _, a := range arrivals {
			count[a.Tenant]++
		}
		ok := true
		for _, ld := range loads {
			want := ld.RatePerSec * horizon
			ok = ok && math.Abs(count[ld.Tenant.Name]-want) <= max(0.02*want, 1)
		}
		if ok {
			return arrivals
		}
	}
}

// spotPlan draws three spot-eviction cycles over the horizon. It redraws (a
// deterministic walk over sub-seeds) while an evicted rank is re-admitted
// later in the plan: the elastic engine marks a leaver dormant only after
// the boundary barrier, so a re-admission at the very next boundary races
// with that on the host and the run dies with "rank N already active" —
// about one quick run in ten under the race detector. The benchmark runs
// no operation that can fail; the race is the engine's to fix.
func spotPlan(w workload, horizonSec float64, seed uint64) *cluster.MembershipPlan {
	for try := uint64(0); ; try++ {
		mp := cluster.SpotMembershipPlan(w.Ranks, w.Spares, 3, horizonSec, int64(subSeed(seed, try)>>1))
		evicted, readmits := map[int]bool{}, false
		for _, ev := range mp.Events {
			for _, id := range ev.Join {
				readmits = readmits || evicted[id]
			}
			for _, id := range ev.Leave {
				evicted[id] = true
			}
		}
		if !readmits {
			return mp
		}
	}
}

// setup generates a workload's inputs from the seed and computes the
// oracle. Nothing here is handed to the program under test except the two
// byte images, the membership plan and the arrival schedule.
func setup(w workload, seed uint64) (*inputs, error) {
	dbSpec := synth.SizedSpec(w.Seqs)
	dbSpec.Seed = subSeed(seed, 1)
	// A third of the microbial spec's length spread: the total residue
	// count, and with it every cost, then differs by under one percent from
	// seed to seed, so the spread across seeds measures the machine.
	dbSpec.LengthStdDev = 80
	recs := synth.GenerateDB(dbSpec)
	spSpec := synth.DefaultSpectraSpec(w.Spectra)
	spSpec.Seed = subSeed(seed, 2)
	truths, err := synth.GenerateSpectra(recs, spSpec)
	if err != nil {
		return nil, err
	}
	in := &inputs{FASTA: fasta.Marshal(recs)}
	var mgf bytes.Buffer
	if err := spectrum.WriteMGF(&mgf, synth.Spectra(truths)); err != nil {
		return nil, err
	}
	in.MGF = mgf.Bytes()

	// The oracle sees what the search sees: the spectra as parsed back from
	// the MGF image (MGF text rounds m/z to four decimals).
	pool, err := spectrum.ParseMGF(bytes.NewReader(in.MGF))
	if err != nil {
		return nil, err
	}
	opt := w.options()
	opt.ScanMode = core.ScanModePeptideMajor
	in.Oracle, err = core.Serial(core.Input{DBData: in.FASTA, Queries: pool}, opt, w.Cost())
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}

	h := fnv.New64a()
	h.Write(in.FASTA)
	h.Write(in.MGF)

	switch w.Engine {
	case engineElastic:
		// The spot plan spreads its evictions over 0.8 × the static run's
		// virtual horizon, so the horizon is measured first.
		static, _, err := runElastic(w, in, pool, nil)
		if err != nil {
			return nil, fmt.Errorf("static horizon: %w", err)
		}
		in.Membership = spotPlan(w, 0.8*static.Metrics.RunSec, subSeed(seed, 4))
		h.Write(cluster.EncodeMembershipPlan(in.Membership))
	case engineServe:
		index := make(map[*spectrum.Spectrum]int, len(pool))
		for i, s := range pool {
			index[s] = i
		}
		in.Arrivals = map[float64][]arrival{}
		for _, rate := range append([]float64{w.RefRate}, w.SweepRates...) {
			horizon := w.SweepHorizonSec
			if rate == w.RefRate {
				horizon = w.HorizonSec
			}
			for _, a := range schedule(subSeed(seed, 3), rate, horizon, pool) {
				in.Arrivals[rate] = append(in.Arrivals[rate], arrival{AtSec: a.AtSec, Tenant: a.Tenant, Query: index[a.Spec]})
				h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(a.AtSec)))
			}
		}
	}
	in.Hash = h.Sum64()
	return in, nil
}
