// Command pepid runs an end-to-end peptide-identification search: a FASTA
// protein database against an MGF query file (or synthetic stand-ins for
// both), on any of the six engines, printing the top-τ hits per query and
// the run's virtual-time metrics, with optional target–decoy FDR
// estimation.
//
// Usage:
//
//	pepid -db db.fasta -spectra queries.mgf
//	      [-algo a|b|c|mw|a-nomask|subgroup] [-p 8] [-tau 50] [-delta 3]
//	      [-scorer likelihood|hyper|sharedpeaks|xcorr] [-prefilter 0.28]
//	      [-scan peptide|fragidx]
//	      [-mods "Oxidation(M),Phospho(STY)"] [-semi] [-groups 2]
//	      [-decoy -fdr 0.01] [-o hits.tsv] [-metrics]
//	      [-trace run.json] [-trace-summary]
//	      [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// Without -db/-spectra, a synthetic demonstration workload is generated
// (-synth-db N sequences, -synth-queries M spectra).
//
// With -serve, pepid runs as pepd instead: an always-on streaming search
// service fed by a seeded virtual-time arrival schedule. Queries enter
// through the client wire codec, aggregate into batches over -serve-window,
// and per-query results stream to the output as they complete:
//
//	pepid -serve [-serve-seed 42] [-serve-duration 1]
//	      [-serve-tenants "acme:steady:40,ops:bursty:20:interactive"]
//	      [-serve-window 0.05] [-serve-max-batch 16] [-p 4] ...
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"pepscale"
	"pepscale/internal/prof"
	"pepscale/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "pepid: %v\n", err)
		os.Exit(1)
	}
}

// run executes the tool against explicit argument and output streams (the
// testable entry point).
func run(args []string, stdout, stderr io.Writer) (err error) {
	flag := flag.NewFlagSet("pepid", flag.ContinueOnError)
	flag.SetOutput(stderr)
	var (
		dbPath    = flag.String("db", "", "FASTA database path")
		specPath  = flag.String("spectra", "", "MGF query spectra path")
		synthDB   = flag.Int("synth-db", 2000, "synthetic database size when -db is absent")
		synthQ    = flag.Int("synth-queries", 50, "synthetic query count when -spectra is absent")
		algoName  = flag.String("algo", "a", "engine: a, a-nomask, b, mw, subgroup")
		ranks     = flag.Int("p", 8, "virtual processor count")
		tau       = flag.Int("tau", 50, "top hits reported per query (τ)")
		delta     = flag.Float64("delta", 3, "parent mass tolerance in daltons (δ)")
		ppm       = flag.Bool("ppm", false, "interpret -delta as parts-per-million")
		scorer    = flag.String("scorer", "likelihood", "scoring model: likelihood, hyper, sharedpeaks, xcorr")
		prefilter = flag.Float64("prefilter", 0, "X!!Tandem-style aggressive prefilter threshold (0 disables)")
		scanMode  = flag.String("scan", "", "block-scan kernel: peptide (default) or fragidx")
		mods      = flag.String("mods", "", "comma-separated variable modifications, e.g. \"Oxidation(M),Phospho(STY)\"")
		maxMods   = flag.Int("max-mods", 2, "max simultaneous modifications per peptide")
		semi      = flag.Bool("semi", false, "also consider semi-tryptic (prefix/suffix) candidates")
		missed    = flag.Int("missed", 2, "allowed missed cleavages")
		groups    = flag.Int("groups", 2, "sub-group count for -algo subgroup")
		noMask    = flag.Bool("no-masking", false, "disable communication-computation masking")
		decoy     = flag.Bool("decoy", false, "append reversed-sequence decoys to the database and estimate FDR")
		fdrCut    = flag.Float64("fdr", 0.01, "q-value threshold for the FDR report (with -decoy)")
		outPath   = flag.String("o", "", "hits TSV output path (default stdout)")
		metrics   = flag.Bool("metrics", true, "print run metrics to stderr")
		batchSize = flag.Int("batch", 16, "master-worker query batch size")
		tracePath = flag.String("trace", "", "write a Chrome trace_event JSON of the run (open in Perfetto)")
		traceSum  = flag.Bool("trace-summary", false, "print the trace analysis report to stderr")

		serveMode  = flag.Bool("serve", false, "run as pepd: stream a seeded virtual-time arrival schedule through the always-on service")
		serveSeed  = flag.Uint64("serve-seed", 42, "arrival-schedule seed (with -serve)")
		serveDur   = flag.Float64("serve-duration", 1, "arrival horizon in virtual seconds (with -serve)")
		serveTen   = flag.String("serve-tenants", "acme:steady:40,zeta:bursty:30", "tenant loads as name:profile:rate[:interactive], comma-separated")
		serveWin   = flag.Float64("serve-window", 0.05, "batching window in virtual seconds (with -serve)")
		serveBatch = flag.Int("serve-max-batch", 16, "batch-size close threshold (with -serve)")
	)
	profFlags := prof.Register(flag)
	if err := flag.Parse(args); err != nil {
		return err
	}
	stopProf, err := profFlags.Start()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); err == nil {
			err = perr
		}
	}()

	algo, err := pepscale.ParseAlgorithm(*algoName)
	if err != nil {
		return err
	}

	// Assemble options.
	opt := pepscale.DefaultOptions()
	opt.Tau = *tau
	if *ppm {
		opt.Tol = pepscale.PPMTolerance(*delta)
	} else {
		opt.Tol = pepscale.DaltonTolerance(*delta)
	}
	opt.ScorerName = *scorer
	opt.Prefilter = *prefilter
	opt.ScanMode = *scanMode
	opt.Digest.SemiTryptic = *semi
	opt.Digest.MissedCleavages = *missed
	opt.BatchSize = *batchSize
	opt.Masking = !*noMask
	opt.Groups = *groups
	if *mods != "" {
		for _, name := range strings.Split(*mods, ",") {
			m, ok := pepscale.ModificationByName(strings.TrimSpace(name))
			if !ok {
				return fmt.Errorf("unknown modification %q", name)
			}
			opt.Digest.Mods = append(opt.Digest.Mods, m)
		}
		opt.Digest.MaxModsPerPeptide = *maxMods
	}

	// Load or synthesize inputs.
	var db []byte
	if *dbPath != "" {
		db, err = pepscale.LoadDatabaseFile(*dbPath)
		if err != nil {
			return err
		}
	} else {
		recs := pepscale.GenerateDatabase(pepscale.SizedDatabase(*synthDB))
		db = pepscale.MarshalFASTA(recs)
		fmt.Fprintf(stderr, "pepid: generated synthetic database (%d sequences)\n", *synthDB)
	}
	var queries []*pepscale.Spectrum
	if *specPath != "" {
		queries, err = pepscale.LoadSpectraFile(*specPath)
		if err != nil {
			return err
		}
	} else {
		recs, err := pepscale.ParseFASTA(bytes.NewReader(db))
		if err != nil {
			return err
		}
		truths, err := pepscale.GenerateSpectra(recs, pepscale.DefaultSpectraSpec(*synthQ))
		if err != nil {
			return err
		}
		queries = pepscale.SpectraOf(truths)
		fmt.Fprintf(stderr, "pepid: generated %d synthetic query spectra\n", len(queries))
	}

	if *serveMode {
		return runServe(serveParams{
			db: db, pool: queries, opt: opt, ranks: *ranks,
			seed: *serveSeed, horizon: *serveDur, tenants: *serveTen,
			window: *serveWin, maxBatch: *serveBatch,
			metrics: *metrics, outPath: *outPath,
		}, stdout, stderr)
	}

	// Decoys are appended after any synthetic query generation so the true
	// peptides come from target proteins.
	if *decoy {
		recs, err := pepscale.ParseFASTA(bytes.NewReader(db))
		if err != nil {
			return err
		}
		db = pepscale.MarshalFASTA(pepscale.DecoyDatabase(recs))
		fmt.Fprintf(stderr, "pepid: appended %d reversed-sequence decoys\n", len(recs))
	}

	job := pepscale.Job{Algorithm: algo, Ranks: *ranks, Options: &opt, Trace: *tracePath != "" || *traceSum}
	res, err := job.Run(db, queries)
	if err != nil {
		return err
	}

	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		werr := pepscale.WriteTrace(f, res.Trace)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
		fmt.Fprintf(stderr, "pepid: wrote trace to %s\n", *tracePath)
	}
	if *traceSum {
		if err := pepscale.WriteTraceSummary(stderr, res.Trace); err != nil {
			return err
		}
	}

	w := stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "query\trank\tpeptide\tprotein\tmass\tscore")
	for _, q := range res.Queries {
		for i, h := range q.Hits {
			fmt.Fprintf(bw, "%s\t%d\t%s\t%s\t%.4f\t%.4f\n", q.ID, i+1, h.Peptide, h.ProteinID, h.Mass, h.Score)
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}

	if *decoy {
		psms := pepscale.EstimateFDR(res.Queries)
		sum := pepscale.SummarizeFDR(psms)
		accepted := pepscale.AcceptedAtFDR(psms, *fdrCut)
		fmt.Fprintf(stderr, "pepid: FDR %s; %d identifications at q<=%.3g\n", sum, len(accepted), *fdrCut)
	}

	if *metrics {
		m := res.Metrics
		fmt.Fprintf(stderr, "pepid: engine=%s p=%d virtual-runtime=%.3fs candidates=%d (%.0f/s) hits=%d max-resident=%d bytes/rank\n",
			m.Algorithm, m.Ranks, m.RunSec, m.Candidates, m.CandidatesPerSec(), m.Hits, m.MaxResidentBytes())
		if m.SortSec > 0 {
			fmt.Fprintf(stderr, "pepid: sort-time=%.3fs\n", m.SortSec)
		}
	}
	return nil
}

// serveParams carries the -serve flag set into runServe.
type serveParams struct {
	db       []byte
	pool     []*pepscale.Spectrum
	opt      pepscale.Options
	ranks    int
	seed     uint64
	horizon  float64
	tenants  string
	window   float64
	maxBatch int
	metrics  bool
	outPath  string
}

// parseTenantLoads parses the -serve-tenants grammar:
// name:profile:rate[:interactive], comma-separated.
func parseTenantLoads(s string) ([]serve.TenantLoad, error) {
	var loads []serve.TenantLoad
	for _, part := range strings.Split(s, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) < 3 {
			return nil, fmt.Errorf("tenant %q: want name:profile:rate[:interactive]", part)
		}
		ld := serve.TenantLoad{Tenant: serve.TenantConfig{Name: fields[0], QuotaPerSec: -1}}
		switch fields[1] {
		case "steady":
			ld.Profile = serve.ProfileSteady
		case "bursty":
			ld.Profile = serve.ProfileBursty
		case "adversarial":
			ld.Profile = serve.ProfileAdversarial
		default:
			return nil, fmt.Errorf("tenant %q: unknown profile %q", fields[0], fields[1])
		}
		if _, err := fmt.Sscanf(fields[2], "%f", &ld.RatePerSec); err != nil {
			return nil, fmt.Errorf("tenant %q: bad rate %q", fields[0], fields[2])
		}
		if len(fields) > 3 {
			if fields[3] != "interactive" {
				return nil, fmt.Errorf("tenant %q: unknown flag %q", fields[0], fields[3])
			}
			ld.Tenant.Priority = serve.PriorityInteractive
		}
		loads = append(loads, ld)
	}
	return loads, nil
}

// runServe runs pepd over a seeded arrival schedule: every query enters
// through the client wire codec, and per-query result lines stream to the
// output in completion order.
func runServe(p serveParams, stdout, stderr io.Writer) error {
	loads, err := parseTenantLoads(p.tenants)
	if err != nil {
		return err
	}
	spec := serve.LoadSpec{Seed: p.seed, HorizonSec: p.horizon, Loads: loads}
	arrivals := serve.Schedule(spec, p.pool)

	w := stdout
	if p.outPath != "" {
		f, err := os.Create(p.outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "tenant\tseq\tquery\tarrive\tdone\tlatency\trank\tpeptide\tprotein\tmass\tscore")
	cfg := serve.Config{
		DB: p.db, Opt: p.opt, Ranks: p.ranks,
		BatchWindowSec: p.window, MaxBatch: p.maxBatch,
		Cost: pepscale.GigabitCluster(),
		Sink: func(c serve.Completion) {
			// Round-trip each completion through the result codec — the
			// service streams frames, the client renders rows.
			rf, err := serve.DecodeResult(c.Frame().Encode())
			if err != nil {
				fmt.Fprintf(stderr, "pepid: result frame: %v\n", err)
				return
			}
			for i, h := range rf.Hits {
				fmt.Fprintf(bw, "%s\t%d\t%s\t%.4f\t%.4f\t%.4f\t%d\t%s\t%s\t%.4f\t%.4f\n",
					rf.Tenant, rf.Seq, rf.QueryID, rf.ArriveSec, rf.DoneSec, rf.DoneSec-rf.ArriveSec,
					i+1, h.Peptide, h.ProteinID, h.Mass, h.Score)
			}
		},
	}
	tseen := map[string]bool{}
	for _, ld := range loads {
		if !tseen[ld.Tenant.Name] {
			tseen[ld.Tenant.Name] = true
			cfg.Tenants = append(cfg.Tenants, ld.Tenant)
		}
	}
	s, err := serve.New(cfg)
	if err != nil {
		return err
	}
	var rejected int
	for i, a := range arrivals {
		frame := (&serve.SubmitFrame{Tenant: a.Tenant, Seq: uint64(i), AtSec: a.AtSec, Spec: a.Spec}).Encode()
		if err := s.SubmitFrame(frame); err != nil {
			if after, ok := serve.IsRetryable(err); ok {
				rejected++
				fmt.Fprintf(stderr, "pepid: %.4fs %s rejected (retry after %.4fs)\n", a.AtSec, a.Tenant, after)
				continue
			}
			return err
		}
	}
	if err := s.Close(); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if p.metrics {
		st := s.Metrics()
		fmt.Fprintf(stderr, "pepid: pepd p=%d submitted=%d admitted=%d rejected=%d completed=%d batches=%d quanta=%d virtual-end=%.3fs ckpt-bytes=%d\n",
			p.ranks, st.Submitted, st.Admitted, rejected, st.Completed, st.Batches, st.Quanta, s.NowSec(), s.CheckpointBytes())
	}
	return nil
}
