package pepscale

import (
	"fmt"
	"io"
	"os"

	"pepscale/internal/chem"
	"pepscale/internal/cluster"
	"pepscale/internal/core"
	"pepscale/internal/digest"
	"pepscale/internal/fasta"
	"pepscale/internal/fdr"
	"pepscale/internal/score"
	"pepscale/internal/spectrum"
	"pepscale/internal/synth"
	"pepscale/internal/topk"
	"pepscale/internal/trace"
)

// Core search types, re-exported from the engine packages.
type (
	// Options configure a search (τ, δ, digestion, scoring model, masking).
	Options = core.Options
	// Result is a completed search: per-query hit lists plus run metrics.
	Result = core.Result
	// QueryResult is the reported top-τ hit list for one query spectrum.
	QueryResult = core.QueryResult
	// Metrics aggregates a run's virtual-time accounting.
	Metrics = core.Metrics
	// RankMetrics is the per-rank breakdown inside Metrics.
	RankMetrics = core.RankMetrics
	// Hit is one scored candidate peptide.
	Hit = topk.Hit
	// Algorithm selects a parallel engine.
	Algorithm = core.Algorithm
	// Input bundles the database FASTA image with the query spectra.
	Input = core.Input
	// ExecutionTrace is a run's virtual-clock event trace (one attempt per
	// machine run), collected when Job.Trace is set.
	ExecutionTrace = trace.Trace
)

// The engines.
const (
	// AlgorithmMasterWorker is the MSPolygraph baseline (O(N) memory/rank).
	AlgorithmMasterWorker = core.AlgoMasterWorker
	// AlgorithmA is the paper's space-optimal masked database-transport engine.
	AlgorithmA = core.AlgoA
	// AlgorithmANoMask is AlgorithmA without communication masking.
	AlgorithmANoMask = core.AlgoANoMask
	// AlgorithmB adds the parallel m/z counting sort and sender groups.
	AlgorithmB = core.AlgoB
	// AlgorithmSubGroup is the grouped medium-input extension.
	AlgorithmSubGroup = core.AlgoSubGroup
	// AlgorithmCandidate is the candidate-transport strategy from the
	// paper's discussion: pre-digested, mass-sorted candidates are stored
	// in memory and communicated on demand.
	AlgorithmCandidate = core.AlgoCandidate
)

// Spectrum and database types.
type (
	// Spectrum is an experimental MS/MS spectrum.
	Spectrum = spectrum.Spectrum
	// Peak is one (m/z, intensity) point.
	Peak = spectrum.Peak
	// ProteinRecord is one FASTA database entry.
	ProteinRecord = fasta.Record
	// Tolerance is a Dalton or ppm mass-match window (δ).
	Tolerance = chem.Tolerance
	// Modification is a variable post-translational modification.
	Modification = chem.Mod
	// DigestParams configure candidate generation.
	DigestParams = digest.Params
	// ScoreConfig configures the statistical scoring models.
	ScoreConfig = score.Config
	// CostModel is the virtual cluster's LogGP-style cost model.
	CostModel = cluster.CostModel
	// ClusterConfig configures the virtual machine directly.
	ClusterConfig = cluster.Config
)

// Synthetic workload types.
type (
	// DatabaseSpec describes a synthetic protein database.
	DatabaseSpec = synth.DBSpec
	// SpectraSpec describes a synthetic query workload.
	SpectraSpec = synth.SpectraSpec
	// GroundTruth pairs a generated spectrum with its true peptide.
	GroundTruth = synth.Truth
)

// DefaultOptions returns the standard search configuration: τ=50, δ=3 Da,
// tryptic digestion with two missed cleavages, likelihood scoring,
// communication masking enabled.
func DefaultOptions() Options { return core.DefaultOptions() }

// DaltonTolerance returns an absolute parent-mass tolerance.
func DaltonTolerance(v float64) Tolerance { return chem.DaltonTolerance(v) }

// PPMTolerance returns a relative parent-mass tolerance.
func PPMTolerance(v float64) Tolerance { return chem.PPMTolerance(v) }

// GigabitCluster is the cost model of the paper's testbed: 8 CPUs per node
// sharing a gigabit NIC, MSPolygraph-calibrated scoring cost.
func GigabitCluster() CostModel { return cluster.GigabitCluster() }

// LaptopDirect is a low-latency single-node cost model.
func LaptopDirect() CostModel { return cluster.LaptopDirect() }

// Common variable modifications.
var (
	// OxidationM is methionine oxidation.
	OxidationM = chem.OxidationM
	// PhosphoSTY is S/T/Y phosphorylation.
	PhosphoSTY = chem.PhosphoSTY
	// CarbamidomethylC is cysteine carbamidomethylation.
	CarbamidomethylC = chem.CarbamidomethylC
)

// Job describes one parallel search.
type Job struct {
	// Algorithm selects the engine (default AlgorithmA).
	Algorithm Algorithm
	// Ranks is p, the virtual processor count (default 1).
	Ranks int
	// Cost is the cluster cost model (default GigabitCluster).
	Cost CostModel
	// Options are the search parameters (default DefaultOptions).
	Options *Options
	// Trace records a per-rank event trace of the run on the virtual
	// clock, attached to Result.Trace. Off by default: the disabled
	// tracer adds no work to the scoring hot path.
	Trace bool
}

// Run executes the job against a FASTA database image and query spectra.
func (j Job) Run(db []byte, queries []*Spectrum) (*Result, error) {
	if j.Ranks <= 0 {
		j.Ranks = 1
	}
	if j.Cost == (CostModel{}) {
		j.Cost = GigabitCluster()
	}
	opt := DefaultOptions()
	if j.Options != nil {
		opt = *j.Options
	}
	cfg := cluster.Config{Ranks: j.Ranks, Cost: j.Cost, Trace: j.Trace}
	return core.Run(j.Algorithm, cfg, Input{DBData: db, Queries: queries}, opt)
}

// WriteTrace exports a trace in Chrome trace_event JSON (load it in
// Perfetto or chrome://tracing; timestamps are virtual seconds as µs).
func WriteTrace(w io.Writer, t *ExecutionTrace) error { return trace.WriteChrome(w, t) }

// ReadTrace parses a trace written by WriteTrace.
func ReadTrace(data []byte) (*ExecutionTrace, error) { return trace.ReadChrome(data) }

// WriteTraceSummary renders the trace analysis report: per-phase rollups,
// per-step load imbalance, and the critical-path decomposition.
func WriteTraceSummary(w io.Writer, t *ExecutionTrace) error { return trace.WriteSummary(w, t) }

// SearchSerial runs the single-processor reference implementation.
func SearchSerial(db []byte, queries []*Spectrum, opt Options) (*Result, error) {
	return core.Serial(Input{DBData: db, Queries: queries}, opt, GigabitCluster())
}

// ParseAlgorithm resolves engine names ("mw", "a", "a-nomask", "b",
// "subgroup").
func ParseAlgorithm(s string) (Algorithm, error) { return core.ParseAlgorithm(s) }

// ModificationByName resolves a canonical modification name such as
// "Oxidation(M)" or "Phospho(STY)".
func ModificationByName(name string) (Modification, bool) { return chem.ModByName(name) }

// --- Database I/O ---

// ParseFASTA reads protein records from FASTA text.
func ParseFASTA(r io.Reader) ([]ProteinRecord, error) { return fasta.Parse(r) }

// MarshalFASTA renders records to a FASTA image (the database form the
// engines consume).
func MarshalFASTA(recs []ProteinRecord) []byte { return fasta.Marshal(recs) }

// WriteFASTA writes records to w, wrapping sequence lines at width.
func WriteFASTA(w io.Writer, recs []ProteinRecord, width int) error {
	return fasta.Write(w, recs, width)
}

// LoadDatabaseFile reads a FASTA database file and validates it parses.
func LoadDatabaseFile(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("pepscale: %w", err)
	}
	if _, err := fasta.ParseBytes(data); err != nil {
		return nil, fmt.Errorf("pepscale: %s: %w", path, err)
	}
	return data, nil
}

// --- Spectrum I/O ---

// ParseMGF reads spectra from MGF text.
func ParseMGF(r io.Reader) ([]*Spectrum, error) { return spectrum.ParseMGF(r) }

// WriteMGF writes spectra as MGF text.
func WriteMGF(w io.Writer, specs []*Spectrum) error { return spectrum.WriteMGF(w, specs) }

// LoadSpectraFile reads an MGF query file.
func LoadSpectraFile(path string) ([]*Spectrum, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("pepscale: %w", err)
	}
	defer f.Close()
	return spectrum.ParseMGF(f)
}

// --- Target–decoy FDR estimation ---

// FDR types, re-exported from the estimation layer.
type (
	// PSM is one peptide-spectrum match with its estimated q-value.
	PSM = fdr.PSM
	// FDRSummary tabulates a target–decoy estimate.
	FDRSummary = fdr.Summary
)

// DecoyDatabase appends reversed-sequence decoys to a database; search the
// result, then estimate FDR on the output.
func DecoyDatabase(db []ProteinRecord) []ProteinRecord { return fdr.DecoyDatabase(db) }

// EstimateFDR extracts rank-1 matches from results and assigns q-values by
// target–decoy competition.
func EstimateFDR(results []QueryResult) []PSM { return fdr.Estimate(fdr.TopPSMs(results)) }

// AcceptedAtFDR filters estimated PSMs to targets with q-value ≤ alpha.
func AcceptedAtFDR(psms []PSM, alpha float64) []PSM { return fdr.AcceptedAt(psms, alpha) }

// SummarizeFDR computes headline acceptance counts from estimated PSMs.
func SummarizeFDR(psms []PSM) FDRSummary { return fdr.Summarize(psms) }

// --- Synthetic workloads ---

// HumanDatabase mirrors the paper's 88,333-sequence human database, scaled.
func HumanDatabase(scale float64) DatabaseSpec { return synth.HumanSpec(scale) }

// MicrobialDatabase mirrors the paper's 2.65M-sequence microbial database,
// scaled.
func MicrobialDatabase(scale float64) DatabaseSpec { return synth.MicrobialSpec(scale) }

// SizedDatabase is a microbial-style database with exactly n sequences.
func SizedDatabase(n int) DatabaseSpec { return synth.SizedSpec(n) }

// GenerateDatabase builds a deterministic synthetic protein database.
func GenerateDatabase(spec DatabaseSpec) []ProteinRecord { return synth.GenerateDB(spec) }

// DefaultSpectraSpec describes a realistic synthetic query workload of the
// given size.
func DefaultSpectraSpec(count int) SpectraSpec { return synth.DefaultSpectraSpec(count) }

// GenerateSpectra fabricates query spectra (with retained ground truth)
// from peptides of db.
func GenerateSpectra(db []ProteinRecord, spec SpectraSpec) ([]GroundTruth, error) {
	return synth.GenerateSpectra(db, spec)
}

// SpectraOf strips ground truth, keeping just the query spectra.
func SpectraOf(truths []GroundTruth) []*Spectrum { return synth.Spectra(truths) }
