package core

import "pepscale/internal/spectrum"

// Communication volume vs. the distribution lower bound.
//
// For distributed peptide identification every (database block, query) pair
// must meet on some rank, with the database and the queries initially
// distributed 1/p per rank. Any schedule therefore either cycles the
// database past the queries (Algorithm A: each rank receives the p−1 blocks
// it does not hold) or routes the queries/candidates to the data (Algorithm
// B, candidate transport), so the total delivered volume of any engine is
// bounded below by moving the smaller of the two operands past everything
// else once:
//
//	LB(p) = (p − 1) · min(D, Q)
//
// where D is the database image size and Q the serialized query-set size.
// With more ranks than queries (p > m) the 1/p premise fails: a rank holding
// no query needs no block, so Algorithm A's RMA is m·D-shaped and can sit
// below LB(p).
// This is the mass-spectrometry instance of the communication lower bounds
// derived for distributed-memory omics workloads (arXiv:2009.14123; see
// PAPERS.md), which the paper's engines approach within small factors —
// the comm-volume experiment (K4) measures how closely.

// CommLowerBound returns LB(p) in bytes for a job over dbBytes of database
// and queryBytes of serialized queries. p ≤ 1 needs no communication.
func CommLowerBound(p int, dbBytes, queryBytes int64) int64 {
	if p <= 1 {
		return 0
	}
	min := dbBytes
	if queryBytes < min {
		min = queryBytes
	}
	return int64(p-1) * min
}

// QueryWireBytes is the serialized size of a query set under the engines'
// wire/conditioning charge model (64 bytes of header plus 12 bytes per
// peak, matching loadPhase's I/O accounting).
func QueryWireBytes(qs []*spectrum.Spectrum) int64 {
	var b int64
	for _, s := range qs {
		b += 64 + 12*int64(len(s.Peaks))
	}
	return b
}

// CommVolume is a run's measured delivered communication volume, summed
// across ranks from the machine's per-rank byte counters.
type CommVolume struct {
	// DeliveredBytes sums all delivered payload bytes: point-to-point
	// messages, collective payloads, and one-sided gets
	// (Stats.BytesReceived, which includes the RMA subset).
	DeliveredBytes int64
	// RMABytes is the one-sided (Get) subset of DeliveredBytes
	// (Stats.RMABytesReceived).
	RMABytes int64
	// MigrationBytes is the subset of RMABytes moved to rebalance block
	// ownership at elastic membership boundaries — the price of churn,
	// reported alongside the scan traffic so the comm-volume experiment
	// can split an elastic run's overhead above LB(p) into transport
	// schedule vs. membership churn.
	MigrationBytes int64
}

// Total returns the engine's full delivered volume.
func (v CommVolume) Total() int64 { return v.DeliveredBytes }

// Ratio returns Total/bound (0 when the bound is zero) — how far the
// engine's schedule sits above the distribution lower bound.
func (v CommVolume) Ratio(bound int64) float64 {
	if bound <= 0 {
		return 0
	}
	return float64(v.Total()) / float64(bound)
}

// MeasuredCommVolume folds the per-rank byte counters of a run into its
// delivered communication volume. It works at any p (the counters are
// always maintained), unlike trace-based folding, which requires a traced
// machine — the two agree exactly on traced runs (see volume tests).
func MeasuredCommVolume(m Metrics) CommVolume {
	var v CommVolume
	for _, r := range m.PerRank {
		v.DeliveredBytes += r.BytesReceived
		v.RMABytes += r.RMABytesReceived
		v.MigrationBytes += r.MigrationBytes
	}
	return v
}
