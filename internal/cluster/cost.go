package cluster

import "math"

// CostModel is the LogGP-style network/compute cost model that drives the
// virtual clock. All times are in (virtual) seconds.
//
// The defaults in GigabitCluster describe the paper's testbed: a 24-node
// commodity Linux cluster, 8 CPUs per node sharing one gigabit-ethernet
// NIC, with the MSPolygraph likelihood scorer as the unit of computation.
type CostModel struct {
	// LatencySec is λ: the fixed per-message (or per-RMA-operation) cost.
	LatencySec float64
	// BytesPerSec is the raw link bandwidth (1/μ).
	BytesPerSec float64
	// RanksPerNode models NIC sharing: when more than one rank occupies a
	// node, concurrent transfers divide the link, so the effective
	// per-transfer bandwidth is BytesPerSec / min(p, RanksPerNode).
	// 0 or 1 disables sharing.
	RanksPerNode int
	// SendOverheadSec is the sender-side CPU overhead per message (LogGP o).
	SendOverheadSec float64
	// RMABytesPerSec is the effective throughput of one-sided Get
	// transfers. On 2009-era commodity clusters without RDMA hardware,
	// passive-target MPI_Get is emulated in software over TCP and achieves
	// a small fraction of the raw link bandwidth; this knob models that.
	// 0 falls back to BytesPerSec. NIC sharing (RanksPerNode) applies on
	// top.
	RMABytesPerSec float64
	// BlockingRMAFactor is the bandwidth-degradation multiplier applied to
	// a Get that is waited on with no intervening computation (the
	// unmasked, blocking pattern): all ranks then issue their transfers at
	// the same instant and the synchronized burst congests the fabric
	// (TCP incast). Masked gets are naturally staggered by computation and
	// do not pay it. 0 or 1 disables the effect.
	BlockingRMAFactor float64

	// ScoreSecPerCandidate is ρ: the CPU time to evaluate one candidate
	// against one query under a Cost()==1 scorer. Scorers scale it by their
	// relative Cost().
	ScoreSecPerCandidate float64
	// DigestSecPerResidue is the CPU time per database residue to digest
	// and mass-index a block.
	DigestSecPerResidue float64
	// IOBytesPerSec is the parallel file-system read rate per rank.
	IOBytesPerSec float64
	// HitSecPerHit is the output-reporting cost per retained hit.
	HitSecPerHit float64
	// PrepSecPerPeak is the query-conditioning cost per spectrum peak.
	PrepSecPerPeak float64
	// SortSecPerKey is the local CPU cost per key during the parallel
	// counting sort (Algorithm B's integer sorting, O(n/p) per rank).
	SortSecPerKey float64

	// Topo is the optional two-level rack/node topology (see topology.go).
	// The zero value keeps the flat model: every Path* helper and
	// collective cost is then bit-identical to the pre-topology formulas.
	Topo Topology
}

// inf returns +Inf (an unset bandwidth models a free network).
func inf() float64 { return math.Inf(1) }

// GigabitCluster returns the cost model calibrated against the paper's
// testbed: 2.33 GHz Xeons, gigabit ethernet, NFS, 8 ranks per node, and the
// MSPolygraph statistical scorer (the paper's Table III implies roughly
// 5,200 candidates per second per processor at p=8).
func GigabitCluster() CostModel {
	return CostModel{
		LatencySec:           60e-6,
		BytesPerSec:          118e6,
		RanksPerNode:         8,
		SendOverheadSec:      5e-6,
		RMABytesPerSec:       25e6,
		BlockingRMAFactor:    3,
		ScoreSecPerCandidate: 105e-6,
		DigestSecPerResidue:  40e-9,
		IOBytesPerSec:        80e6,
		HitSecPerHit:         2e-6,
		PrepSecPerPeak:       2e-7,
		SortSecPerKey:        60e-9,
	}
}

// LaptopDirect returns a low-latency single-node model (shared-memory
// transport, no NIC sharing), useful for exploring where communication
// stops mattering.
func LaptopDirect() CostModel {
	c := GigabitCluster()
	c.LatencySec = 2e-6
	c.BytesPerSec = 5e9
	c.RanksPerNode = 1
	return c
}

// effectiveBytesPerSec returns the per-transfer bandwidth under NIC sharing
// with p ranks in the job.
func (c CostModel) effectiveBytesPerSec(p int) float64 {
	bw := c.BytesPerSec
	if bw <= 0 {
		bw = math.Inf(1)
	}
	share := c.RanksPerNode
	if share < 1 {
		share = 1
	}
	if p < share {
		share = p
	}
	if share < 1 {
		share = 1
	}
	return bw / float64(share)
}

// XferSec returns the time for one point-to-point transfer of b bytes in a
// p-rank job: λ + b·μ_eff.
func (c CostModel) XferSec(b int, p int) float64 {
	return c.LatencySec + float64(b)/c.effectiveBytesPerSec(p)
}

// RMAXferSec returns the time for a one-sided Get of b bytes. blocking
// marks the synchronized no-compute-overlap pattern, which additionally
// pays BlockingRMAFactor.
func (c CostModel) RMAXferSec(b int, p int, blocking bool) float64 {
	bw := c.RMABytesPerSec
	if bw <= 0 {
		bw = c.BytesPerSec
	}
	if bw <= 0 {
		return c.LatencySec
	}
	share := c.RanksPerNode
	if share < 1 {
		share = 1
	}
	if p < share {
		share = p
	}
	eff := bw / float64(share)
	sec := c.LatencySec + float64(b)/eff
	if blocking && c.BlockingRMAFactor > 1 {
		sec = c.LatencySec + float64(b)*c.BlockingRMAFactor/eff
	}
	return sec
}

// TreeSteps returns ⌈log₂ p⌉, the round count of tree-based collectives.
func TreeSteps(p int) int {
	steps := 0
	for n := 1; n < p; n *= 2 {
		steps++
	}
	return steps
}

// CollectiveSec returns the cost of a tree collective (barrier, broadcast,
// allreduce) moving b bytes per round in a p-rank job.
func (c CostModel) CollectiveSec(b int, p int) float64 {
	return float64(TreeSteps(p)) * (c.LatencySec + float64(b)/c.effectiveBytesPerSec(p))
}

// AlltoallvSec returns one rank's cost for a personalized all-to-all
// exchange in which it sends sendB bytes and receives recvB bytes total.
func (c CostModel) AlltoallvSec(sendB, recvB int, p int) float64 {
	max := sendB
	if recvB > max {
		max = recvB
	}
	return float64(p-1)*c.LatencySec + float64(max)/c.effectiveBytesPerSec(p)
}

// IOSec returns the time to read b bytes from the shared file system.
func (c CostModel) IOSec(b int) float64 {
	if c.IOBytesPerSec <= 0 {
		return 0
	}
	return float64(b) / c.IOBytesPerSec
}
