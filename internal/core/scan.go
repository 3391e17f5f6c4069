// The block scan: the peptide-major sweep every engine runs on every block.
//
// The historical scan (scanIndexQueryMajor, now the tests' reference oracle
// in scanref_test.go) is query-major: for each query
// it walks the query's candidate window and regenerates the candidate's
// theoretical fragments and null-shuffle spectra for every pair, even
// though these depend on the query only through its precursor charge and
// neighbouring queries' ±δ windows overlap heavily on the mass-sorted
// index. The sweep below inverts the loop: it walks the index ONCE in mass
// order, maintains the set of "active" queries whose window contains the
// current peptide grouped by precursor charge, and for each (peptide,
// charge) group prepares the scoring model once (score.Scorer.Prepare),
// scoring all active queries of the charge against it. Like the paper's
// kernel it generates each candidate's model on the fly from the block
// being scanned; an inverted fragment index built per block was measured
// slower end to end at every query density (EXPERIMENTS.md K3).
//
// Results are bit-identical to the query-major scan: each query still
// visits exactly the peptides of its window, in ascending index order and
// exactly once, and ScorePrepared reproduces Score bit-for-bit — so the
// per-query Offer sequence, tie-breaks, hit lists, and scanStats (and with
// them the virtual clock) are unchanged. The property tests in
// scan_prop_test.go compare the two paths directly.

package core

import (
	"sort"

	"pepscale/internal/digest"
	"pepscale/internal/score"
	"pepscale/internal/topk"
)

// scanWindow is one query's candidate range [start, end) on the index.
type scanWindow struct {
	start, end int
}

// chargeGroup collects the active queries of one precursor charge, so one
// Prepare at that charge serves all of them.
type chargeGroup struct {
	charge  int
	members []int32 // positions into the scan's query slice
}

// massSorter sorts query positions by (ParentMass, position) without the
// closure allocation of sort.Slice.
type massSorter struct {
	order []int32
	qs    []*score.Query
}

func (s *massSorter) Len() int      { return len(s.order) }
func (s *massSorter) Swap(i, j int) { s.order[i], s.order[j] = s.order[j], s.order[i] }
func (s *massSorter) Less(i, j int) bool {
	a, b := s.qs[s.order[i]], s.qs[s.order[j]]
	if a.ParentMass != b.ParentMass {
		return a.ParentMass < b.ParentMass
	}
	return s.order[i] < s.order[j]
}

// scanState carries the reusable buffers of one rank's block scans. A warmed
// state performs zero heap allocations per (peptide, query) evaluation;
// engine loops keep one instance alive across blocks so the per-query scoring
// caches (score.BatchQuery) survive as long as the query set does. Like a
// Scorer, a scanState belongs to one rank and is not safe for concurrent use.
// It owns nothing derived from a block: the mass index arrives with each
// scan, shared with every other rank.
//
//pepvet:perrank
type scanState struct {
	order  []int32      // query positions in ascending (ParentMass, position)
	wins   []scanWindow // per query position
	bqs    []score.BatchQuery
	sorter massSorter

	groups  []chargeGroup
	nGroups int
	surv    []int32 // prefilter survivors of the current group

	prep        score.CandidatePrep
	deltaBuf    []float64
	quickBins   []int32
	quickPrefix []float64
}

// addActive inserts query position qi into its charge group, creating the
// group on first sight of the charge (group storage is recycled across
// scans).
func (ss *scanState) addActive(charge int, qi int32) {
	for gi := 0; gi < ss.nGroups; gi++ {
		if ss.groups[gi].charge == charge {
			ss.groups[gi].members = append(ss.groups[gi].members, qi)
			return
		}
	}
	if ss.nGroups == len(ss.groups) {
		ss.groups = append(ss.groups, chargeGroup{})
	}
	g := &ss.groups[ss.nGroups]
	g.charge = charge
	g.members = append(g.members[:0], qi)
	ss.nGroups++
}

// bindQueries binds per-query batch state, keeping each query's caches when
// the caller passes the same query in the same slot as last scan (engine
// loops rescanning a stable query set against successive blocks).
//
//pepvet:hotpath
func (ss *scanState) bindQueries(qs []*score.Query) {
	for len(ss.bqs) < len(qs) {
		ss.bqs = append(ss.bqs, score.BatchQuery{})
	}
	for i, q := range qs {
		if ss.bqs[i].Q != q {
			ss.bqs[i] = score.Batch(q)
		}
	}
}

// computeWindows sorts query positions by parent mass and computes every
// query's candidate window with the galloping bounds — both window edges
// are monotone along the mass order, so the total cost is near-linear. The
// window sum is charged to st.Candidates.
//
//pepvet:hotpath
func (ss *scanState) computeWindows(qs []*score.Query, ix *digest.Index, opt Options, st *scanStats) {
	n := len(qs)
	ss.order = ss.order[:0]
	for i := 0; i < n; i++ {
		ss.order = append(ss.order, int32(i))
	}
	ss.sorter.order, ss.sorter.qs = ss.order, qs
	sort.Sort(&ss.sorter)

	if cap(ss.wins) < n {
		ss.wins = make([]scanWindow, n)
	}
	ss.wins = ss.wins[:n]
	hintStart, hintEnd := 0, 0
	for _, qi := range ss.order {
		lo, hi := opt.Tol.Window(qs[qi].ParentMass)
		start, end := ix.WindowFrom(hintStart, hintEnd, lo, hi)
		hintStart, hintEnd = start, end
		ss.wins[qi] = scanWindow{start: start, end: end}
		st.Candidates += int64(end - start)
	}
}

// scan runs the peptide-major sweep of one block; see the file comment for
// the design and the bit-identity argument. Every Options.ScanMode value
// runs it.
//
//pepvet:hotpath
func (ss *scanState) scan(qs []*score.Query, lists []*topk.List, ix *digest.Index, sc score.Scorer, opt Options, idOf func(int32) string) scanStats {
	var st scanStats
	n := len(qs)
	ixLen := ix.Len()
	if n == 0 || ixLen == 0 {
		return st
	}
	mods := opt.Digest.Mods

	ss.bindQueries(qs)
	ss.computeWindows(qs, ix, opt, &st)

	ss.nGroups = 0
	active := 0 // live members across all groups
	pos := 0    // next entry of ss.order to activate
	for i := 0; i < ixLen; {
		// Activate queries whose window has begun (skipping those already
		// over — possible after a jump across a coverage gap).
		for pos < n {
			qi := ss.order[pos]
			w := ss.wins[qi]
			if w.start > i {
				break
			}
			pos++
			if w.end <= i {
				continue
			}
			ss.addActive(qs[qi].Charge, qi)
			active++
		}
		if active == 0 {
			if pos >= n {
				break
			}
			i = ss.wins[ss.order[pos]].start // jump the uncovered gap
			continue
		}

		pep := ix.At(i)
		// Per-peptide state, materialized at most once no matter how many
		// groups and queries score the peptide.
		var deltas []float64
		deltasReady := false
		quickReady := false
		strsReady := false
		var annotated, proteinID string

		for gi := 0; gi < ss.nGroups; gi++ {
			g := &ss.groups[gi]
			// Compact members whose window ended before this peptide.
			live := g.members[:0]
			for _, qi := range g.members {
				if ss.wins[qi].end <= i {
					active--
					continue
				}
				live = append(live, qi)
			}
			g.members = live
			if len(live) == 0 {
				continue
			}

			if !deltasReady {
				deltas = pep.AppendModDeltas(ss.deltaBuf, mods)
				if deltas != nil {
					ss.deltaBuf = deltas
				}
				deltasReady = true
			}
			memb := live
			if opt.Prefilter > 0 {
				if !quickReady {
					ss.quickBins, ss.quickPrefix = score.QuickBins(ss.quickBins, ss.quickPrefix, pep.Seq, deltas, opt.Score)
					quickReady = true
				}
				ss.surv = ss.surv[:0]
				for _, qi := range memb {
					if score.QuickMatchFromBins(qs[qi], ss.quickBins) < opt.Prefilter {
						st.Prefiltered++
						continue
					}
					ss.surv = append(ss.surv, qi)
				}
				memb = ss.surv
				if len(memb) == 0 {
					continue
				}
			}

			sc.Prepare(&ss.prep, pep.Seq, deltas, g.charge)
			for _, qi := range memb {
				s := sc.ScorePrepared(&ss.bqs[qi], &ss.prep)
				if s <= opt.MinScore {
					continue
				}
				list := lists[qi]
				if thr, full := list.Threshold(); full && s < thr {
					continue
				}
				if !strsReady {
					annotated = pep.Annotated(mods)
					proteinID = idOf(pep.Protein)
					strsReady = true
				}
				hit := topk.Hit{
					Peptide:   annotated,
					Protein:   pep.Protein,
					ProteinID: proteinID,
					Mass:      pep.Mass,
					Score:     s,
				}
				if list.Offer(hit) {
					st.Offered++
				}
			}
		}
		i++
	}
	return st
}
