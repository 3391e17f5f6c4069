package core

import (
	"fmt"
	"math"
	"sort"

	"pepscale/internal/cluster"
	"pepscale/internal/digest"
	"pepscale/internal/fasta"
	"pepscale/internal/score"
	"pepscale/internal/sortmz"
	"pepscale/internal/topk"
	"pepscale/internal/wire"
)

// candWindow is the RMA window name for candidate blocks.
const candWindow = "cand"

// candEntry is one in-memory candidate of the candidate-transport engine:
// a pre-digested peptide plus its provenance, the unit that is "stored
// in-memory and ... communicated on demand" per the paper's §III-A
// proposal. Unlike the sequence-transport engines, receivers never see the
// source proteins, so each entry carries its protein identifier.
type candEntry struct {
	Mass  float64
	GID   int32
	ID    string
	Seq   []byte
	Sites []digest.ModSite
}

func (e candEntry) wireSize() int {
	return 8 + 4 + 3 + len(e.ID) + len(e.Seq) + 3*len(e.Sites)
}

// marshalCands encodes candidate entries:
// [mass f64][gid i32][idLen u8][seqLen u8][nSites u8][id][seq][sites…]
// with each site as [pos u16][mod u8].
func marshalCands(entries []candEntry) ([]byte, error) {
	var n int
	for _, e := range entries {
		n += e.wireSize()
	}
	out := make([]byte, 0, n)
	for _, e := range entries {
		if len(e.ID) > 255 || len(e.Seq) > 255 || len(e.Sites) > 255 {
			return nil, fmt.Errorf("core: candidate entry too large (id=%d seq=%d sites=%d)", len(e.ID), len(e.Seq), len(e.Sites))
		}
		out = wire.F64(out, e.Mass)
		out = wire.U32(out, uint32(e.GID))
		out = append(out, byte(len(e.ID)), byte(len(e.Seq)), byte(len(e.Sites)))
		out = append(out, e.ID...)
		out = append(out, e.Seq...)
		for _, s := range e.Sites {
			out = append(wire.U16(out, s.Pos), s.Mod)
		}
	}
	return out, nil
}

// unmarshalCands decodes candidate entries; each Seq is a capped window of
// buf, which the caller never writes again (an exposed window).
func unmarshalCands(buf []byte) ([]candEntry, error) {
	var out []candEntry
	r := wire.NewReader(buf, errWire)
	for r.Len() > 0 {
		e := candEntry{Mass: r.F64(), GID: int32(r.U32())}
		idLen, seqLen, nSites := int(r.U8()), int(r.U8()), int(r.U8())
		e.ID = string(r.Bytes(idLen))
		e.Seq = r.Bytes(seqLen)
		if nSites > 0 {
			e.Sites = make([]digest.ModSite, nSites)
		}
		for s := range e.Sites {
			e.Sites[s] = digest.ModSite{Pos: r.U16(), Mod: r.U8()}
		}
		out = append(out, e)
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return out, nil
}

// candKey buckets a candidate mass for the counting sort.
func candKey(mass float64) int32 {
	if mass < 0 {
		return 0
	}
	if mass > sortmz.MaxKey {
		return sortmz.MaxKey
	}
	return int32(mass)
}

// candidateBody implements the candidate-transport engine the paper's
// discussion proposes: "an alternative strategy in which candidates, and
// not the database sequences, are stored in-memory and are communicated on
// demand ... This strategy could drastically reduce the overall
// computation time," with the space made affordable by the O((N+m)/p)
// result. Per rank:
//
//	C1. Load block Di and query share Qi as in Algorithm A.
//	C2. Digest Di ONCE into its candidate peptides.
//	C3. Parallel counting sort of all candidates by parent mass
//	    (Algorithm B's machinery applied to candidates, where the paper
//	    notes "the sorting version of our approach could prove more
//	    useful"): each rank ends with a narrow contiguous mass band of the
//	    global candidate space.
//	C4. Each rank fetches only the candidate blocks whose mass band
//	    intersects its query windows — usually a small subset — and scans
//	    them directly, with NO per-block re-digestion.
func candidateBody(r *cluster.Rank, in Input, opt Options, sh *shared) error {
	p, id := r.Size(), r.ID()
	cost := r.Cost()
	t0 := r.Time()
	l, err := loadPhaseOpts(r, in, opt, sh.cache, p, id, false)
	if err != nil {
		return err
	}
	loadSec := r.Time() - t0

	// C2: digest the local block once (block index = rank id here).
	blk, err := l.cache.indexFor(blockKey(id, len(l.myBytes)), l.recs, l.bases[id], opt.Digest)
	if err != nil {
		return err
	}
	ix := blk.ix
	r.Compute(cost.DigestSecPerResidue * float64(fasta.TotalResidues(l.recs)))
	idOf := blockIDResolver(l.recs, l.bases[id])
	entries := make([]candEntry, ix.Len())
	var candBytes int64
	ix.SortAll()
	for i := range entries {
		pep := ix.At(i)
		entries[i] = candEntry{Mass: pep.Mass, GID: pep.Protein, ID: idOf(pep.Protein), Seq: pep.Seq, Sites: pep.Sites}
		candBytes += int64(entries[i].wireSize())
	}
	r.NoteAlloc(candBytes)

	// C3: counting sort of candidates by mass, weighted by wire bytes so
	// every rank receives a balanced share of candidate storage.
	tSort := r.Time()
	maxKey := int64(0)
	for _, e := range entries {
		if k := int64(candKey(e.Mass)); k > maxKey {
			maxKey = k
		}
	}
	globalMax := r.AllreduceInt64(cluster.OpMax, maxKey)
	counts := make([]int64, globalMax+1)
	for _, e := range entries {
		counts[candKey(e.Mass)] += int64(e.wireSize())
	}
	r.Compute(cost.SortSecPerKey * float64(len(entries)))
	global := r.AllreduceInt64Vec(cluster.OpSum, counts)
	piv := sortmz.Pivots(global, p)
	r.Compute(cost.SortSecPerKey * float64(len(global)))

	outbound := make([][]candEntry, p)
	for _, e := range entries {
		o := sortmz.Owner(piv, candKey(e.Mass))
		outbound[o] = append(outbound[o], e)
	}
	sendBufs := make([][]byte, p)
	for j := 0; j < p; j++ {
		if sendBufs[j], err = marshalCands(outbound[j]); err != nil {
			return err
		}
	}
	recvBufs := r.Alltoallv(sendBufs)
	var mine []candEntry
	for _, buf := range recvBufs {
		part, err := unmarshalCands(buf)
		if err != nil {
			return err
		}
		mine = append(mine, part...)
	}
	sortCands(mine)
	r.Compute(cost.SortSecPerKey * float64(len(mine)))
	// The raw sequence block and the pre-sort entries are superseded by
	// the owned candidate band.
	blockBytes, err := marshalCands(mine)
	if err != nil {
		return err
	}
	r.NoteAlloc(int64(len(blockBytes)))
	r.NoteFree(candBytes)
	r.NoteFree(int64(len(l.myBytes)))
	r.Expose(candWindow, blockBytes)

	// Boundary table: each rank's owned mass band.
	lo, hi := math.Inf(1), math.Inf(-1)
	if len(mine) > 0 {
		lo, hi = mine[0].Mass, mine[len(mine)-1].Mass
	}
	tuples := r.Allgather(wire.F64(wire.F64(make([]byte, 0, 16), lo), hi))
	bandLo := make([]float64, p)
	bandHi := make([]float64, p)
	for j, b := range tuples {
		rd := wire.NewReader(b, errWire)
		bandLo[j], bandHi[j] = rd.F64(), rd.F64()
	}
	// C3b: co-partition the queries with the candidates — each raw query
	// spectrum travels to the rank owning its mass band, so almost every
	// candidate a query needs is local and only windows crossing band
	// edges fetch a neighbour. (This is where the paper expects "the
	// sorting version of our approach could prove more useful".)
	myIdx := queryIndices(l.qlo, l.qhi)
	outQ := make([]batchMsg, p)
	for i, s := range in.Queries[l.qlo:l.qhi] {
		owner := bandOwner(s.ParentMass(), bandLo, bandHi)
		outQ[owner].Indices = append(outQ[owner].Indices, myIdx[i])
		outQ[owner].Specs = append(outQ[owner].Specs, s)
	}
	qBufs := make([][]byte, p)
	for j := 0; j < p; j++ {
		qBufs[j] = encodeBatch(outQ[j])
	}
	recvQ := r.Alltoallv(qBufs)
	var routed batchMsg
	for _, buf := range recvQ {
		part, err := decodeBatch(buf)
		if err != nil {
			return err
		}
		routed.Indices = append(routed.Indices, part.Indices...)
		routed.Specs = append(routed.Specs, part.Specs...)
	}
	l.qs = prepareQueries(r, routed.Specs, opt.Score)
	l.lists = topk.NewLists(len(l.qs), opt.Tau)
	sortSec := r.Time() - tSort

	// C4: fetch and scan only intersecting bands, own band first.
	indices, candidates, err := candScanPhase(r, l, opt, mine, blockKey(id, len(blockBytes)), bandLo, bandHi, routed.Indices)
	if err != nil {
		return err
	}
	return finishRun(r, l, sh, indices, loadSec, sortSec, candidates)
}

// bandOwner routes a query parent mass to the rank whose candidate band
// contains it, or the nearest non-empty band (deterministic tie to the
// lower rank).
func bandOwner(mass float64, bandLo, bandHi []float64) int {
	best, bestD := -1, math.Inf(1)
	for j := range bandLo {
		if bandLo[j] > bandHi[j] {
			continue // empty band
		}
		if mass >= bandLo[j] && mass <= bandHi[j] {
			return j
		}
		d := bandLo[j] - mass
		if mass > bandHi[j] {
			d = mass - bandHi[j]
		}
		if d < bestD {
			best, bestD = j, d
		}
	}
	if best < 0 {
		return 0
	}
	return best
}

// sortCands orders candidates canonically (mass, then sequence, then
// protein, then modification count) — the same total order as
// digest.Index, so results are deterministic.
func sortCands(cs []candEntry) {
	sort.Slice(cs, func(i, j int) bool {
		a, b := cs[i], cs[j]
		if a.Mass != b.Mass {
			return a.Mass < b.Mass
		}
		if c := string(a.Seq); c != string(b.Seq) {
			return c < string(b.Seq)
		}
		if a.GID != b.GID {
			return a.GID < b.GID
		}
		return len(a.Sites) < len(b.Sites)
	})
}

// candScanPhase sorts the local queries by mass, computes the set of ranks
// whose candidate bands intersect any local query window, and walks those
// bands (walkBlocks over candWindow). It returns the reordered query
// indices and the candidate count. ownKey is the cache identity of the
// rank's own band — the key every other rank derives from its wire image.
func candScanPhase(r *cluster.Rank, l *loaded, opt Options, own []candEntry, ownKey cacheKey, bandLo, bandHi []float64, qIdx []int) ([]int, int64, error) {
	p, id := r.Size(), r.ID()
	cost := r.Cost()

	order := make([]int, len(l.qs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		qa, qb := l.qs[order[a]], l.qs[order[b]]
		if qa.ParentMass != qb.ParentMass {
			return qa.ParentMass < qb.ParentMass
		}
		return order[a] < order[b]
	})
	qsSorted := make([]*score.Query, len(order))
	listsSorted := make([]*topk.List, len(order))
	indices := make([]int, len(order))
	for i, o := range order {
		qsSorted[i] = l.qs[o]
		listsSorted[i] = l.lists[o]
		indices[i] = qIdx[o]
	}
	l.qs, l.lists = qsSorted, listsSorted
	r.Compute(cost.SortSecPerKey * float64(len(order)))

	if len(l.qs) == 0 {
		return indices, 0, nil
	}
	minLo, _ := opt.Tol.Window(l.qs[0].ParentMass)
	_, maxHi := opt.Tol.Window(l.qs[len(l.qs)-1].ParentMass)

	// Needed ranks: bands intersecting [minLo, maxHi], own first, then
	// rotation order.
	var needed []int
	for s := 0; s < p; s++ {
		j := (id + s) % p
		if bandLo[j] > bandHi[j] { // empty band
			continue
		}
		if bandHi[j] < minLo || bandLo[j] > maxHi {
			continue
		}
		needed = append(needed, j)
	}

	// The walk starts at the own band when it is needed; a fetched band is
	// decoded on arrival (the host decodes it once per run) and its
	// per-key sort is charged before the next get.
	var candidates int64
	cur, curKey := own, ownKey
	arrived := func(s int, data []byte) error {
		curKey = blockKey(needed[s], len(data))
		var err error
		if cur, err = l.cache.candsFor(curKey, data); err != nil {
			return err
		}
		r.Compute(cost.SortSecPerKey * float64(len(cur)))
		return nil
	}
	at := func(s int) (int, int, string) { return s, needed[s], candWindow }
	err := l.walkBlocks(r, len(needed), at, opt.Masking, arrived, func(s int, _ []byte) error {
		c, err := scanCandBlock(r, l, opt, cur, curKey, bandLo[needed[s]], bandHi[needed[s]])
		candidates += c
		return err
	})
	return indices, candidates, err
}

// scanCandBlock scores the subset of local queries whose windows intersect
// the block's mass band against the block's candidates. There is no
// digestion: the block IS the candidate list (the engine's computational
// saving). The host wraps it in a mass index once per band (key), shared by
// every rank whose queries reach the band.
func scanCandBlock(r *cluster.Rank, l *loaded, opt Options, block []candEntry, key cacheKey, bandLo, bandHi float64) (int64, error) {
	cost := r.Cost()
	// Queries possibly served by this band.
	qFrom := sort.Search(len(l.qs), func(i int) bool {
		_, hi := opt.Tol.Window(l.qs[i].ParentMass)
		return hi >= bandLo
	})
	qTo := sort.Search(len(l.qs), func(i int) bool {
		lo, _ := opt.Tol.Window(l.qs[i].ParentMass)
		return lo > bandHi
	})
	if qFrom >= qTo {
		return 0, nil
	}
	blk, err := l.cache.blockFor(key, kindCandIndex, func() (*digest.Index, error) {
		return digest.IndexFromFunc(len(block), func(i int) digest.Peptide {
			e := &block[i]
			return digest.Peptide{Seq: e.Seq, Protein: e.GID, Mass: e.Mass, Sites: e.Sites}
		}, opt.Digest)
	})
	if err != nil {
		return 0, err
	}
	idByGID := make(map[int32]string, len(block))
	for _, e := range block {
		idByGID[e.GID] = e.ID
	}
	st := l.scan.scan(l.qs[qFrom:qTo], l.lists[qFrom:qTo], blk.ix, l.sc, opt, func(g int32) string {
		if s, ok := idByGID[g]; ok {
			return s
		}
		return fmt.Sprintf("protein_%d", g)
	})
	r.Compute(scanComputeSec(cost, l.sc, st))
	return st.Candidates, nil
}
