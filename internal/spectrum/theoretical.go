package spectrum

import (
	"slices"

	"pepscale/internal/chem"
)

// FragmentKind distinguishes the two backbone fragment ion series produced
// by collision-induced dissociation.
type FragmentKind uint8

const (
	// BIon is an N-terminal fragment (prefix of the peptide).
	BIon FragmentKind = iota
	// YIon is a C-terminal fragment (suffix of the peptide).
	YIon
)

// String implements fmt.Stringer.
func (k FragmentKind) String() string {
	if k == BIon {
		return "b"
	}
	return "y"
}

// Fragment is one theoretical fragment ion of a candidate peptide.
type Fragment struct {
	Kind   FragmentKind
	Index  int // 1-based cleavage index (b_i covers residues [0,i), y_i covers [n-i,n))
	Charge int
	MZ     float64
}

// TheoreticalOptions control on-the-fly model spectrum generation.
type TheoreticalOptions struct {
	// MassType selects the fragment mass scale. MSPolygraph-style
	// sequence-averaged model spectra use Average; high-resolution model
	// spectra use Mono.
	MassType chem.MassType
	// MaxFragmentCharge caps the fragment charge states emitted; fragments
	// are generated for charges 1..min(MaxFragmentCharge, precursorCharge-1,
	// but at least 1).
	MaxFragmentCharge int
	// NeutralLosses also emits water/ammonia loss peaks at reduced
	// intensity (an optional refinement of the model).
	NeutralLosses bool
}

// DefaultTheoretical is the engine default.
var DefaultTheoretical = TheoreticalOptions{MassType: Mono(), MaxFragmentCharge: 2}

// Mono returns chem.Mono; it exists so the zero-value literal above reads
// clearly at the call site.
func Mono() chem.MassType { return chem.Mono }

// Fragments enumerates the b/y fragment ions for a peptide. modDeltas, if
// non-nil, holds a per-residue mass shift (length must equal len(pep)).
// precursorCharge bounds the fragment charges.
func Fragments(pep []byte, modDeltas []float64, precursorCharge int, opt TheoreticalOptions) []Fragment {
	return AppendFragments(nil, pep, modDeltas, precursorCharge, opt)
}

// AppendFragments appends the b/y fragment ions of a peptide to dst and
// returns the extended slice. It is the allocation-free form of Fragments:
// once dst's capacity covers the peptide, repeated calls perform zero heap
// allocations, which is what the per-candidate scoring kernel relies on.
// The emitted fragments — content and order — are identical to Fragments.
func AppendFragments(dst []Fragment, pep []byte, modDeltas []float64, precursorCharge int, opt TheoreticalOptions) []Fragment {
	n := len(pep)
	if n < 2 {
		return dst
	}
	tab := chem.Table(opt.MassType)
	water := chem.WaterMono
	if opt.MassType == chem.Average {
		water = chem.WaterAvg
	}
	maxZ := EffectiveMaxFragmentCharge(opt, precursorCharge)
	base := len(dst)
	need := 2 * (n - 1) * maxZ
	dst = growFragments(dst, need)
	// Total residue mass (left-to-right, matching the prefix-sum order so
	// results stay bit-identical to the historical prefix-array version).
	var total float64
	for i := 0; i < n; i++ {
		m := tab[pep[i]]
		if modDeltas != nil {
			m += modDeltas[i]
		}
		total += m
	}
	// b-ions: forward sweep over prefix sums. b_i covers residues [0,i).
	var prefix float64
	for i := 1; i < n; i++ {
		m := tab[pep[i-1]]
		if modDeltas != nil {
			m += modDeltas[i-1]
		}
		prefix += m
		bNeutral := prefix
		slot := base + (i-1)*2*maxZ
		for z := 1; z <= maxZ; z++ {
			dst[slot] = Fragment{Kind: BIon, Index: i, Charge: z, MZ: chem.MZ(bNeutral, z)}
			slot += 2
		}
	}
	// y-ions: a second forward sweep fills the interleaved y slots. For
	// k = 1..n-1 the running prefix equals prefix[k], which is the value the
	// fragment y_{n-k} needs: y_i covers residues [n-i,n).
	prefix = 0
	for k := 1; k < n; k++ {
		m := tab[pep[k-1]]
		if modDeltas != nil {
			m += modDeltas[k-1]
		}
		prefix += m
		i := n - k
		yNeutral := total - prefix + water
		slot := base + (i-1)*2*maxZ + 1
		for z := 1; z <= maxZ; z++ {
			dst[slot] = Fragment{Kind: YIon, Index: i, Charge: z, MZ: chem.MZ(yNeutral, z)}
			slot += 2
		}
	}
	return dst
}

// EffectiveMaxFragmentCharge returns the fragment-charge cap AppendFragments
// applies for a precursor charge: charges 1..min(MaxFragmentCharge,
// precursorCharge-1), but at least 1, and uncapped by a precursor charge of
// 1 (whose pcMax of 0 is ignored). It is exported so the fragment-index
// builder can group candidates into charge tiers whose fragment sets are
// exactly the ones AppendFragments would generate.
func EffectiveMaxFragmentCharge(opt TheoreticalOptions, precursorCharge int) int {
	maxZ := opt.MaxFragmentCharge
	if maxZ < 1 {
		maxZ = 1
	}
	if pcMax := precursorCharge - 1; pcMax >= 1 && maxZ > pcMax {
		maxZ = pcMax
	}
	if maxZ < 1 {
		maxZ = 1
	}
	return maxZ
}

// AppendBins appends the m/z bin of every fragment AppendFragments emits for
// the peptide, in its slot order (per cleavage index and charge, the b-ion
// then the y-ion), without building the Fragment values: element for element
// BinIndex of each AppendFragments m/z. It is what the batched scan
// prepares once per candidate and reuses across every query scored against
// it. prefix is reused scratch for the peptide's prefix masses; both slices
// are returned.
func AppendBins(dst []int32, prefix []float64, pep []byte, modDeltas []float64, precursorCharge int, opt TheoreticalOptions, width float64) ([]int32, []float64) {
	n := len(pep)
	if n < 2 {
		return dst, prefix
	}
	tab := chem.Table(opt.MassType)
	water := chem.WaterMono
	if opt.MassType == chem.Average {
		water = chem.WaterAvg
	}
	// prefix[k] is the mass of residues [0,k), summed left to right as
	// AppendFragments sums them, so prefix[n] is its total bit for bit.
	prefix = slices.Grow(prefix[:0], n+1)[:n+1]
	prefix[0] = 0
	var sum float64
	for i, r := range pep {
		m := tab[r]
		if modDeltas != nil {
			m += modDeltas[i]
		}
		sum += m
		prefix[i+1] = sum
	}
	maxZ := EffectiveMaxFragmentCharge(opt, precursorCharge)
	from := len(dst)
	dst = slices.Grow(dst, 2*(n-1)*maxZ)[:from+2*(n-1)*maxZ]
	out := dst[from:]
	for i := 1; i < n; i++ {
		b := prefix[i]                       // b_i covers residues [0,i)
		y := prefix[n] - prefix[n-i] + water // y_i covers residues [n-i,n)
		// chem.MZ at z = 1: the product 1·ProtonMass and the division by 1
		// are exact, so the sum alone is the same m/z bit for bit.
		out[0], out[1] = BinIndex(b+chem.ProtonMass, width), BinIndex(y+chem.ProtonMass, width)
		out = out[2:]
		for z := 2; z <= maxZ; z++ {
			out[0], out[1] = BinIndex(chem.MZ(b, z), width), BinIndex(chem.MZ(y, z), width)
			out = out[2:]
		}
	}
	return dst, prefix
}

// growFragments extends dst by need elements, reallocating (with headroom)
// only when capacity is exhausted.
func growFragments(dst []Fragment, need int) []Fragment {
	base := len(dst)
	if cap(dst)-base < need {
		newCap := 2 * cap(dst)
		if newCap < base+need {
			newCap = base + need
		}
		grown := make([]Fragment, base, newCap)
		copy(grown, dst)
		dst = grown
	}
	return dst[:base+need]
}

// fragmentIntensity is the sequence-averaged intensity model: y-ions are
// systematically stronger than b-ions, mid-sequence cleavages are favoured
// over terminal ones, and higher charge states are attenuated. The model is
// deliberately simple and deterministic; its role (as in MSPolygraph's
// on-the-fly path) is to supply relative expectations, not absolute
// intensities.
func fragmentIntensity(f Fragment, pepLen int) float64 {
	series := 0.6
	if f.Kind == YIon {
		series = 1.0
	}
	// Triangular positional weight peaking mid-sequence.
	pos := float64(f.Index) / float64(pepLen)
	positional := 1 - 2*absf(pos-0.5)*0.8
	charge := 1.0
	if f.Charge > 1 {
		charge = 0.4
	}
	return series * positional * charge
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Theoretical generates the on-the-fly model spectrum for a candidate
// peptide: b/y ion peaks with the sequence-averaged intensity model, plus
// optional neutral-loss satellites.
func Theoretical(id string, pep []byte, modDeltas []float64, precursorCharge int, opt TheoreticalOptions) *Spectrum {
	frags := Fragments(pep, modDeltas, precursorCharge, opt)
	s := &Spectrum{ID: id, Charge: precursorCharge}
	var parent float64
	tab := chem.Table(opt.MassType)
	water := chem.WaterMono
	if opt.MassType == chem.Average {
		water = chem.WaterAvg
	}
	for i, b := range pep {
		parent += tab[b]
		if modDeltas != nil {
			parent += modDeltas[i]
		}
	}
	parent += water
	z := precursorCharge
	if z < 1 {
		z = 1
	}
	s.PrecursorMZ = chem.MZ(parent, z)
	for _, f := range frags {
		inten := fragmentIntensity(f, len(pep))
		s.Peaks = append(s.Peaks, Peak{MZ: f.MZ, Intensity: inten})
		if opt.NeutralLosses && f.Charge == 1 {
			s.Peaks = append(s.Peaks,
				Peak{MZ: f.MZ - chem.WaterMono, Intensity: inten * 0.2},
				Peak{MZ: f.MZ - chem.AmmoniaMono, Intensity: inten * 0.15},
			)
		}
	}
	s.Sort()
	return s
}
