// Package spectrum models tandem mass spectra: experimental peak lists,
// their binned/normalized form used for scoring, and theoretical (model)
// spectra generated on the fly from candidate peptide sequences.
package spectrum

import (
	"fmt"
	"math"
	"sort"

	"pepscale/internal/chem"
)

// DefaultBinWidth is the standard fragment-m/z bin width (the average
// spacing between peptide isotopic clusters, ~1.0005 Da per nominal mass
// unit).
const DefaultBinWidth = 1.0005079

// Peak is a single (m/z, intensity) point of a spectrum.
type Peak struct {
	MZ        float64
	Intensity float64
}

// Spectrum is an experimental or theoretical MS/MS spectrum.
type Spectrum struct {
	// ID identifies the query (scan title or synthetic identifier).
	ID string
	// PrecursorMZ is the observed m/z of the intact (parent) peptide.
	PrecursorMZ float64
	// Charge is the precursor charge state (>= 1).
	Charge int
	// Peaks are the fragment peaks, sorted by ascending m/z.
	Peaks []Peak
}

// ParentMass returns the neutral parent mass m(q) implied by the precursor
// m/z and charge.
func (s *Spectrum) ParentMass() float64 {
	return chem.NeutralFromMZ(s.PrecursorMZ, s.Charge)
}

// Sort orders the peaks by ascending m/z (ties by intensity) in place.
func (s *Spectrum) Sort() { sortByMZ(s.Peaks) }

func sortByMZ(ps []Peak) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].MZ != ps[j].MZ {
			return ps[i].MZ < ps[j].MZ
		}
		return ps[i].Intensity < ps[j].Intensity
	})
}

// MaxPeakMZ bounds a searchable peak's m/z, far above any peptide
// fragment: it bounds a query's bin span (about 100,000 bins at
// DefaultBinWidth) and with it the query's occupancy bitmap.
const MaxPeakMZ = 100_000

// Check is the test every entry point applies to a query spectrum: a
// finite precursor m/z, a charge of at least 1, and each peak at an m/z in
// [0, MaxPeakMZ] with a finite intensity ≥ 0 (the square-root transform
// makes a negative one NaN). The negated comparisons refuse NaN.
func (s *Spectrum) Check() error {
	if math.IsNaN(s.PrecursorMZ) || math.IsInf(s.PrecursorMZ, 0) {
		return fmt.Errorf("precursor m/z %v is not finite", s.PrecursorMZ)
	}
	if s.Charge < 1 {
		return fmt.Errorf("charge %d is below 1", s.Charge)
	}
	for i, p := range s.Peaks {
		if !(p.MZ >= 0 && p.MZ <= MaxPeakMZ && p.Intensity >= 0 && p.Intensity <= math.MaxFloat64) {
			return fmt.Errorf("peak %d (%v, %v) is not an m/z in [0, %d] with a finite intensity ≥ 0", i, p.MZ, p.Intensity, MaxPeakMZ)
		}
	}
	return nil
}

// TotalIntensity returns the summed peak intensity.
func (s *Spectrum) TotalIntensity() float64 {
	var t float64
	for _, p := range s.Peaks {
		t += p.Intensity
	}
	return t
}

// BasePeak returns the most intense peak, or a zero Peak for empty spectra.
func (s *Spectrum) BasePeak() Peak {
	var best Peak
	for _, p := range s.Peaks {
		if p.Intensity > best.Intensity {
			best = p
		}
	}
	return best
}

// PreprocessOptions control experimental-spectrum conditioning before
// scoring.
type PreprocessOptions struct {
	// TopPeaksPerWindow keeps only the most intense peaks within each
	// m/z window of WindowWidth daltons (classic local denoising).
	// <= 0 keeps all peaks.
	TopPeaksPerWindow int
	// WindowWidth is the denoising window width in daltons (default 100).
	WindowWidth float64
	// SqrtIntensity applies a square-root transform, taming dominant peaks.
	SqrtIntensity bool
	// MinRelativeIntensity drops peaks below this fraction of the base peak.
	MinRelativeIntensity float64
}

// DefaultPreprocess is the conditioning applied by the search engines.
var DefaultPreprocess = PreprocessOptions{
	TopPeaksPerWindow: 10,
	WindowWidth:       100,
	SqrtIntensity:     true,
}

// Preprocess returns a conditioned copy of s, its peaks sorted by m/z; s
// is unchanged.
func Preprocess(s *Spectrum, opt PreprocessOptions) *Spectrum {
	out := &Spectrum{ID: s.ID, PrecursorMZ: s.PrecursorMZ, Charge: s.Charge}
	peaks := make([]Peak, len(s.Peaks))
	copy(peaks, s.Peaks)
	// Every step below keeps the m/z order (the square root is monotone).
	sortByMZ(peaks)
	if opt.MinRelativeIntensity > 0 {
		min := s.BasePeak().Intensity * opt.MinRelativeIntensity
		kept := peaks[:0]
		for _, p := range peaks {
			if p.Intensity >= min {
				kept = append(kept, p)
			}
		}
		peaks = kept
	}
	if opt.TopPeaksPerWindow > 0 {
		w := opt.WindowWidth
		if w <= 0 {
			w = 100
		}
		peaks = topPerWindow(peaks, opt.TopPeaksPerWindow, w)
	}
	if opt.SqrtIntensity {
		for i := range peaks {
			peaks[i].Intensity = math.Sqrt(peaks[i].Intensity)
		}
	}
	out.Peaks = peaks
	return out
}

// topPerWindow keeps, in place, the top most intense peaks (ties to the
// lower m/z) of each width-dalton window of the m/z-sorted peaks: a window
// is a run of them, and the result stays sorted.
func topPerWindow(peaks []Peak, top int, width float64) []Peak {
	out := peaks[:0]
	for i, j := 0, 0; i < len(peaks); i = j {
		w := int(peaks[i].MZ / width)
		for j = i + 1; j < len(peaks) && int(peaks[j].MZ/width) == w; j++ {
		}
		run := peaks[i:j]
		if len(run) > top {
			sort.Slice(run, func(a, b int) bool {
				if run[a].Intensity != run[b].Intensity {
					return run[a].Intensity > run[b].Intensity
				}
				return run[a].MZ < run[b].MZ
			})
			run = run[:top]
			sortByMZ(run)
		}
		out = append(out, run...)
	}
	return out
}

// Binned is a sparse fixed-width binning of a spectrum, the representation
// consumed by the scoring models: the occupied bins in ascending order, as
// two parallel columns.
type Binned struct {
	// Width is the bin width in daltons.
	Width float64
	// Bins holds the occupied bin indices, ascending; Inten[k] is the
	// summed intensity of bin Bins[k] (normalized to max 1 after
	// Normalize).
	Bins  []int32
	Inten []float64
	// MinBin and MaxBin bound the occupied bin indices (MinBin > MaxBin for
	// an empty spectrum).
	MinBin, MaxBin int32
}

// BinIndex returns the bin index for an m/z value at the given width.
func BinIndex(mz, width float64) int32 { return int32(mz/width + 0.5) }

// Bin converts a spectrum whose peaks are sorted by m/z (as Preprocess
// leaves them) to its sparse binned form in one pass. BinIndex never
// decreases with m/z, so peaks that share a bin are adjacent; their
// intensities are summed in peak order, starting from zero.
func Bin(s *Spectrum, width float64) *Binned {
	if width <= 0 {
		width = DefaultBinWidth
	}
	b := &Binned{Width: width, MinBin: math.MaxInt32, MaxBin: math.MinInt32}
	if len(s.Peaks) == 0 {
		return b
	}
	b.Bins = make([]int32, 0, len(s.Peaks))
	b.Inten = make([]float64, 0, len(s.Peaks))
	for _, p := range s.Peaks {
		i := BinIndex(p.MZ, width)
		if n := len(b.Bins); n == 0 || b.Bins[n-1] != i {
			b.Bins = append(b.Bins, i)
			b.Inten = append(b.Inten, 0)
		}
		b.Inten[len(b.Inten)-1] += p.Intensity
	}
	b.MinBin, b.MaxBin = b.Bins[0], b.Bins[len(b.Bins)-1]
	return b
}

// Normalize scales bin intensities so the largest equals 1.
func (b *Binned) Normalize() {
	var max float64
	for _, v := range b.Inten {
		if v > max {
			max = v
		}
	}
	if max <= 0 {
		return
	}
	for k, v := range b.Inten {
		b.Inten[k] = v / max
	}
}

// Occupancy returns the fraction of bins in [MinBin, MaxBin] that hold a
// peak — the background peak density used by the statistical scorers.
func (b *Binned) Occupancy() float64 {
	if b.MaxBin < b.MinBin {
		return 0
	}
	span := float64(b.MaxBin-b.MinBin) + 1
	return float64(len(b.Bins)) / span
}

// String implements fmt.Stringer.
func (b *Binned) String() string {
	return fmt.Sprintf("binned{width=%g bins=%d span=[%d,%d]}", b.Width, len(b.Bins), b.MinBin, b.MaxBin)
}
