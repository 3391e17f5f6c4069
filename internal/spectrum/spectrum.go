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
func (s *Spectrum) Sort() {
	sort.Slice(s.Peaks, func(i, j int) bool {
		if s.Peaks[i].MZ != s.Peaks[j].MZ {
			return s.Peaks[i].MZ < s.Peaks[j].MZ
		}
		return s.Peaks[i].Intensity < s.Peaks[j].Intensity
	})
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

// Preprocess returns a conditioned copy of s; s is unchanged.
func Preprocess(s *Spectrum, opt PreprocessOptions) *Spectrum {
	out := &Spectrum{ID: s.ID, PrecursorMZ: s.PrecursorMZ, Charge: s.Charge}
	peaks := make([]Peak, len(s.Peaks))
	copy(peaks, s.Peaks)
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
	out.Sort()
	return out
}

func topPerWindow(peaks []Peak, top int, width float64) []Peak {
	byWindow := map[int][]Peak{}
	for _, p := range peaks {
		w := int(p.MZ / width)
		byWindow[w] = append(byWindow[w], p)
	}
	var out []Peak
	//pepvet:allow determinism windows are truncated independently and the result is fully re-sorted; group order cannot escape
	for _, ps := range byWindow {
		sort.Slice(ps, func(i, j int) bool {
			if ps[i].Intensity != ps[j].Intensity {
				return ps[i].Intensity > ps[j].Intensity
			}
			return ps[i].MZ < ps[j].MZ
		})
		if len(ps) > top {
			ps = ps[:top]
		}
		out = append(out, ps...)
	}
	res := &Spectrum{Peaks: out}
	res.Sort()
	return res.Peaks
}

// Binned is a sparse fixed-width binning of a spectrum, the representation
// consumed by the scoring models.
type Binned struct {
	// Width is the bin width in daltons.
	Width float64
	// Bins maps bin index -> summed intensity (normalized to max 1 after
	// Normalize).
	Bins map[int32]float64
	// MinBin and MaxBin bound the occupied bin indices (MinBin > MaxBin for
	// an empty spectrum).
	MinBin, MaxBin int32
}

// BinIndex returns the bin index for an m/z value at the given width.
func BinIndex(mz, width float64) int32 { return int32(mz/width + 0.5) }

// Bin converts a spectrum to its sparse binned form.
func Bin(s *Spectrum, width float64) *Binned {
	if width <= 0 {
		width = DefaultBinWidth
	}
	b := &Binned{Width: width, Bins: make(map[int32]float64, len(s.Peaks)), MinBin: math.MaxInt32, MaxBin: math.MinInt32}
	for _, p := range s.Peaks {
		i := BinIndex(p.MZ, width)
		b.Bins[i] += p.Intensity
		if i < b.MinBin {
			b.MinBin = i
		}
		if i > b.MaxBin {
			b.MaxBin = i
		}
	}
	return b
}

// Normalize scales bin intensities so the largest equals 1.
func (b *Binned) Normalize() {
	var max float64
	//pepvet:allow determinism maximum over map values is an order-independent reduction
	for _, v := range b.Bins {
		if v > max {
			max = v
		}
	}
	if max <= 0 {
		return
	}
	//pepvet:allow determinism scatter: each key rewrites its own slot, so iteration order cannot escape
	for k, v := range b.Bins {
		b.Bins[k] = v / max
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
