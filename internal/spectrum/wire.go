package spectrum

import "pepscale/internal/wire"

// Encoded sizes of a spectrum without its identifier and peaks, and of one
// peak.
const (
	WireMin      = 4 + 8 + 4 + 4
	peakWireSize = 8 + 8
)

// WireSize is the encoded size of s: len(s.AppendWire(nil)).
func (s *Spectrum) WireSize() int {
	return WireMin + len(s.ID) + peakWireSize*len(s.Peaks)
}

// AppendWire appends s in the one wire form query batches and PSUB frames
// share: identifier (str), precursor m/z (f64), charge (u32), then a u32
// peak count and each peak's m/z and intensity (f64).
func (s *Spectrum) AppendWire(b []byte) []byte {
	b = wire.Str(b, s.ID)
	b = wire.F64(b, s.PrecursorMZ)
	b = wire.U32(b, uint32(s.Charge))
	b = wire.U32(b, uint32(len(s.Peaks)))
	for _, p := range s.Peaks {
		b = wire.F64(b, p.MZ)
		b = wire.F64(b, p.Intensity)
	}
	return b
}

// ReadWire reads a spectrum written by AppendWire; no peaks read as nil and
// the charge as a signed 32-bit value. A failure is left in r for the
// caller's Finish.
func ReadWire(r *wire.Reader) *Spectrum {
	s := &Spectrum{
		ID:          r.Str(),
		PrecursorMZ: r.F64(),
		Charge:      int(int32(r.U32())),
	}
	if n := r.Count(peakWireSize); n > 0 {
		s.Peaks = make([]Peak, n)
		for i := range s.Peaks {
			s.Peaks[i] = Peak{MZ: r.F64(), Intensity: r.F64()}
		}
	}
	return s
}
