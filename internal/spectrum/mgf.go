package spectrum

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// The MGF (Mascot Generic Format)-style text representation used by the
// command-line tools:
//
//	BEGIN IONS
//	TITLE=<id>
//	PEPMASS=<precursor m/z>
//	CHARGE=<z>+
//	<mz> <intensity>
//	...
//	END IONS

// ErrMGF is wrapped by MGF parse errors.
var ErrMGF = errors.New("spectrum: malformed MGF")

// WriteMGF writes spectra in MGF format.
func WriteMGF(w io.Writer, specs []*Spectrum) error {
	bw := bufio.NewWriter(w)
	for _, s := range specs {
		fmt.Fprintln(bw, "BEGIN IONS")
		fmt.Fprintf(bw, "TITLE=%s\n", s.ID)
		fmt.Fprintf(bw, "PEPMASS=%.6f\n", s.PrecursorMZ)
		fmt.Fprintf(bw, "CHARGE=%d+\n", s.Charge)
		for _, p := range s.Peaks {
			fmt.Fprintf(bw, "%.4f %.4f\n", p.MZ, p.Intensity)
		}
		fmt.Fprintln(bw, "END IONS")
	}
	return bw.Flush()
}

// ParseMGF reads all spectra from an MGF stream. Every number it accepts is
// finite: a NaN precursor has no mass window and NaN peaks no sorted order,
// so "NaN" and "Inf" are malformed input like any other non-number.
func ParseMGF(r io.Reader) ([]*Spectrum, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var specs []*Spectrum
	var cur *Spectrum
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		switch {
		case text == "" || strings.HasPrefix(text, "#"):
			continue
		case text == "BEGIN IONS":
			if cur != nil {
				return nil, fmt.Errorf("%w: nested BEGIN IONS at line %d", ErrMGF, line)
			}
			cur = &Spectrum{Charge: 1}
		case text == "END IONS":
			if cur == nil {
				return nil, fmt.Errorf("%w: END IONS without BEGIN at line %d", ErrMGF, line)
			}
			cur.Sort()
			specs = append(specs, cur)
			cur = nil
		case cur == nil:
			return nil, fmt.Errorf("%w: content outside BEGIN/END at line %d", ErrMGF, line)
		case strings.HasPrefix(text, "TITLE="):
			cur.ID = text[len("TITLE="):]
		case strings.HasPrefix(text, "PEPMASS="):
			fields := strings.Fields(text[len("PEPMASS="):])
			if len(fields) == 0 {
				return nil, fmt.Errorf("%w: empty PEPMASS at line %d", ErrMGF, line)
			}
			v, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return nil, fmt.Errorf("%w: PEPMASS at line %d: %v", ErrMGF, line, err)
			}
			if !finite(v) {
				return nil, fmt.Errorf("%w: non-finite PEPMASS at line %d", ErrMGF, line)
			}
			cur.PrecursorMZ = v
		case strings.HasPrefix(text, "CHARGE="):
			v := strings.TrimSuffix(text[len("CHARGE="):], "+")
			z, err := strconv.Atoi(v)
			if err != nil || z < 1 {
				return nil, fmt.Errorf("%w: CHARGE at line %d", ErrMGF, line)
			}
			cur.Charge = z
		case strings.Contains(text, "="):
			// Unknown key=value headers are tolerated, as in common MGF
			// producers.
			continue
		default:
			fields := strings.Fields(text)
			if len(fields) < 2 {
				return nil, fmt.Errorf("%w: peak line %d needs m/z and intensity", ErrMGF, line)
			}
			mz, err1 := strconv.ParseFloat(fields[0], 64)
			in, err2 := strconv.ParseFloat(fields[1], 64)
			if err1 != nil || err2 != nil || !finite(mz) || !finite(in) {
				return nil, fmt.Errorf("%w: peak line %d", ErrMGF, line)
			}
			cur.Peaks = append(cur.Peaks, Peak{MZ: mz, Intensity: in})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if cur != nil {
		return nil, fmt.Errorf("%w: unterminated BEGIN IONS", ErrMGF)
	}
	return specs, nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
